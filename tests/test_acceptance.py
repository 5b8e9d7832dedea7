"""End-to-end verification suite.

Each test exercises one advertised guarantee of the scheme: kernel
normalization, first-variation oracles, smoothed-curvature accuracy, the
motion-law inequality family (with sign-flip mutation checks), the shrinking
circle law, stationary configurations, the deformation catalog, per-step mass
inequalities, faithful-mode scheduling, the monitoring functionals, and
byte-level determinism of the command line.
"""

import json
import os

import numpy as np
import pytest

from grainflow.cli import cli_main
from grainflow.deformation import (Move, collapse_small_region, length_in_ball,
                                   remove_interior_boundary,
                                   split_high_order_junction, verify_admissible)
from grainflow.diagnostics import (area_modulus, brakke_residual, brakke_slack,
                                   density_ratio_scan, huisken_functional,
                                   huisken_slack)
from grainflow.domain import plane
from grainflow.engine import (PAPER, PRACTICAL, FlowState, RunTrace, advance,
                              run, schedule_params)
from grainflow.kernels import Kernel, psi_prime
from grainflow.network import (Edge, LabeledNetwork, region_areas,
                               validate_partition)
from grainflow.scenes import honeycomb_scene, parse_scene
from grainflow.varifold import (build_varifold_view, first_variation,
                                motion_law_terms, smoothed_mean_curvature)
from grainflow.weights import make_test_function

from conftest import CROSS_SCENE, TWO_LINES_SCENE
from oracles import kernel_mass_oracle, ngon_perimeter, ngon_vertices

QTOL = 1e-6


class LinearRadial:
    """g(x) = x: div over a curve integrates the tangential stretch."""

    def value(self, x):
        return np.atleast_2d(np.asarray(x, dtype=float))

    def jacobian(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.broadcast_to(np.eye(2), x.shape + (2,))


def ngon_net(n, bbox=(-1.5, -1.5, 1.5, 1.5)):
    return LabeledNetwork(plane(bbox), 2, ngon_vertices(n),
                          [Edge(tuple(range(n)) + (0,), 1, 2)])


# 1. kernel normalization, limit behaviour, and the product-rule identity


def test_kernel_normalization_and_identity(rng):
    cs = {}
    for eps in (0.5, 0.1, 0.05, 0.02):
        k = Kernel.make(eps)
        # the oracle integrates the unnormalized profile, so c * mass = 1
        assert abs(k.c_eps * kernel_mass_oracle(eps) - 1.0) < 1e-8
        cs[eps] = k.c_eps
    # c(eps) decreases toward 1; below eps ~ 0.1 the excess underflows
    assert cs[0.5] > cs[0.1] > 1.0
    assert 1.0 <= cs[0.05] <= cs[0.1]
    assert 1.0 <= cs[0.02] <= cs[0.05]
    for eps in (0.5, 0.1):
        k = Kernel.make(eps)
        radii = rng.uniform(1e-3, k.trunc_radius, 100)
        th = rng.uniform(0.0, 2 * np.pi, 100)
        x = radii[:, None] * np.column_stack([np.cos(th), np.sin(th)])
        val, grad = k.value_grad(x)
        lhs = x * val[:, None] + eps ** 2 * grad
        r = np.linalg.norm(x, axis=1)
        hat = np.exp(-r ** 2 / (2 * eps ** 2)) / (2 * np.pi * eps ** 2)
        rhs = (eps ** 2 * k.c_eps * psi_prime(r) * hat)[:, None] * (x / r[:, None])
        assert np.max(np.abs(lhs - rhs)) < 1e-10


# 2. first-variation oracles


def test_first_variation_oracles(omega):
    seg = LabeledNetwork(plane(), 2, np.array([[0.0, 0.0], [1.0, 0.0]]),
                         [Edge((0, 1), 1, 2)])
    assert first_variation(build_varifold_view(seg, omega),
                           LinearRadial()) == 1.0
    net = ngon_net(256)
    per = ngon_perimeter(256)
    got = first_variation(build_varifold_view(net, omega), LinearRadial())
    assert abs(got - per) <= 1e-12 * per


# 3. smoothed curvature accuracy


def test_smoothed_curvature_on_circle_and_line(omega):
    net = ngon_net(256)
    V = build_varifold_view(net, omega)
    kernel = Kernel.make(0.02)
    f = smoothed_mean_curvature(V, kernel, omega, net.vertices)
    r = np.linalg.norm(net.vertices, axis=1)
    radial = net.vertices / r[:, None]
    normal = np.einsum("qk,qk->q", f.h_eps, -radial)
    tangential = np.einsum("qk,qk->q", f.h_eps,
                           np.column_stack([-radial[:, 1], radial[:, 0]]))
    mag = np.linalg.norm(f.h_eps, axis=1)
    assert np.all((mag >= 0.95) & (mag <= 1.05))
    assert np.all(np.abs(tangential) <= 0.05 * np.abs(normal))
    assert not f.bound_violations()

    line = LabeledNetwork(plane(), 2,
                          np.array([[-4.0, 0.0], [4.0, 0.0]]),
                          [Edge((0, 1), 1, 2)])
    Vl = build_varifold_view(line, omega)
    fl = smoothed_mean_curvature(Vl, kernel, omega,
                                 np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert np.max(np.linalg.norm(fl.h_eps, axis=1)) < 1e-6


# 4. motion-law inequality suite with mutation checks


def test_motion_law_inequalities_and_mutations(circle_net, kernel05, omega,
                                               rng):
    V = build_varifold_view(circle_net, omega)
    eps = kernel05.eps
    e4 = eps ** 0.25
    dom = circle_net.domain

    def slack(E):
        return 10.0 * QTOL * max(1.0, E)

    for _ in range(10):
        center = rng.uniform(-1.0, 1.0, 2)
        ang = rng.uniform(0.0, 2 * np.pi)
        g = make_test_function(2, "B", center, omega, dom,
                               direction=(np.cos(ang), np.sin(ang)))
        t = motion_law_terms(V, kernel05, omega, g=g)
        E = t.energy
        # pairing consistency between the measure and space forms
        assert abs(t.pairing_measure + t.pairing_space) \
            <= e4 * np.sqrt(E) + slack(E)
        # pairing against the raw first variation
        assert abs(t.pairing_measure + t.first_variation_g) \
            <= e4 * (1.0 + np.sqrt(E)) + slack(E)

    phi = make_test_function(2, "A", (0.0, 0.0), omega, dom)
    t = motion_law_terms(V, kernel05, omega, phi=phi)
    E = t.energy
    assert abs(t.smoothed_fv_weighted + t.weighted_energy) \
        <= e4 * (E + 1.0) + slack(E)
    assert t.curvature_sq_weighted <= (1.0 + e4) * E + e4 + slack(E)

    # mutation checks: each bound trips under a deliberate sign flip.  The
    # pairing flips need a field aligned with the inward motion so the two
    # terms reinforce instead of cancelling.
    ga = make_test_function(4, "B", (1.0, 0.0), omega, dom,
                            direction=(-1.0, 0.0))
    ta = motion_law_terms(V, kernel05, omega, g=ga)
    assert abs(ta.pairing_measure - ta.pairing_space) \
        > e4 * np.sqrt(E) + slack(E)
    assert abs(ta.pairing_measure - ta.first_variation_g) \
        > e4 * (1.0 + np.sqrt(E)) + slack(E)
    assert abs(t.smoothed_fv_weighted - t.weighted_energy) \
        > e4 * (E + 1.0) + slack(E)
    assert not t.curvature_sq_weighted <= (1.0 + e4) * (-E) + e4 + slack(E)


# 5. shrinking-circle law


def test_circle_law_and_extinction(circle_trace):
    worst = 0.0
    for rep in circle_trace.reports:
        if rep.t > 0.3:
            break
        r_exact = np.sqrt(1.0 - 2.0 * rep.t)
        worst = max(worst, abs(rep.mass_post / (2 * np.pi) - r_exact) / r_exact)
    assert worst < 0.02
    assert abs(circle_trace.times[-1] - 0.5) <= 0.03
    assert circle_trace.reports[-1].mass_post < 1e-3
    assert not any(r.violations for r in circle_trace.reports)


# 6. stationary configurations


@pytest.mark.parametrize("scene", ["lines", "honeycomb"])
def test_stationary_configurations(scene, omega):
    if scene == "lines":
        net = parse_scene(TWO_LINES_SCENE)
        sched = schedule_params(PRACTICAL, 2, eps=0.2, dt=0.002, steps=1000)
    else:
        # the smoothing scale must sit well below the cell size (~0.33) or
        # neighbouring walls couple through the kernel and drift slowly
        net = honeycomb_scene(3, 2, h_max=0.0125)
        sched = schedule_params(PRACTICAL, 2, eps=0.05, dt=1e-4, steps=1000,
                                h_max=0.0125)
    trace = run(net, sched, omega=omega, frame_every=250)
    moved = sum(r.max_displacement for r in trace.reports)
    assert moved < 1e-3
    assert not any(r.violations for r in trace.reports)
    last = trace.frames[-1]
    ends = last.outgoing_ends()
    deg = last.vertex_degrees()
    for vi, lst in ends.items():
        if deg[vi] != 3:
            continue
        angles = sorted(np.arctan2(d[1], d[0]) for d, _, _, _, _ in lst)
        gaps = np.degrees(np.diff(angles + [angles[0] + 2 * np.pi]))
        assert np.max(np.abs(gaps - 120.0)) < 2.0


# 7. deformation catalog


def test_deformation_catalog():
    from oracles import CROSS_DIAGONALS, STEINER_SQUARE
    net = parse_scene(CROSS_SCENE, h_max=0.05)
    junction = int(np.nonzero(net.vertex_degrees() >= 4)[0][0])
    out = split_high_order_junction(net, junction, 2)
    move = out.accepted_moves[0]
    assert verify_admissible(net, out.network, move, 2).accepted
    deg = out.network.vertex_degrees()
    assert np.max(deg) == 3 and np.sum(deg == 3) == 2
    la = length_in_ball(out.network, move.center, move.radius)
    lb = length_in_ball(net, move.center, move.radius)
    assert la < lb
    assert la / lb == pytest.approx(STEINER_SQUARE / CROSS_DIAGONALS, rel=0.01)

    # interior boundary removal changes no areas
    th = 2.0 * np.pi * np.arange(16) / 16
    ring = np.column_stack([np.cos(th), np.sin(th)])
    chord = np.array([[-0.4, 0.0], [0.0, 0.0], [0.4, 0.0]])
    inet = LabeledNetwork(plane((-2, -2, 2, 2)), 2, np.vstack([ring, chord]),
                          [Edge(tuple(range(16)) + (0,), 1, 2),
                           Edge((16, 17, 18), 1, 1)])
    before = region_areas(inet).areas
    iout = remove_interior_boundary(inet, 1)
    assert iout.length_decrease_omega == pytest.approx(0.8, abs=1e-12)
    after = region_areas(iout.network).areas
    for lab in before:
        assert after[lab] == pytest.approx(before[lab], abs=1e-12)
    assert verify_admissible(inet, iout.network,
                             iout.accepted_moves[0], 1).accepted

    # tiny-grain collapse: full local mass removal, bounded area transfer
    island = parse_scene("domain plane bbox=(-1,-1,1,1)\nlabels 2\n"
                         "circle center=(0,0) r=0.004 n=24 inside=1 outside=2\n")
    ell = island.total_length()
    cout = collapse_small_region(island, 1, 2)
    cmove = cout.accepted_moves[0]
    assert verify_admissible(island, cout.network, cmove, 2).accepted
    assert length_in_ball(cout.network, cmove.center, cmove.radius) \
        <= 0.5 * length_in_ball(island, cmove.center, cmove.radius)
    assert abs(cout.volume_changes[1]) <= 1.0 * ell ** 2

    # synthetic violations are each rejected with the reason named
    j = 4
    bad_disp = Move("local-relaxation", np.zeros(2), 0.1,
                    displacement=2.0 / (j * j))
    assert "displacement" in verify_admissible(net, net, bad_disp, j).reason
    b0 = parse_scene(TWO_LINES_SCENE)
    b1 = parse_scene("domain torus\nlabels 2\nline y=0.8 left=1 right=2\n"
                     "line y=0.75 left=2 right=1\n")
    bad_vol = Move("local-relaxation", np.array([0.5, 0.5]), 0.2,
                   displacement=0.05)
    assert "volume" in verify_admissible(b0, b1, bad_vol, 3).reason
    no_gain = Move("local-relaxation", np.zeros(2), 0.1, displacement=0.0)
    assert "decrease" in verify_admissible(net, net.copy(), no_gain, j).reason


# 8. per-step mass inequalities along the grain run


def test_per_step_mass_inequalities(grain_trace):
    sched_eps, sched_dt = 0.05, 1e-4
    mass0 = grain_trace.reports[0].mass_pre
    for rep in grain_trace.reports:
        # the deformation never increases the weighted mass (exact arithmetic)
        assert rep.mass_mid <= rep.mass_pre
        assert rep.deformation_decrease >= 0.0
        # dissipation and cumulative bounds are engine-checked per step
        assert rep.violations == []
        bound = mass0 + sched_eps ** 0.125 * rep.step * sched_dt
        assert rep.mass_post <= bound + 1e-9 * max(1.0, mass0)
    assert len(grain_trace.reports) == 500


# 9. faithful-mode scheduling


def test_faithful_schedule_and_advance(omega):
    eps = 2.0 ** -12
    sched = schedule_params(PAPER, 2, eps=eps, steps=1)
    assert sched.c_a == 23
    assert sched.dt == 2.0 ** -276
    net = parse_scene(TWO_LINES_SCENE)
    state = FlowState(net, Kernel.make(eps), omega)
    state, report, _ = advance(state, sched)
    assert report.violations == []
    assert report.mass_pre == 2.0
    assert report.mass_mid == 2.0
    assert report.mass_post == 2.0  # dt ~ 2^-276: no representable motion
    assert report.max_displacement < 1e-80
    assert validate_partition(state.net).ok


# 10. monitoring functionals


def test_brakke_residual_five_test_functions(circle_trace_steps, omega):
    tr = circle_trace_steps
    t1, t2 = tr.times[0], tr.times[-1]
    slack = brakke_slack(tr, t1, t2, 0.05)
    dom = tr.frames[0].domain
    for center in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-0.7, -0.7),
                   (0.5, -0.5)):
        phi = make_test_function(2, "A", center, omega, dom, width=2.0)
        assert brakke_residual(tr, phi, t1, t2) <= slack


def test_huisken_static_line_and_slack(circle_trace):
    line = parse_scene(TWO_LINES_SCENE, h_max=0.005)
    tr = RunTrace()
    tr.times = [0.0]
    tr.frames = [line]
    val = huisken_functional(tr, (0.3, 0.25), 0.001, 0.2, 0.0)
    assert val == pytest.approx(1.0, abs=1e-4)

    y, R, s = (0.0, 1.0), 0.3, 0.35
    t1, t2 = 0.0, 0.3
    v1 = huisken_functional(circle_trace, y, s, R, t1)
    v2 = huisken_functional(circle_trace, y, s, R, t2)
    assert v2 <= v1 + huisken_slack(circle_trace, y, R, t1, t2, c5=20.0)


def test_density_ratio_at_triple_junction():
    hc = honeycomb_scene(3, 2, h_max=0.005)
    deg = hc.vertex_degrees()
    y = hc.vertices[int(np.nonzero(deg == 3)[0][0])]
    tab = density_ratio_scan(hc, [0.01, 0.02, 0.04], points=[y])
    assert np.max(np.abs(tab.ratios - 1.5)) < 1e-3
    assert tab.monotone_ok.all()


def test_area_modulus_matches_circle_law(circle_trace):
    mod = area_modulus(circle_trace, 1, t_max=0.3, max_frames=5)
    assert mod.pairs
    for t, s, g in mod.pairs:
        want = 2.0 * np.pi * (s - t)
        assert abs(g - want) <= 0.03 * want


# 11. byte-level determinism


def test_cli_determinism_grain_scene(tmp_path):
    scene = tmp_path / "grains.scene"
    scene.write_text("domain torus\nlabels 8\ngenerator voronoi seeds=8 rng=42\n")
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        rc = cli_main(["--scene", str(scene), "--mode", "practical", "--j", "2",
                       "--epsilon", "0.2", "--dt", "0.002", "--steps", "30",
                       "--frame-every", "10", "--seed", "1", "--out", out])
        assert rc == 0
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    assert any(n.startswith("frame_") for n in names)
    for fname in names:
        a = open(os.path.join(outs[0], fname), "rb").read()
        b = open(os.path.join(outs[1], fname), "rb").read()
        assert a == b, fname
    with open(os.path.join(outs[0], "report.jsonl")) as f:
        recs = [json.loads(line) for line in f]
    assert len(recs) == 30
