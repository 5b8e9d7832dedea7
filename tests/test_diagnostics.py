import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grainflow.diagnostics import (OMEGA_1, area_modulus, brakke_residual,
                                   brakke_slack, density_ratio_scan,
                                   eta_cutoff, huisken_functional,
                                   mass_weighted, sphere_barrier_check,
                                   symmetric_difference_area)
from grainflow.engine import PRACTICAL, RunTrace, run, schedule_params
from grainflow.domain import plane, torus
from grainflow.network import Edge, LabeledNetwork, region_areas
from grainflow.scenes import honeycomb_scene, parse_scene, voronoi_scene

from oracles import (convex_intersection_area, ngon_area,
                     symmetric_difference_grid)

TWO_BANDS = """domain torus
labels 2
line y=0.25 left=1 right=2
line y=0.75 left=2 right=1
"""


class ConstOne:
    def value(self, x):
        return np.ones(len(np.atleast_2d(x)))

    def grad(self, x):
        return np.zeros_like(np.atleast_2d(x))


def circle_net(r=1.0, h_max=0.01, n=256, center=(0.0, 0.0)):
    return parse_scene(
        "domain plane bbox=(-1.5,-1.5,1.5,1.5)\nlabels 2\n"
        "circle center=(%r,%r) r=%r n=%d inside=1 outside=2\n"
        % (center[0], center[1], r, n), h_max=h_max)


def torus_circle(center, r=0.2):
    return parse_scene(
        "domain torus\nlabels 2\n"
        "circle center=(%r,%r) r=%r n=64 inside=2 outside=1\n"
        % (center[0], center[1], r), h_max=0.02)


def translated(net, shift):
    return LabeledNetwork(net.domain, net.n_labels,
                          np.mod(net.vertices + shift, 1.0), list(net.edges),
                          net.scale)


def static_trace(net):
    tr = RunTrace()
    tr.times = [0.0, 0.001]
    tr.frames = [net, net]
    return tr


def test_eta_cutoff_values_and_smoothness():
    assert eta_cutoff(0.0) == 1.0
    assert eta_cutoff(1.0) == 1.0
    assert eta_cutoff(1.5) == pytest.approx(0.5)
    assert eta_cutoff(2.0) == 0.0
    assert eta_cutoff(3.0) == 0.0
    # C^1 across the three joins
    for r0 in (1.0, 1.5, 2.0):
        lo, hi = eta_cutoff(r0 - 1e-8), eta_cutoff(r0 + 1e-8)
        assert abs(hi - lo) < 1e-7
        dlo = (eta_cutoff(r0 - 1e-6) - eta_cutoff(r0 - 2e-6)) / 1e-6
        dhi = (eta_cutoff(r0 + 2e-6) - eta_cutoff(r0 + 1e-6)) / 1e-6
        assert abs(dhi - dlo) < 1e-4
    rs = np.linspace(0, 2.5, 2001)
    dr = np.diff(eta_cutoff(rs)) / np.diff(rs)
    assert np.max(np.abs(dr)) <= 2.0 + 1e-6


def test_mass_weighted_constant_is_total_length():
    net = parse_scene(TWO_BANDS)
    assert mass_weighted(net, ConstOne()) == pytest.approx(2.0, abs=1e-12)


def test_huisken_static_line_is_one():
    # a straight line is self-similar: the truncated Gaussian density is 1
    net = parse_scene(TWO_BANDS, h_max=0.005)
    tr = static_trace(net)
    val = huisken_functional(tr, (0.3, 0.25), 0.001, 0.2, 0.0)
    assert val == pytest.approx(1.0, abs=1e-3)


def test_huisken_requires_t_before_s():
    tr = static_trace(parse_scene(TWO_BANDS))
    with pytest.raises(ValueError):
        huisken_functional(tr, (0.3, 0.25), 0.0, 0.2, 0.0)


def test_density_ratio_line_and_junction():
    line = parse_scene(TWO_BANDS, h_max=0.005)
    tab = density_ratio_scan(line, [0.02, 0.05, 0.1],
                             points=[(0.3, 0.25)])
    assert np.allclose(tab.ratios, 1.0, atol=1e-9)
    assert tab.monotone_ok.all()
    hc = honeycomb_scene(3, 2, h_max=0.005)
    deg = hc.vertex_degrees()
    y = hc.vertices[int(np.nonzero(deg == 3)[0][0])]
    tab = density_ratio_scan(hc, [0.01, 0.02], points=[y])
    # three half-lines: |V|(B_r) = 3r, ratio 3r / (2r) = 1.5
    assert np.allclose(tab.ratios, 1.5, atol=1e-9)
    assert tab.monotone_ok.all()


def test_symmetric_difference_annulus():
    a = circle_net(1.0)
    b = circle_net(0.9)
    want = region_areas(a).areas[1] - region_areas(b).areas[1]
    for label in (1, 2):
        assert symmetric_difference_area(a, b, label) == pytest.approx(
            want, rel=1e-12)
    assert symmetric_difference_area(a, a, 1) == 0.0


@pytest.mark.parametrize("n", [3, 5, 64])
def test_symmetric_difference_concentric_ngons(n):
    c = (0.1, -0.23)
    a = circle_net(1.1, h_max=0.05, n=n, center=c)
    b = circle_net(0.45, h_max=0.05, n=n, center=c)
    want = ngon_area(n, 1.1) - ngon_area(n, 0.45)
    for label in (1, 2):
        assert symmetric_difference_area(a, b, label) == pytest.approx(
            want, rel=1e-12)
        assert symmetric_difference_area(b, a, label) == pytest.approx(
            want, rel=1e-12)


def polygon(spec, center):
    n, r, phase = spec
    th = phase + 2.0 * np.pi * np.arange(n) / n
    return np.asarray(center) + r * np.column_stack([np.cos(th), np.sin(th)])


def polygon_net(domain, verts):
    """One counterclockwise loop through verts: label 1 inside, 2 outside."""
    if domain.periodic:
        verts = np.mod(verts, 1.0)
    chain = tuple(range(len(verts))) + (0,)
    return LabeledNetwork(domain, 2, verts, [Edge(chain, 1, 2)])


POLYGON = st.tuples(st.integers(4, 9), st.floats(0.05, 0.3),
                    st.floats(0.0, 6.3))  # vertex count, radius, phase


@settings(max_examples=40, deadline=None)
# an axis-aligned square against a diamond: 0.75 in closed form
@example(periodic=False, p=(4, 1.0, 0.0), q=(4, 0.75 * np.sqrt(2.0), np.pi / 4),
         center=(0.5, 0.5), offset=(0.0, 0.0))
# a diamond against its copy moved 1e-15 right: the sliver slab left of the
# moved tip has two crossings tied in height up to roundoff
@example(periodic=False, p=(4, 0.25, 0.0), q=(4, 0.25, 0.0),
         center=(0.0, 0.0), offset=(1e-15, 0.0))
# across one wide slab a boundary of each diamond passes the seam y = 0 and
# the two cross there: their height difference changes by more than 1/2
@example(periodic=True, p=(4, 0.25, 4.875), q=(4, 0.25, 1.5),
         center=(0.0, 0.0), offset=(0.0, 0.03125))
# boundaries that meet on the seam y = 0 of the torus
@example(periodic=True, p=(8, 0.3, 0.1), q=(8, 0.3, 0.2),
         center=(0.5, -0.025), offset=(0.0, 0.05))
# around the torus corner: the slabs of x in (0.25, 0.75) are uncovered and
# located from their probe point (0.5, 0.5), as far from the squares as can be
@example(periodic=True, p=(4, 0.25, 0.0), q=(4, 0.25, 1.5),
         center=(0.0, 0.0), offset=(0.0, 0.0))
@given(periodic=st.booleans(), p=POLYGON, q=POLYGON,
       center=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       offset=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)))
def test_symmetric_difference_of_convex_polygons(periodic, p, q, center,
                                                 offset):
    # unrefined chords make wide slabs, so the two boundaries cross inside
    # them; on the torus neither polygon meets the other's periodic copies
    dom = torus() if periodic else plane((-1.0, -1.0, 2.0, 2.0))
    pv, qv = polygon(p, center), polygon(q, np.add(center, offset))
    want = (ngon_area(p[0], p[1]) + ngon_area(q[0], q[1])
            - 2.0 * convex_intersection_area(pv, qv))
    a, b = polygon_net(dom, pv), polygon_net(dom, qv)
    for label in (1, 2):
        assert symmetric_difference_area(a, b, label) == pytest.approx(
            want, rel=1e-12, abs=1e-15)


def grid_error_bound(nets, label, coarse=0.02, fine_factor=8):
    """Worst case of symmetric_difference_grid's sampling error.

    Only fine cells of side s that a boundary of the label passes through
    can be misclassified, each at most wholly; a segment of length l passes
    through at most sqrt(2) l / s + 3 of them.
    """
    s = coarse / fine_factor
    cells = 0.0
    for net in nets:
        p0, p1, _, left, right = net.segment_arrays()
        mine = (left != right) & ((left == label) | (right == label))
        cells += np.sum(np.sqrt(2.0) * np.linalg.norm(p1 - p0, axis=1)[mine] / s
                        + 3.0)
    return cells * s * s


def test_symmetric_difference_matches_grid_where_boundaries_cross():
    a = voronoi_scene(8, 42)
    b = translated(a, (0.21, 0.37))
    pairs = [(a, b, lab) for lab in range(1, 9)]
    # a circle across both seams of the torus against one moved along them
    pairs.append((torus_circle((0.05, 0.95)), torus_circle((0.1, 0.9)), 2))
    for p, q, lab in pairs:
        got = symmetric_difference_area(p, q, lab)
        ref = symmetric_difference_grid(p, q, lab)
        assert got > 0.0
        assert abs(got - ref) <= grid_error_bound((p, q), lab)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(3, 8), seeds=st.tuples(st.integers(0, 10_000),
                                            st.integers(0, 10_000)),
       shift=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_symmetric_difference_is_a_metric(n, seeds, shift):
    a = voronoi_scene(n, seeds[0])
    frames = (a, translated(a, shift), voronoi_scene(n, seeds[1]))
    areas = [region_areas(f).areas for f in frames]
    for lab in range(1, n + 1):
        g = {(i, j): symmetric_difference_area(frames[i], frames[j], lab)
             for i in range(3) for j in range(3)}
        for i in range(3):
            assert g[i, i] == 0.0
            for j in range(3):
                assert abs(g[i, j] - g[j, i]) <= 1e-12
                assert g[i, j] >= abs(areas[i][lab] - areas[j][lab]) - 1e-12
                for k in range(3):
                    assert g[i, k] <= g[i, j] + g[j, k] + 1e-12


def test_area_modulus_static_is_zero():
    tr = static_trace(circle_net(1.0, h_max=0.05))
    assert area_modulus(tr, 1).modulus == 0.0


def test_sphere_barrier_empty_ball():
    tr = static_trace(parse_scene(TWO_BANDS))
    assert sphere_barrier_check(tr, (0.5, 0.5), 0.2, 0.0)
    with pytest.raises(ValueError):
        sphere_barrier_check(tr, (0.5, 0.25), 0.2, 0.0)


def test_brakke_residual_short_run():
    sched = schedule_params(PRACTICAL, 2, eps=0.2, dt=0.002, steps=10)
    trace = run(circle_net(1.0, h_max=0.05), sched, keep_steps=True)
    t1, t2 = trace.times[0], trace.times[-1]
    res = brakke_residual(trace, ConstOne(), t1, t2)
    slack = brakke_slack(trace, t1, t2, 0.2)
    assert res <= slack
    # and the mass genuinely moved, so the check is not vacuous
    assert mass_weighted(trace.frames[0], ConstOne()) \
        - mass_weighted(trace.frames[-1], ConstOne()) > 0.01


def test_brakke_residual_preconditions():
    sched = schedule_params(PRACTICAL, 2, eps=0.2, dt=0.002, steps=2)
    tr = run(circle_net(1.0, h_max=0.05), sched)  # no keep_steps
    with pytest.raises(ValueError):
        brakke_residual(tr, ConstOne(), tr.times[0], tr.times[-1])
    tr2 = run(circle_net(1.0, h_max=0.05), sched, keep_steps=True)
    with pytest.raises(ValueError):
        brakke_residual(tr2, ConstOne(), tr2.times[-1], tr2.times[0])
