import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grainflow.varifold as vf
from grainflow.domain import plane, torus
from grainflow.kernels import Kernel
from grainflow.network import Edge, LabeledNetwork
from grainflow.scenes import parse_scene, voronoi_scene
from grainflow.varifold import (VarifoldView, _gather_windows,
                                build_varifold_view, curvature_and_energy,
                                first_variation, h_eps_at, l2_energy,
                                omega_mass, smoothed_mean_curvature,
                                smoothing_grid, weighted_first_variation)
from grainflow.weights import const_weight, make_test_function

from oracles import (direct_gather_tree, direct_lattice_sums_tree,
                     ngon_perimeter, ngon_vertices, quad_nodes_loop,
                     segment_vertex_ids_loop, used_vertices_loop)


class LinearField:
    """g(x) = A x with constant jacobian (rows index d_i, columns g_k)."""

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)

    def value(self, x):
        return np.asarray(x, dtype=float) @ self.A

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.A, x.shape[:-1] + (2, 2)).copy()


def segment_view(p0, p1, omega=None):
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    p1 = np.atleast_2d(np.asarray(p1, dtype=float))
    d = p1 - p0
    length = np.linalg.norm(d, axis=1)
    return VarifoldView(plane(), p0, p1, d / length[:, None], length,
                        omega or const_weight())


def ngon_view(n, r=1.0):
    v = ngon_vertices(n, r)
    return segment_view(v, np.roll(v, -1, axis=0))


def test_first_variation_unit_segment_identity_field():
    V = segment_view([0.0, 0.0], [1.0, 0.0])
    assert first_variation(V, LinearField(np.eye(2))) == 1.0


def test_first_variation_polygon_radial_field():
    # radial field g(x) = x stretches every segment at unit rate, so the
    # first variation equals the perimeter
    V = ngon_view(256)
    per = ngon_perimeter(256)
    assert abs(first_variation(V, LinearField(np.eye(2))) - per) <= 1e-12 * per


def test_first_variation_rotation_field_vanishes():
    V = ngon_view(64)
    rot = LinearField([[0.0, -1.0], [1.0, 0.0]])
    assert abs(first_variation(V, rot)) < 1e-12


def test_weighted_first_variation_constant_phi():
    V = ngon_view(32)
    om = const_weight()
    phi = make_test_function(1, "A", (0, 0), om, plane())
    g = LinearField([[0.3, 0.1], [-0.2, 0.5]])
    assert weighted_first_variation(V, phi, g) == pytest.approx(
        first_variation(V, g), rel=1e-12)


def test_omega_mass_const_shortcut():
    V = ngon_view(128)
    assert omega_mass(V) == pytest.approx(ngon_perimeter(128), rel=1e-12)


CIRCLE = """domain plane bbox=(-1.5,-1.5,1.5,1.5)
labels 2
circle center=(0,0) r=1 n=256 inside=1 outside=2
"""

TORUS_LINE = """domain torus
labels 2
line y=0.25 left=1 right=2
line y=0.75 left=2 right=1
"""


def test_straight_line_curvature_vanishes():
    net = parse_scene(TORUS_LINE, h_max=0.0125)
    om = const_weight()
    V = build_varifold_view(net, om)
    k = Kernel.make(0.05)
    h = h_eps_at(V, k, om, net.vertices[:20])
    assert np.max(np.abs(h)) < 1e-6
    assert l2_energy(V, k, om) < 1e-8


def test_circle_curvature_and_energy():
    net = parse_scene(CIRCLE, h_max=0.005)
    om = const_weight()
    V = build_varifold_view(net, om)
    cf = smoothed_mean_curvature(V, Kernel.make(0.02), om, net.vertices)
    mag = np.linalg.norm(cf.h_eps, axis=1)
    assert np.all((0.95 <= mag) & (mag <= 1.05))
    # limit of the energy is the squared-curvature integral 2 pi / r
    assert cf.energy == pytest.approx(2.0 * np.pi, rel=0.1)
    assert cf.bound_violations() == []


def test_energy_scaling_smaller_circle():
    # radius 0.5 at the same eps/r ratio doubles the squared-curvature mass
    scene = CIRCLE.replace("r=1", "r=0.5")
    net = parse_scene(scene, h_max=0.0025)
    om = const_weight()
    V = build_varifold_view(net, om)
    assert l2_energy(V, Kernel.make(0.01), om) == pytest.approx(
        4.0 * np.pi, rel=0.1)


def test_separable_and_direct_paths_agree(monkeypatch):
    om = const_weight()
    k = Kernel.make(0.05)
    net = parse_scene(CIRCLE, h_max=0.0125)
    targets = net.vertices[:32]
    V1 = build_varifold_view(net, om)
    sg = smoothing_grid(V1, k, om)
    assert sg.separable and sg.lattice.sp == k.eps / 2.0
    h_sep, e_sep = curvature_and_energy(V1, k, om, targets)
    # force the direct truncated-kernel sums, which run on the eps/4 lattice
    monkeypatch.setattr(vf, "_separable", lambda *a: False)
    V2 = build_varifold_view(net, om)
    h_direct = h_eps_at(V2, k, om, targets)
    e_direct = l2_energy(V2, k, om)
    # residual: the ball-vs-square truncation shape and the two lattices
    assert np.max(np.abs(h_sep - h_direct)) < 1e-5
    assert e_sep == pytest.approx(e_direct, rel=1e-5)


def test_torus_separable_matches_direct_oracle(monkeypatch):
    # eps small enough that a full torus lattice would hold 1.0e6 cells at
    # the separable spacing 1/ceil(2/eps), and 4.2e6 at the direct path's
    # 1/ceil(4/eps); the tiles near the carrier hold a fraction of them
    eps = 0.00196
    om = const_weight()
    k = Kernel.make(eps)
    scene = """domain torus
labels 2
circle center=(0.5,0.5) r=0.2 n=512 inside=1 outside=2
"""
    net = parse_scene(scene, h_max=0.01)
    V = build_varifold_view(net, om)
    sg = smoothing_grid(V, k, om)
    assert sg.separable and sg.lattice.sp == 1.0 / np.ceil(2.0 / eps)
    targets = net.vertices[:24]
    h_sep, e_sep = curvature_and_energy(V, k, om, targets)
    monkeypatch.setattr(vf, "_separable", lambda *a: False)
    V2 = build_varifold_view(net, om)
    h_ref = h_eps_at(V2, k, om, targets)
    e_ref = l2_energy(V2, k, om)
    assert e_sep == pytest.approx(e_ref, rel=1e-5)
    assert np.max(np.abs(h_sep - h_ref)) < 1e-4 * np.max(np.abs(h_ref))
    # the curvature of the radius-0.2 circle is resolved at this eps
    assert np.linalg.norm(h_sep, axis=1).max() == pytest.approx(5.0, rel=0.02)


def _eighth_spacing(kernel, domain):
    m = int(np.ceil(8.0 / kernel.eps)) if domain.periodic else 0
    return (1.0 / m if m else kernel.eps / 8.0), m


def test_lattice_spacing_error_budget(monkeypatch):
    # The error bound the chosen lattice spacing is accepted on: h_eps at the
    # vertices and the energy against a lattice of spacing eps/8, on a plane
    # circle and an 8-grain torus at eps 0.05.  Measured: h 5.1e-8, energy
    # 1.9e-9 on the circle; 2.3e-7 and 2.2e-8 on the torus (seeds 1, 2, 3
    # and 7 of the same family reach at most 3.7e-6 and 2.9e-7)
    eps = 0.05
    om = const_weight()
    k = Kernel.make(eps)
    for net in (parse_scene(CIRCLE, h_max=0.0125),
                voronoi_scene(8, 42, h_max=0.0125)):
        V = build_varifold_view(net, om)
        sg = smoothing_grid(V, k, om)
        m = int(np.ceil(2.0 / eps)) if net.domain.periodic else 0
        assert sg.separable and sg.lattice.m == m
        assert sg.lattice.sp == (1.0 / m if m else eps / 2.0)
        assert sg.lattice.S == 16
        h, energy = curvature_and_energy(V, k, om, net.vertices)
        with monkeypatch.context() as mp:
            mp.setattr(vf, "_spacing", _eighth_spacing)
            V_ref = build_varifold_view(net, om)
            h_ref, e_ref = curvature_and_energy(V_ref, k, om, net.vertices)
            assert smoothing_grid(V_ref, k, om).lattice.sp < sg.lattice.sp / 3.0
        assert np.max(np.abs(h - h_ref)) <= 1e-5 * np.max(np.abs(h_ref))
        assert energy == pytest.approx(e_ref, rel=1e-6)
    # the kernel does not factor at eps 0.2 on the torus: the direct sums
    # keep spacing 1/ceil(4/eps) and 32-cell tiles
    eps = 0.2
    sg = smoothing_grid(build_varifold_view(parse_scene(TORUS_LINE), om),
                        Kernel.make(eps), om)
    assert not sg.separable
    assert sg.lattice.sp == 1.0 / np.ceil(4.0 / eps) and sg.lattice.S == 32


def test_separable_jacobian_matches_direct_sum():
    om = const_weight()
    k = Kernel.make(0.05)
    net = parse_scene(CIRCLE, h_max=0.0125)
    V = build_varifold_view(net, om)
    sg = smoothing_grid(V, k, om)
    assert sg.separable
    targets = net.vertices[::8]
    h, J = h_eps_at(V, k, om, targets, want_jacobian=True)
    h_ref, J_ref = _gather_windows(sg, k, targets, want_jacobian=True)
    # the same lattice field read by the product of Gaussian rows and by the
    # kernel truncated at 6 eps: they differ by the Gaussian tail, e^-18 in
    # value and 6 e^-18 ~ 1e-7 in the derivative
    assert np.max(np.abs(h - h_ref)) < 1e-7 * np.max(np.abs(h_ref))
    assert np.max(np.abs(J - J_ref)) < 1e-6 * np.max(np.abs(J_ref))
    # along the unit circle the curvature vector turns at unit rate
    tau = np.column_stack([-targets[:, 1], targets[:, 0]])
    along = np.einsum("qi,qik,qk->q", tau, J, tau)
    assert np.max(np.abs(along + 1.0)) < 0.05


def test_curvature_is_local():
    # tile windows sit at global lattice indices, so a second circle far
    # away leaves the first one's curvature unchanged
    one = """domain plane bbox=(-1.5,-1.5,1.5,1.5)
labels 3
circle center=(0.6,0.6) r=0.3 n=160 inside=1 outside=3
"""
    two = one + "circle center=(-0.93,-0.71) r=0.3 n=160 inside=2 outside=3\n"
    om = const_weight()
    k = Kernel.make(0.05)
    net1 = parse_scene(one, h_max=0.0125)
    net2 = parse_scene(two, h_max=0.0125)
    targets = net1.vertices
    h1 = h_eps_at(build_varifold_view(net1, om), k, om, targets)
    h2 = h_eps_at(build_varifold_view(net2, om), k, om, targets)
    assert np.max(np.abs(h1 - h2)) <= 1e-13 * np.max(np.abs(h1))


@pytest.mark.parametrize("domain", [plane(), torus()])
@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_empty_view_has_zero_curvature(domain, eps):
    # no stored tiles on either kernel path (separable at 0.05, direct at 0.1)
    z = np.zeros((0, 2))
    V = VarifoldView(domain, z, z, z, np.zeros(0), const_weight())
    om, k = const_weight(), Kernel.make(eps)
    h, energy = curvature_and_energy(V, k, om, np.full((3, 2), 0.5))
    assert smoothing_grid(V, k, om).separable == (eps == 0.05)
    assert energy == 0.0 and np.array_equal(h, np.zeros((3, 2)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.floats(0.01, 0.3), st.data())
def test_quad_nodes_match_segment_loop(n, max_h, data):
    coords = st.floats(-2.0, 2.0, allow_nan=False)
    p0 = np.array(data.draw(st.lists(st.tuples(coords, coords),
                                     min_size=n, max_size=n)))
    p1 = np.array(data.draw(st.lists(st.tuples(coords, coords),
                                     min_size=n, max_size=n)))
    # some segments have zero length and get no nodes
    same = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    p1[same] = p0[same]
    d = p1 - p0
    length = np.linalg.norm(d, axis=1)
    tangent = d / np.where(length > 0.0, length, 1.0)[:, None]
    V = VarifoldView(plane(), p0, p1, tangent, length, const_weight())
    got = V.quad_nodes(max_h)
    want = quad_nodes_loop(V, max_h)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_curvature_sup_bound_respected():
    net = parse_scene(CIRCLE, h_max=0.0125)
    om = const_weight()
    V = build_varifold_view(net, om)
    k = Kernel.make(0.05)
    h = h_eps_at(V, k, om, net.vertices)
    assert np.max(np.linalg.norm(h, axis=1)) <= 2.0 / k.eps**2


def _check_windows_against_tree(V, eps, targets):
    """Direct window sums against the KD-tree pair lists on the same lattice.

    The lattice sums add each cell's nodes in the same ascending order, so
    they are bit-equal; the gather may add a point's cells in another order.
    """
    om = const_weight()
    k = Kernel.make(eps)
    sg = smoothing_grid(V, k, om)
    assert not sg.separable
    mass, fv = direct_lattice_sums_tree(V, k, sg.points)
    assert np.array_equal(sg.mass, mass) and np.array_equal(sg.fv, fv)
    if len(sg.points):
        denom = mass + eps * om.inv_value(sg.points)
        energy = float(np.sum(om.value(sg.points) * np.sum(fv * fv, axis=1)
                              / denom) * sg.cell)
    else:
        energy = 0.0
    assert l2_energy(V, k, om) == energy
    h, J = h_eps_at(V, k, om, targets, want_jacobian=True)
    if len(sg.points):
        h_ref, J_ref = direct_gather_tree(V, k, sg, targets)
    else:
        h_ref, J_ref = np.zeros((len(targets), 2)), np.zeros((len(targets), 2, 2))
    assert np.max(np.abs(h - h_ref), initial=0.0) <= 1e-13 * np.max(
        np.abs(h_ref), initial=0.0)
    assert np.max(np.abs(J - J_ref), initial=0.0) <= 1e-13 * np.max(
        np.abs(J_ref), initial=0.0)
    return sg


def _closed_view(domain, verts):
    p0 = domain.wrap(verts)
    p1 = p0 + domain.delta(p0, np.roll(p0, -1, axis=0))
    d = p1 - p0
    length = np.linalg.norm(d, axis=1)
    return VarifoldView(domain, p0, p1, d / length[:, None], length,
                        const_weight())


@st.composite
def direct_scenes(draw):
    """(view, eps, gather targets) on the direct-kernel lattice path."""
    kind = draw(st.sampled_from(["ngon", "torus-circle", "torus-period",
                                 "torus-lines", "empty"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ngon":
        eps = draw(st.sampled_from([0.1, 0.3, 0.5]))
        n = draw(st.integers(3, 48))
        c = rng.uniform(-1.0, 1.0, 2)
        V = _closed_view(plane(), c + ngon_vertices(n, rng.uniform(0.1, 0.8)))
        # off the carrier as far as windows over tiles that are not stored
        off = c + rng.uniform(-3.0, 3.0, (24, 2))
    elif kind == "torus-circle":
        # m = 58 cells per period (phantom cells in the last tile), windows
        # of 51 cells, circles across the seam
        eps = 0.07
        c = rng.uniform(0.0, 1.0, 2) if rng.random() < 0.5 else rng.choice(
            [0.02, 0.98], 2)
        V = _closed_view(torus(), c + ngon_vertices(draw(st.integers(3, 40)),
                                                    rng.uniform(0.05, 0.3)))
        off = rng.uniform(-0.5, 1.5, (24, 2))
    elif kind == "torus-period":
        # m = 40, k = 24: every window is the whole period, shared by all
        # points, across two tiles per axis with phantom cells in the second;
        # n-gons across the seam
        eps = 0.1
        c = rng.choice([0.02, 0.98], 2)
        V = _closed_view(torus(), c + ngon_vertices(draw(st.integers(3, 40)),
                                                    rng.uniform(0.05, 0.3)))
        off = rng.uniform(-0.5, 1.5, (24, 2))
    elif kind == "torus-lines":
        # 2k + 1 > m: every window is the whole period
        eps = 0.2
        net = parse_scene(TORUS_LINE.replace("0.25", repr(rng.uniform(0.0, 0.5))),
                          h_max=0.05)
        V = build_varifold_view(net, const_weight())
        off = rng.uniform(0.0, 1.0, (24, 2))
    else:
        eps = draw(st.sampled_from([0.1, 0.5]))
        z = np.zeros((0, 2))
        V = VarifoldView(plane(), z, z, z, np.zeros(0), const_weight())
        off = rng.uniform(-1.0, 1.0, (8, 2))
    x = V.quad_nodes(min(V.h_sub, eps))[0]
    return V, eps, np.concatenate([V.p0, x[::3], off])


@settings(max_examples=30, deadline=None)
@given(direct_scenes())
def test_windows_match_tree_pairs(scene):
    _check_windows_against_tree(*scene)


def test_chunked_windows_match_tree_pairs():
    # 1,024 nodes of 49 x 49 cells fill many window chunks, and so do the
    # 1,024 node targets of the gather
    net = parse_scene(CIRCLE.replace("r=1 n=256", "r=0.5 n=128"), h_max=0.0125)
    V = build_varifold_view(net, const_weight())
    x = V.quad_nodes(0.0125)[0]
    sg = _check_windows_against_tree(V, 0.1, x)
    w = 2 * sg.lattice.k + 1
    assert len(x) * w * w > 4 * vf._WINDOW_CHUNK
    # the shared whole-period window of the two-line torus: the seeded
    # reduction carries each cell's sum across chunk boundaries
    V = build_varifold_view(parse_scene(TORUS_LINE, h_max=0.05), const_weight())
    x = V.quad_nodes(0.05)[0]
    sg = _check_windows_against_tree(V, 0.2, x)
    chunks = list(vf._windows(sg.lattice, x, Kernel.make(0.2).trunc_radius))
    assert chunks[0][1].ndim == 2 and len(chunks) >= 4
    # trunc_radius^2 = 1 >= 1/2: every minimum-image cell is within reach,
    # so no chunk carries a mask
    assert all(c[5] is None for c in chunks)
    # the torus-period scene shares the whole-period window too, but
    # trunc_radius^2 = 0.36 < 1/2 keeps its mask
    rng = np.random.default_rng(5)
    V = _closed_view(torus(), np.array([0.02, 0.98]) + ngon_vertices(40, 0.3))
    x = V.quad_nodes(0.1)[0]
    sg = _check_windows_against_tree(V, 0.1, np.concatenate(
        [x, rng.uniform(-0.5, 1.5, (24, 2))]))
    chunks = list(vf._windows(sg.lattice, x, Kernel.make(0.1).trunc_radius))
    assert chunks[0][1].ndim == 2 and len(chunks) >= 2
    assert all(c[5] is not None and not c[5].all() for c in chunks)


@pytest.mark.parametrize("scene, h_max, eps, bound_mib", [
    # before the window chunks shrank to 8,192 cells: 4.71 MiB; after: 0.98
    (TORUS_LINE, 0.05, 0.2, 2.0),
    # before: 8.08 MiB; after: 3.16
    (CIRCLE.replace("n=256", "n=512"), 0.0125, 0.1, 5.0),
])
def test_direct_curvature_peak_memory(scene, h_max, eps, bound_mib):
    # the direct sums hold no temporary larger than a window chunk, so one
    # warm call's traced peak stays near the size of the lattice store
    net = parse_scene(scene, h_max=h_max)
    om, k = const_weight(), Kernel.make(eps)
    curvature_and_energy(build_varifold_view(net, om), k, om, net.vertices)
    V = build_varifold_view(net, om)
    tracemalloc.start()
    try:
        curvature_and_energy(V, k, om, net.vertices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not smoothing_grid(V, k, om).separable
    assert peak <= bound_mib * 2**20


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 12), st.integers(0, 10_000))
def test_chain_vertex_ids_match_loops(n, seed):
    nets = [voronoi_scene(n, seed)]
    # a zero-length segment carries no view segment
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    nets.append(LabeledNetwork(plane(), 2, verts, [Edge((0, 1, 2, 3, 0), 1, 2)]))
    for net in nets:
        V = build_varifold_view(net)
        v0, v1 = segment_vertex_ids_loop(net)
        assert V.v0.dtype == v0.dtype and np.array_equal(V.v0, v0)
        assert V.v1.dtype == v1.dtype and np.array_equal(V.v1, v1)
        used = net.used_vertices()
        assert used.dtype == used_vertices_loop(net).dtype
        assert np.array_equal(used, used_vertices_loop(net))
