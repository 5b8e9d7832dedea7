import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grainflow.varifold as vf
from grainflow.domain import plane, torus
from grainflow.kernels import Kernel
from grainflow.network import Edge, LabeledNetwork
from grainflow.scenes import parse_scene, voronoi_scene
from grainflow.varifold import (VarifoldView, build_varifold_view,
                                curvature_and_energy, first_variation,
                                h_eps_at, l2_energy, omega_mass,
                                smoothed_mean_curvature, smoothing_grid,
                                weighted_first_variation)
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

TORUS_CIRCLE = """domain torus
labels 2
circle center=(0.5,0.5) r=0.3 n=256 inside=1 outside=2
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


def _direct_curvature(V, k, om, targets):
    """h_eps and its Jacobian at targets and the energy from the KD-tree
    direct sums of the truncated kernel on the view's lattice cells."""
    sg = smoothing_grid(V, k, om)
    mass, fv = direct_lattice_sums_tree(V, k, sg.points)
    denom = mass + k.eps * om.inv_value(sg.points)
    ref = dataclasses.replace(sg, h_tilde=-fv / denom[:, None])
    h, J = direct_gather_tree(V, k, ref, targets)
    energy = float(np.sum(om.value(sg.points) * np.sum(fv * fv, axis=1)
                          / denom) * sg.cell)
    return h, J, energy


def test_separable_and_direct_paths_agree():
    # the separable Gaussian rows against the direct sums of the kernel
    # truncated at 6 eps (KD-tree pairs) on the same eps/2 lattice, where no
    # annulus correction runs; residual: the Gaussian tail the rows keep
    om = const_weight()
    k = Kernel.make(0.05)
    net = parse_scene(CIRCLE, h_max=0.0125)
    targets = net.vertices[:32]
    V = build_varifold_view(net, om)
    sg = smoothing_grid(V, k, om)
    assert len(sg.stencil[0]) == 0 and sg.lattice.sp == k.eps / 2.0
    h_sep, e_sep = curvature_and_energy(V, k, om, targets)
    h_direct, _, e_direct = _direct_curvature(V, k, om, targets)
    assert np.max(np.abs(h_sep - h_direct)) < 1e-5
    assert e_sep == pytest.approx(e_direct, rel=1e-5)


def test_torus_separable_matches_direct_oracle():
    # eps small enough that a full torus lattice would hold 1.0e6 cells at
    # the spacing 1/ceil(2/eps); the tiles near the carrier hold a fraction
    # of them, and the direct sums run over those
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
    assert len(sg.stencil[0]) == 0 and sg.lattice.sp == 1.0 / np.ceil(2.0 / eps)
    targets = net.vertices[:24]
    h_sep, e_sep = curvature_and_energy(V, k, om, targets)
    h_ref, _, e_ref = _direct_curvature(V, k, om, targets)
    assert e_sep == pytest.approx(e_ref, rel=1e-5)
    assert np.max(np.abs(h_sep - h_ref)) < 1e-4 * np.max(np.abs(h_ref))
    # the curvature of the radius-0.2 circle is resolved at this eps
    assert np.linalg.norm(h_sep, axis=1).max() == pytest.approx(5.0, rel=0.02)


def _eighth_spacing(kernel, domain):
    m = int(np.ceil(8.0 / kernel.eps)) if domain.periodic else 0
    return (1.0 / m if m else kernel.eps / 8.0), m


def _against_eighth(monkeypatch, net, eps):
    """(h, energy) at the vertices on the chosen lattice and on one of
    spacing eps/8, and the chosen SmoothingGrid."""
    om, k = const_weight(), Kernel.make(eps)
    V = build_varifold_view(net, om)
    h, energy = curvature_and_energy(V, k, om, net.vertices)
    sg = smoothing_grid(V, k, om)
    with monkeypatch.context() as mp:
        mp.setattr(vf, "_spacing", _eighth_spacing)
        V_ref = build_varifold_view(net, om)
        h_ref, e_ref = curvature_and_energy(V_ref, k, om, net.vertices)
        ref_sp = smoothing_grid(V_ref, k, om).lattice.sp
        assert ref_sp == _eighth_spacing(k, net.domain)[0] < sg.lattice.sp / 1.5
    return h, energy, h_ref, e_ref, sg


def test_lattice_spacing_error_budget(monkeypatch):
    # The error bound the chosen lattice spacing is accepted on: h_eps at the
    # vertices and the energy against a lattice of spacing eps/8, on a plane
    # circle and an 8-grain torus at eps 0.05.  Measured: h 5.1e-8, energy
    # 1.9e-9 on the circle; 2.3e-7 and 2.2e-8 on the torus (seeds 1, 2, 3
    # and 7 of the same family reach at most 3.7e-6 and 2.9e-7)
    eps = 0.05
    for net in (parse_scene(CIRCLE, h_max=0.0125),
                voronoi_scene(8, 42, h_max=0.0125)):
        h, energy, h_ref, e_ref, sg = _against_eighth(monkeypatch, net, eps)
        m = int(np.ceil(2.0 / eps)) if net.domain.periodic else 0
        assert len(sg.stencil[0]) == 0 and sg.lattice.m == m
        assert sg.lattice.sp == (1.0 / m if m else eps / 2.0)
        assert sg.lattice.S == 16
        assert np.max(np.abs(h - h_ref)) <= 1e-5 * np.max(np.abs(h_ref))
        assert energy == pytest.approx(e_ref, rel=1e-6)
    # where 6 eps > 1/2 the annulus correction runs and the lattice is eps/4,
    # 32-cell tiles.  The 512-gon plane at eps 0.1, measured: h 8.3e-10 of
    # max|h|, energy 4.1e-10; the bounds are the errors of the square-window
    # direct sums that this route replaced, 8.5e-10 and 8.4e-10
    net = parse_scene(CIRCLE.replace("n=256", "n=512"), h_max=0.025)
    h, energy, h_ref, e_ref, sg = _against_eighth(monkeypatch, net, 0.1)
    assert len(sg.stencil[0]) and sg.lattice.sp == 0.1 / 4.0
    assert sg.lattice.S == 32
    assert np.max(np.abs(h - h_ref)) <= 8.4e-10 * np.max(np.abs(h_ref))
    assert energy == pytest.approx(e_ref, rel=8.4e-10)
    # The two-line torus at eps 0.2 (m = 20, every window the whole period):
    # h and the energy vanish by symmetry up to 2.7e-8 and 3e-13, but the
    # eps/8 lattice reads 6.27e-5 and 7.73e-5, since the minimum-image kernel
    # is cut at half the period where it is e^-3 of its peak.  The bounds are
    # the replaced direct sums' errors, 6.2727e-5 and 7.7340e-5
    h, energy, h_ref, e_ref, sg = _against_eighth(
        monkeypatch, parse_scene(TORUS_LINE, h_max=0.05), 0.2)
    assert sg.lattice.whole and sg.lattice.sp == 1.0 / np.ceil(4.0 / 0.2)
    assert np.max(np.abs(h - h_ref)) <= 6.273e-5
    assert abs(energy - e_ref) <= 7.734e-5


def test_separable_jacobian_matches_direct_sum():
    om = const_weight()
    k = Kernel.make(0.05)
    net = parse_scene(CIRCLE, h_max=0.0125)
    V = build_varifold_view(net, om)
    sg = smoothing_grid(V, k, om)
    assert len(sg.stencil[0]) == 0
    targets = net.vertices[::8]
    h, J = h_eps_at(V, k, om, targets, want_jacobian=True)
    h_ref, J_ref = direct_gather_tree(V, k, sg, targets)
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
    # no stored tiles, with and without the annulus correction (eps 0.1, 0.05)
    z = np.zeros((0, 2))
    V = VarifoldView(domain, z, z, z, np.zeros(0), const_weight())
    om, k = const_weight(), Kernel.make(eps)
    h, energy = curvature_and_energy(V, k, om, np.full((3, 2), 0.5))
    assert (len(smoothing_grid(V, k, om).stencil[0]) == 0) == (eps == 0.05)
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


# The separable rows keep the Gaussian beyond tail_radius = 6 eps out to the
# tile window's edge, below e^-18 = 1.5e-8 of its peak at every node, where
# the truncated kernel of the direct sums is cut; relative to the largest
# value, the lattice sums and the gather differ from the KD-tree pairs by
# at most this much (measured over 300 random scenes: 1.6e-7, in the
# Jacobian at eps 0.1)
_TAIL_TOL = 3e-7


def _rel_err(a, b):
    return np.max(np.abs(a - b), initial=0.0) / max(np.max(np.abs(b), initial=0.0),
                                                     1e-300)


def _check_stencil_cover(lat, stencil, pts, kernel):
    """Every lattice cell with 1/2 < r <= tail_radius from a point is one of
    its stencil cells, and its stencil cells are distinct (mod m)."""
    ox, oy = lat.offsets()[stencil[0]], lat.offsets()[stencil[1]]
    reach = int(np.ceil(kernel.tail_radius / lat.sp)) + 1
    for p in pts:
        q = np.mod(p, 1.0) if lat.m else p
        c = np.floor(q / lat.sp).astype(np.int64)
        ux, uy = c[0] + ox, c[1] + oy
        axes = [np.arange(lat.m) if lat.m else np.arange(ci - reach, ci + reach + 1)
                for ci in c]
        if lat.m:
            ux, uy = np.mod(ux, lat.m), np.mod(uy, lat.m)
        have = set(zip(ux.tolist(), uy.tolist()))
        assert len(have) == len(ox)
        gx, gy = np.meshgrid(*axes, indexing="ij")
        d = (np.stack([gx, gy], axis=-1) + 0.5) * lat.sp - q
        if lat.m:
            d -= np.round(d)
        r2 = np.sum(d * d, axis=-1)
        need = (r2 > 0.25) & (r2 <= kernel.tail_radius ** 2)
        assert set(zip(gx[need].tolist(), gy[need].tolist())) <= have


def _check_lattice_against_tree(V, eps, targets):
    """The lattice sums and the gather against KD-tree pair lists on the
    same lattice.

    The annulus correction alone, summed over the stencil cells, matches the
    pairs within tail_radius up to roundoff (measured at most 6.2e-12 of the
    largest value, on the two-line torus, where fv nearly cancels); the
    whole route matches the truncated kernel's pairs up to the Gaussian tail
    (_TAIL_TOL).  Returns the SmoothingGrid.
    """
    om = const_weight()
    k = Kernel.make(eps)
    sg = smoothing_grid(V, k, om)
    lat = sg.lattice
    x, w, tau, _, _ = V.quad_nodes(min(V.h_sub, eps))
    assert (len(sg.stencil[0]) > 0) == (6.0 * eps > 0.5)
    if len(sg.stencil[0]):
        _check_stencil_cover(lat, sg.stencil, np.concatenate([x[::5], targets]), k)
    # the annulus correction's direct sums, in and out of the lattice
    store = np.zeros((3, len(lat.keys) * lat.S * lat.S))
    h_a, J_a = np.zeros((len(targets), 2)), np.zeros((len(targets), 2, 2))
    if len(sg.points):
        vf._accumulate_annulus(lat, sg.stencil, k, x, w, tau, store)
        H = np.zeros(((len(lat.keys) + 1) * lat.S * lat.S, 2))
        H[sg.flat] = sg.h_tilde
        vf._gather_annulus(sg, k, targets, H, h_a, J_a)
    mass_a, fv_a = direct_lattice_sums_tree(V, k, sg.points, annulus=True)
    assert _rel_err(store[0, sg.flat], mass_a) <= 1e-10
    assert _rel_err(store[1:, sg.flat].T, fv_a) <= 1e-10
    if len(sg.points):
        h_ref, J_ref = direct_gather_tree(V, k, sg, targets, annulus=True)
    else:
        h_ref, J_ref = np.zeros((len(targets), 2)), np.zeros((len(targets), 2, 2))
    assert _rel_err(h_a, h_ref) <= 1e-10 and _rel_err(J_a, J_ref) <= 1e-10
    # the whole route
    mass, fv = direct_lattice_sums_tree(V, k, sg.points)
    errs = [_rel_err(sg.mass, mass), _rel_err(sg.fv, fv)]
    if len(sg.points):
        denom = sg.mass + eps * om.inv_value(sg.points)
        energy = float(np.sum(om.value(sg.points) * np.sum(sg.fv * sg.fv, axis=1)
                              / denom) * sg.cell)
        h_ref, J_ref = direct_gather_tree(V, k, sg, targets)
    else:
        energy = 0.0
        h_ref, J_ref = np.zeros((len(targets), 2)), np.zeros((len(targets), 2, 2))
    assert l2_energy(V, k, om) == energy
    h, J = h_eps_at(V, k, om, targets, want_jacobian=True)
    errs += [_rel_err(h, h_ref), _rel_err(J, J_ref)]
    assert max(errs) <= _TAIL_TOL
    return sg


def _closed_view(domain, verts):
    p0 = domain.wrap(verts)
    p1 = p0 + domain.delta(p0, np.roll(p0, -1, axis=0))
    d = p1 - p0
    length = np.linalg.norm(d, axis=1)
    return VarifoldView(domain, p0, p1, d / length[:, None], length,
                        const_weight())


@st.composite
def lattice_scenes(draw):
    """(view, eps, gather targets) with and without the annulus correction."""
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
        # no correction at 6 eps = 0.42; m = 29 cells per period (phantom
        # cells in the last tile), tile windows of 42 cells that wrap past
        # the period, circles across the seam
        eps = 0.07
        c = rng.uniform(0.0, 1.0, 2) if rng.random() < 0.5 else rng.choice(
            [0.02, 0.98], 2)
        V = _closed_view(torus(), c + ngon_vertices(draw(st.integers(3, 40)),
                                                    rng.uniform(0.05, 0.3)))
        off = rng.uniform(-0.5, 1.5, (24, 2))
    elif kind == "torus-period":
        # m = 40, k = 25: every window is the whole period, across two tiles
        # per axis with phantom cells in the second, and the stencil leaves
        # out the corners beyond tail_radius; n-gons across the seam
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
@given(lattice_scenes())
def test_windows_match_tree_pairs(scene):
    _check_lattice_against_tree(*scene)


def test_chunked_windows_match_tree_pairs():
    # 1,024 nodes of 716 stencil cells fill many chunks, and so do the 1,024
    # node targets of the gather
    net = parse_scene(CIRCLE.replace("r=1 n=256", "r=0.5 n=128"), h_max=0.0125)
    V = build_varifold_view(net, const_weight())
    x = V.quad_nodes(0.0125)[0]
    sg = _check_lattice_against_tree(V, 0.1, x)
    assert len(x) * len(sg.stencil[0]) > 4 * vf._CHUNK
    # the whole-period stencil of the two-line torus, each cell of the
    # period once, over several chunks
    V = build_varifold_view(parse_scene(TORUS_LINE, h_max=0.05), const_weight())
    x = V.quad_nodes(0.05)[0]
    sg = _check_lattice_against_tree(V, 0.2, x)
    assert sg.lattice.whole and len(x) * len(sg.stencil[0]) > 2 * vf._CHUNK
    # the torus-period scene: a whole period too, but tail_radius^2 = 0.36
    # < 1/2 leaves the corner cells out of the stencil
    rng = np.random.default_rng(5)
    V = _closed_view(torus(), np.array([0.02, 0.98]) + ngon_vertices(40, 0.3))
    x = V.quad_nodes(0.1)[0]
    sg = _check_lattice_against_tree(V, 0.1, np.concatenate(
        [x, rng.uniform(-0.5, 1.5, (24, 2))]))
    half = sg.lattice.m // 2
    assert sg.lattice.whole and len(x) * len(sg.stencil[0]) > 2 * vf._CHUNK
    ox, oy = sg.lattice.offsets()[sg.stencil[0]], sg.lattice.offsets()[sg.stencil[1]]
    for o in (ox, oy):
        assert o.min() >= -half and o.max() < half
    assert not ((np.abs(ox) >= half - 1) & (np.abs(oy) >= half - 1)).any()


@pytest.mark.parametrize("scene, h_max, eps", [
    (CIRCLE.replace("n=256", "n=128"), 0.05, 0.1),
    (CIRCLE.replace("n=256", "n=64"), 0.05, 0.2),
    (CIRCLE.replace("n=256", "n=32"), 0.1, 0.5),
    (TORUS_CIRCLE, 0.05, 0.2),
], ids=["plane-0.1", "plane-0.2", "plane-0.5", "torus-0.2"])
def test_lattice_fill_matches_direct_sums(scene, h_max, eps):
    # where the annulus correction runs, Gaussian rows plus the correction
    # fill the lattice with the truncated kernel's direct sums (KD-tree
    # pairs) up to the Gaussian tail beyond 6 eps, _TAIL_TOL of the largest
    # value; on the torus at eps 0.2 every cell of the period is within
    # 6 eps, so no tail is left and they agree to roundoff (1e-14)
    net = parse_scene(scene, h_max=h_max)
    om, k = const_weight(), Kernel.make(eps)
    V = build_varifold_view(net, om)
    sg = smoothing_grid(V, k, om)
    assert len(sg.stencil[0]) and sg.lattice.sp == (
        1.0 / np.ceil(4.0 / eps) if net.domain.periodic else eps / 4.0)
    mass, fv = direct_lattice_sums_tree(V, k, sg.points)
    tol = 1e-14 if net.domain.periodic else _TAIL_TOL
    assert _rel_err(sg.mass, mass) <= tol and _rel_err(sg.fv, fv) <= tol


@pytest.mark.parametrize("scene, h_max, eps, bound_mib", [
    # measured: 0.54 MiB
    (TORUS_LINE, 0.05, 0.2, 2.0),
    # measured: 4.60 MiB, of which the lattice fields held on the view are
    # 2.1 and the windows' store index 0.65
    (CIRCLE.replace("n=256", "n=512"), 0.0125, 0.1, 5.0),
])
def test_direct_curvature_peak_memory(scene, h_max, eps, bound_mib):
    # the annulus correction holds no temporary larger than a stencil chunk
    # and the Gaussian rows none larger than one tile's window, so one warm
    # call's traced peak stays near the size of the lattice store
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
    assert len(smoothing_grid(V, k, om).stencil[0])
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
