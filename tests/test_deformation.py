from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grainflow import deformation
from grainflow.domain import plane, torus
from grainflow.network import Edge, LabeledNetwork, region_areas, validate_partition
from grainflow.deformation import (Move, _golden_min, _kink_candidates,
                                   _label_boundary_lengths, _supports_disjoint,
                                   collapse_small_region, length_in_ball,
                                   lipschitz_step, remove_interior_boundary,
                                   split_high_order_junction, verify_admissible)
from grainflow.engine import run, schedule_params
from grainflow.scenes import parse_scene, voronoi_scene
from grainflow.weights import const_weight

from oracles import (CROSS_DIAGONALS, STEINER_SQUARE,
                     collapse_small_region_loop, golden_min_scipy,
                     kink_candidates_loop, label_boundary_lengths_loop,
                     ngon_vertices, remove_interior_boundary_loop,
                     split_high_order_junction_loop)
from test_network import assert_same_net

CROSS = """labels 4
cross at=(0,0) arms=1
"""


def cross_net():
    return parse_scene(CROSS, h_max=0.05)


def find_junction(net, degree=4):
    deg = net.vertex_degrees()
    idx = np.nonzero(deg >= degree)[0]
    assert len(idx) == 1
    return int(idx[0])


def test_length_in_ball_exact():
    v = np.array([[-1.0, 0.0], [1.0, 0.0]])
    net = LabeledNetwork(plane(), 1, v, [Edge((0, 1), 1, 1)])
    assert length_in_ball(net, (0, 0), 0.5) == pytest.approx(1.0, abs=1e-12)
    assert length_in_ball(net, (0, 0.3), 0.5) == pytest.approx(0.8, abs=1e-12)
    assert length_in_ball(net, (0, 2.0), 0.5) == 0.0


def test_identity_always_admissible():
    net = cross_net()
    assert verify_admissible(net, net, Move("identity"), 100).accepted


def test_displacement_violation_rejected():
    net = cross_net()
    j = 4
    move = Move("local-relaxation", np.zeros(2), 0.1,
                displacement=2.0 / (j * j))
    res = verify_admissible(net, net, move, j)
    assert not res.accepted and "displacement" in res.reason


def test_volume_violation_rejected():
    before = parse_scene("domain torus\nlabels 2\n"
                         "line y=0.25 left=1 right=2\nline y=0.75 left=2 right=1\n")
    after = parse_scene("domain torus\nlabels 2\n"
                        "line y=0.8 left=1 right=2\nline y=0.75 left=2 right=1\n")
    move = Move("local-relaxation", np.array([0.5, 0.5]), 0.2, displacement=0.05)
    res = verify_admissible(before, after, move, 3)
    assert not res.accepted and "volume" in res.reason


def test_insufficient_decrease_rejected():
    net = cross_net()
    move = Move("local-relaxation", np.zeros(2), 0.1, displacement=0.0)
    res = verify_admissible(net, net.copy(), move, 4)
    assert not res.accepted and "decrease" in res.reason


@pytest.mark.parametrize("j", [1, 2, 4, 64, 256])
def test_cross_splits_toward_steiner(j):
    net = cross_net()
    out = split_high_order_junction(net, find_junction(net), j)
    assert len(out.accepted_moves) == 1
    move = out.accepted_moves[0]
    assert move.kind == "junction-split"
    assert out.length_decrease_omega > 0.0
    assert verify_admissible(net, out.network, move, j).accepted
    assert validate_partition(out.network).ok
    # two triple junctions and no higher-order vertex remain
    deg = out.network.vertex_degrees()
    assert np.max(deg) == 3 and np.sum(deg == 3) == 2
    # inside the support the two diagonals relax toward the Steiner tree
    lb = length_in_ball(net, move.center, move.radius)
    la = length_in_ball(out.network, move.center, move.radius)
    assert la < lb
    assert la / lb == pytest.approx(STEINER_SQUARE / CROSS_DIAGONALS, rel=0.01)


def test_split_requires_high_order():
    net = cross_net()
    out = split_high_order_junction(net, find_junction(net), 2)
    deg = out.network.vertex_degrees()
    tri = int(np.nonzero(deg == 3)[0][0])
    with pytest.raises(ValueError):
        split_high_order_junction(out.network, tri, 2)


def interior_net():
    # a same-label chord crossing a disk of label 1 inside label 2
    th = 2.0 * np.pi * np.arange(16) / 16
    ring = np.column_stack([np.cos(th), np.sin(th)])
    chord = np.array([[-0.4, 0.0], [0.0, 0.0], [0.4, 0.0]])
    v = np.vstack([ring, chord])
    edges = [Edge(tuple(range(16)) + (0,), 1, 2), Edge((16, 17, 18), 1, 1)]
    return LabeledNetwork(plane((-2, -2, 2, 2)), 2, v, edges)


def test_interior_removal_zero_area_change():
    net = interior_net()
    before = region_areas(net).areas
    out = remove_interior_boundary(net, 1)
    move = out.accepted_moves[0]
    assert move.kind == "interior-boundary-removal"
    assert out.length_decrease_omega == pytest.approx(0.8, abs=1e-12)
    assert all(abs(dv) < 1e-12 for dv in out.volume_changes.values())
    after = region_areas(out.network).areas
    for lab in before:
        assert after[lab] == pytest.approx(before[lab], abs=1e-12)
    # a long removal is only admissible at small j (displacement <= 1/j^2)
    assert verify_admissible(net, out.network, move, 1).accepted
    assert not verify_admissible(net, out.network, move, 4).accepted


def island_scene(r=0.004, n=24):
    return parse_scene(
        "domain plane bbox=(-1,-1,1,1)\nlabels 2\n"
        "circle center=(0,0) r=%g n=%d inside=1 outside=2\n" % (r, n),
        h_max=0.05)


def test_island_collapse():
    net = island_scene()
    j = 2
    before_mass = net.total_length()
    before_area = region_areas(net).areas[1]
    out = collapse_small_region(net, 1, j)
    move = out.accepted_moves[0]
    assert move.kind == "small-region-collapse"
    assert verify_admissible(net, out.network, move, j).accepted
    # the whole loop disappears: local boundary mass drops by the loop length
    assert out.length_decrease_omega == pytest.approx(before_mass, rel=1e-12)
    assert length_in_ball(out.network, move.center, move.radius) == 0.0
    # area transfer bounded by the isoperimetric constant times length^2
    assert abs(out.volume_changes[1]) == pytest.approx(before_area, rel=1e-12)
    assert abs(out.volume_changes[1]) <= 1.0 * before_mass ** 2


def test_island_too_large_returns_identity():
    net = island_scene(r=0.3, n=64)
    out = collapse_small_region(net, 1, 2)
    assert out.accepted_moves[0].is_identity
    assert out.network.total_length() == pytest.approx(net.total_length())


def test_lipschitz_step_never_increases_mass():
    om = const_weight()
    for scene in (cross_net(), island_scene()):
        before = scene.total_length()
        out = lipschitz_step(scene, 2, om)
        assert out.network.total_length() <= before + 1e-12
        assert out.length_decrease_omega >= 0.0
        # bookkeeping matches independent re-measurement
        assert before - out.network.total_length() == pytest.approx(
            out.length_decrease_omega, abs=1e-9)


def test_supports_overlapping_across_torus_seam():
    # 0.02 apart through x=0 on the torus, 0.98 apart in the plane
    a = Move("local-relaxation", np.array([0.01, 0.5]), 0.03)
    b = Move("local-relaxation", np.array([0.99, 0.5]), 0.03)
    assert not _supports_disjoint(a, [b], torus())
    assert _supports_disjoint(a, [b], plane())


# ---- the array scans of the greedy pass against their loop references -----------

# a square with one spike on its top side: the spike tip is the only kink
SPIKED_SQUARE = """labels 2
edge left=1 right=2 points=(0,0);(0.3,0);(0.3,0.3);(0.16,0.3);(0.15,0.34);(0.14,0.3);(0,0.3);(0,0)
"""


def jittered_ngon(n, jitter, seed):
    pts = ngon_vertices(n) + jitter * np.random.default_rng(seed).uniform(
        -1.0, 1.0, size=(n, 2))
    chain = tuple(range(n)) + (0,)
    # label 3 has no boundary edge: the gate must skip it
    return LabeledNetwork(plane((-1.5, -1.5, 1.5, 1.5)), 3, pts,
                          [Edge(chain, 1, 2)])


scenes = st.one_of(
    st.builds(lambda n, seed: voronoi_scene(n, seed),
              st.integers(3, 12), st.integers(0, 10_000)),
    st.builds(jittered_ngon, st.integers(3, 600),
              st.sampled_from([0.0, 1e-9, 1e-3, 0.05]),
              st.integers(0, 10_000)),
    st.just(SPIKED_SQUARE).map(parse_scene),
    st.builds(interior_net))  # a same-label chord counts once for label 1


@settings(max_examples=40, deadline=None)
@given(net=scenes, threshold=st.sampled_from([0.9, 0.99999, 1.0]))
@example(net=jittered_ngon(512, 0.0, 0), threshold=1.0)
@example(net=jittered_ngon(512, 0.0, 0), threshold=0.99999)
@example(net=parse_scene(SPIKED_SQUARE), threshold=0.9)
@example(net=interior_net(), threshold=0.9)
def test_array_scans_match_loops(net, threshold):
    # candidates equal as tuples, cosines included; a regular 512-gon at
    # threshold 1 has ties that an ulp of drift would reorder
    assert _kink_candidates(net, threshold) == kink_candidates_loop(
        net, threshold)
    blen = _label_boundary_lengths(net)
    ref = label_boundary_lengths_loop(net)
    for label in range(1, net.n_labels + 1):
        if label in ref:
            assert abs(blen[label] - ref[label]) <= 1e-12 * ref[label]
        else:
            assert blen[label] == np.inf


def test_lipschitz_step_relaxes_spike():
    net = parse_scene(SPIKED_SQUARE, h_max=0.05)
    out = lipschitz_step(net, 2)
    assert [m.kind for m in out.accepted_moves] == ["local-relaxation"]

    def length(n):
        return sum(float(np.hypot(*(n.vertices[b] - n.vertices[a])))
                   for e in n.edges for a, b in zip(e.chain[:-1], e.chain[1:]))

    assert out.length_decrease_omega == pytest.approx(
        length(net) - length(out.network), abs=1e-9)
    assert out.length_decrease_omega == pytest.approx(0.06246, abs=1e-5)


# ---- the golden-section search against SciPy's --------------------------------


def golden_reference(f, lo, hi):
    """SciPy's result; without a bracket, the least of the three points."""
    try:
        return golden_min_scipy(f, lo, hi)
    except ValueError:
        t = min((lo, 0.5 * (lo + hi), hi), key=f)
        return t, float(f(t))


def checked_golden(calls):
    """_golden_min that records whether each call matched the reference."""
    def spy(f, lo, hi):
        got = _golden_min(f, lo, hi)
        calls.append(got == golden_reference(f, lo, hi))
        return got
    return spy


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(-1.0, 1.0), width=st.floats(1e-9, 2.0),
       at=st.floats(0.0, 1.0), curve=st.floats(0.1, 10.0),
       kind=st.sampled_from(["quadratic", "abs", "wavy", "flat"]))
def test_golden_min_matches_scipy(lo, width, at, curve, kind):
    hi = lo + width
    c = lo + at * width
    f = {"quadratic": lambda t: curve * (t - c) ** 2,
         "abs": lambda t: abs(t - c) + 0.5,
         "wavy": lambda t: (t - c) ** 2 + 0.1 * width**2 * np.sin(curve * t / width),
         "flat": lambda t: 1.0}[kind]
    assert _golden_min(f, lo, hi) == golden_reference(f, lo, hi)


def star_net(angles, lengths, center, periodic):
    """One junction at `center` with straight arms; labels 1..d around it."""
    ang = np.radians(angles)
    arms = np.asarray(lengths)[:, None] * np.column_stack(
        [np.cos(ang), np.sin(ang)])
    d = len(angles)
    dom = torus() if periodic else plane()
    v = dom.wrap(np.vstack([center, np.asarray(center) + arms]))
    edges = [Edge((0, k + 1), 1 + k, 1 + (k - 1) % d) for k in range(d)]
    return LabeledNetwork(dom, d, v, edges)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([4, 5]), data=st.data(),
       j=st.sampled_from([1, 2, 4, 16]), periodic=st.booleans())
def test_junction_split_golden_matches_scipy(d, data, j, periodic):
    gaps = data.draw(st.lists(st.floats(5.0, 100.0), min_size=d, max_size=d))
    angles = np.cumsum(gaps) * 360.0 / sum(gaps) + data.draw(
        st.floats(0.0, 360.0))
    lengths = data.draw(st.lists(st.floats(0.002, 0.05), min_size=d,
                                 max_size=d))
    center = data.draw(st.sampled_from([(0.5, 0.5), (0.01, 0.99), (0.0, 0.0)]))
    net = star_net(angles, lengths, center, periodic)
    calls = []
    with mock.patch.object(deformation, "_golden_min", checked_golden(calls)):
        out = split_high_order_junction(net, 0, j)
    assert calls and all(calls)
    # the arm and bridge edit against the tuple-editing reference
    assert_same_outcome(out, split_high_order_junction_loop(net, 0, j))


def test_grain_scene_splits_golden_matches_scipy():
    net = voronoi_scene(32, 42, h_max=0.0125)
    sched = schedule_params("practical", 2, eps=0.05, dt=1e-4, steps=20,
                            h_max=0.0125)
    calls = []
    with mock.patch.object(deformation, "_golden_min", checked_golden(calls)):
        run(net, sched, frame_every=100)
    assert len(calls) >= 2 and all(calls)


def test_split_with_a_pairing_that_cannot_shorten():
    # the 10 and 180 degree arms have no shorter bridge: f(mid) > f(0), so
    # there is no golden bracket, on which SciPy's search raises ValueError
    net = star_net([0.0, 10.0, 180.0, 190.0], [0.01] * 4, (0.5, 0.5), True)
    out = split_high_order_junction(net, 0, 2)
    assert [m.kind for m in out.accepted_moves] == ["junction-split"]
    step = lipschitz_step(net, 2)
    assert step.network.total_length() <= net.total_length()
    # no bracket: the least end point, lo on ties
    assert _golden_min(lambda t: t * t + 1.0, 0.0, 1.0) == (0.0, 1.0)
    assert _golden_min(lambda t: 2.0, 0.0, 1.0) == (0.0, 2.0)
    assert _golden_min(lambda t: -t, 0.0, 1.0) == (1.0, -1.0)


# ---- the move edits against the tuple-editing references ------------------------


def assert_same_outcome(got, want):
    assert_same_net(got.network, want.network)
    assert got.length_decrease_omega == want.length_decrease_omega
    assert got.volume_changes == want.volume_changes
    assert len(got.accepted_moves) == len(want.accepted_moves)
    for g, w in zip(got.accepted_moves, want.accepted_moves):
        assert g.kind == w.kind
        assert np.array_equal(g.center, w.center)
        assert (g.radius, g.displacement, g.length_before, g.length_after) == (
            w.radius, w.displacement, w.length_before, w.length_after)


def interior_path_net():
    """A disk of label 1 whose boundary is seven edges, crossed by a path of
    three same-label edges (ids 7, 8, 9): removing the first prunes the
    other two, and Python's set {7, 8, 9} iterates as 8, 9, 7."""
    th = 2.0 * np.pi * np.arange(14) / 14
    ring = np.column_stack([np.cos(th), np.sin(th)])
    path = np.array([[-0.4, 0.1], [-0.1, 0.13], [0.15, 0.07], [0.4, 0.1]])
    edges = [Edge((2 * k, 2 * k + 1, (2 * k + 2) % 14), 1, 2) for k in range(7)]
    edges += [Edge((14 + k, 15 + k), 1, 1) for k in range(3)]
    return LabeledNetwork(plane((-2, -2, 2, 2)), 2, np.vstack([ring, path]),
                          edges)


@pytest.mark.parametrize("j", [1, 2, 4, 64, 256])
def test_moves_match_tuple_edits(j):
    net = cross_net()
    assert_same_outcome(split_high_order_junction(net, find_junction(net), j),
                        split_high_order_junction_loop(net, find_junction(net),
                                                       j))
    assert_same_outcome(remove_interior_boundary(interior_net(), 1),
                        remove_interior_boundary_loop(interior_net(), 1))
    for island in (island_scene(), island_scene(r=0.3, n=64)):
        assert_same_outcome(collapse_small_region(island, 1, j),
                            collapse_small_region_loop(island, 1, j))
    # the greedy pass over each scene, with the reference moves swapped in
    for scene in (cross_net(), island_scene(), interior_net(),
                  parse_scene(SPIKED_SQUARE)):
        got = lipschitz_step(scene, j)
        with with_reference_moves():
            assert_same_outcome(got, lipschitz_step(scene, j))


def with_reference_moves():
    return mock.patch.multiple(deformation, **{
        f.__name__[:-len("_loop")]: f for f in (
            remove_interior_boundary_loop, collapse_small_region_loop,
            split_high_order_junction_loop)})


def test_pruned_removal_sums_in_edge_order():
    # the pruned path's length and enclosing ball now come from its edges in
    # ascending order; the set order of the reference moves them by an ulp
    net = interior_path_net()
    got = remove_interior_boundary(net, 7)
    want = remove_interior_boundary_loop(net, 7)
    assert_same_net(got.network, want.network)
    assert len(got.network.edges) == 7
    g, w = got.accepted_moves[0], want.accepted_moves[0]
    assert got.length_decrease_omega == pytest.approx(
        want.length_decrease_omega, rel=4e-16, abs=0.0)
    assert np.allclose(g.center, w.center, rtol=0.0, atol=2e-16)
    assert g.radius == pytest.approx(w.radius, rel=4e-16, abs=0.0)
    assert abs(g.length_after - w.length_after) <= 4e-16
    step = lipschitz_step(net, 1)
    with with_reference_moves():
        assert_same_net(step.network, lipschitz_step(net, 1).network)
