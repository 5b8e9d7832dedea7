import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grainflow.domain import plane, torus
from grainflow.network import (Edge, LabeledNetwork, MeshScale,
                               _nearest_boundary_labels, _pairs_within,
                               label_at_points, region_areas, region_loops,
                               rebuild, remesh, shoelace, validate_partition,
                               weld_junctions)
from grainflow.scenes import (_weld_coincident, honeycomb_scene, parse_scene,
                              voronoi_scene)

from oracles import (compact_loop, edge_lengths_loop, ngon_area, ngon_vertices,
                     outgoing_ends_loop, pairs_within_tree, region_loops_walk,
                     remesh_loop, segment_arrays_loop, validate_partition_loop,
                     vertex_degrees_loop, weld_coincident_loop,
                     weld_junctions_recursive)

TWO_BANDS = """domain torus
labels 2
line y=0.25 left=1 right=2
line y=0.75 left=2 right=1
"""


def circle_net(n=64, r=1.0, h_max=0.05):
    return parse_scene(
        "domain plane bbox=(-1.5,-1.5,1.5,1.5)\nlabels 2\n"
        "circle center=(0,0) r=%g n=%d inside=1 outside=2\n" % (r, n),
        h_max=h_max)


def test_two_band_areas_exact():
    net = parse_scene(TWO_BANDS)
    tab = region_areas(net)
    assert tab.areas[1] == pytest.approx(0.5, abs=1e-12)
    assert tab.areas[2] == pytest.approx(0.5, abs=1e-12)
    assert sum(tab.areas.values()) == pytest.approx(1.0, abs=1e-12)


def test_polygon_area_exact():
    net = circle_net(n=64)
    tab = region_areas(net)
    assert tab.areas[1] == pytest.approx(ngon_area(64), abs=1e-12)
    # only the two 0.5 x 3 strips beside the carrier (x in [-1, 1]) have no
    # crossing to claim them; every gap between crossings is attributed
    assert tab.residual == 2 * 0.5 * 3.0


def test_torus_uncovered_slabs_take_their_region_label():
    # a diamond around the torus corner leaves the slabs of x in (0.25, 0.75)
    # without crossings; they belong to the outside region
    v = np.mod([[0.25, 0.0], [0.0, 0.25], [-0.25, 0.0], [0.0, -0.25]], 1.0)
    net = LabeledNetwork(torus(), 2, v, [Edge((0, 1, 2, 3, 0), 1, 2)])
    tab = region_areas(net)
    assert tab.areas == {1: 0.125, 2: 0.875}
    assert tab.residual <= 1e-12


def test_voronoi_areas_tile_torus():
    net = voronoi_scene(8, 42)
    tab = region_areas(net)
    assert len(tab.areas) == 8
    assert all(a > 0 for a in tab.areas.values())
    assert sum(tab.areas.values()) == pytest.approx(1.0, abs=1e-9)
    assert tab.residual <= 1e-12


def test_validate_accepts_generated_scenes():
    assert validate_partition(parse_scene(TWO_BANDS)).ok
    assert validate_partition(circle_net()).ok
    assert validate_partition(voronoi_scene(8, 42)).ok


def test_validate_accepts_fine_sampling():
    # densely sampled chains put many vertices inside the weld tolerance;
    # graph-near points must not be flagged as duplicates
    net = parse_scene(TWO_BANDS, h_max=0.0005)
    assert validate_partition(net).ok


def test_validate_flags_near_self_touch():
    # a hairpin whose tips approach far closer than the weld tolerance while
    # the connecting path is long
    v = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.3], [0.0001, 0.3],
                  [0.0001, 0.0004], [0.0, 0.0004]])
    # chain from (0,0) around the hairpin back next to itself
    e = Edge((0, 1, 2, 3, 4, 5), 1, 1)
    net = LabeledNetwork(plane(), 2, v, [e])
    rep = validate_partition(net)
    assert not rep.ok
    assert any("weld tolerance" in msg for _, _, msg in rep.violations)


def test_validate_flags_crossings():
    v = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    net = LabeledNetwork(plane(), 2, v,
                         [Edge((0, 1), 1, 1), Edge((2, 3), 1, 1)])
    rep = validate_partition(net)
    assert any("crossing" in msg for _, _, msg in rep.violations)


def rebuilt(net, vertices=None, edges=None):
    return LabeledNetwork(net.domain, net.n_labels,
                          net.vertices if vertices is None else vertices,
                          list(net.edges) if edges is None else edges, net.scale)


def corrupted(kind):
    """A scene with one kind of defect; see test_validate_violations_pinned."""
    vor = voronoi_scene(8, 42)
    e0 = vor.edges[0]
    if kind == "crossing":  # an interior boundary across a band's line
        net = parse_scene(TWO_BANDS)
        n = len(net.vertices)
        return rebuilt(net, np.vstack([net.vertices, [[0.51, 0.1], [0.52, 0.4]]]),
                       list(net.edges) + [Edge((n, n + 1), 1, 1)])
    if kind == "near-duplicate":  # one grain's vertex next to another's
        v = vor.vertices.copy()
        a, b = vor.edges[3].chain[2], vor.edges[20].chain[2]
        v[a] = np.mod(v[b] + [1e-4, 0.0], 1.0)
        return rebuilt(vor, v)
    if kind == "junction-labels":  # one edge's sides swapped
        return rebuilt(vor, edges=[Edge(e0.chain, e0.right, e0.left)]
                       + list(vor.edges[1:]))
    if kind == "free-end":  # one grain boundary stops short of its junction
        return rebuilt(vor, edges=[Edge(e0.chain[:-1], e0.left, e0.right)]
                       + list(vor.edges[1:]))
    raise ValueError(kind)


@pytest.mark.parametrize("kind, want", [
    ("crossing", [("edge", 0, "segment crossing with edge 2")]),
    ("near-duplicate",
     [("vertex", 57, "closer than weld tolerance to vertex 159")]),
    ("junction-labels", [("vertex", 0, "inconsistent labels around junction"),
                         ("vertex", 1, "inconsistent labels around junction")]),
    ("free-end", [("vertex", 27, "free end on non-interior edge")]),
])
def test_validate_violations_pinned(kind, want):
    # the violation lists the per-edge loops produced, pinned
    assert validate_partition(corrupted(kind)).violations == want


def broken(net, kind, k):
    """net with one defect of the given kind at the edge or vertex picked by
    k, as in corrupted."""
    ei = k % len(net.edges)
    e = net.edges[ei]
    edges = list(net.edges)
    if kind == "crossing":  # an interior boundary across one segment
        a, b = net.vertices[e.chain[0]], net.vertices[e.chain[1]]
        d = net.domain.delta(a, b)
        m = a + 0.5 * d
        t = 0.01 * np.array([-d[1], d[0]]) / np.linalg.norm(d)
        n = len(net.vertices)
        return rebuilt(net, net.domain.wrap(np.vstack([net.vertices,
                                                       m - t, m + t])),
                       edges + [Edge((n, n + 1), e.left, e.left)])
    if kind == "near-duplicate":  # one vertex next to another
        v = net.vertices.copy()
        used = net.used_vertices()
        a, b = used[k % len(used)], used[(k // 7 + 1) % len(used)]
        v[a] = net.domain.wrap(v[b] + [1e-4, 0.0])
        return rebuilt(net, v)
    if kind == "junction-labels":  # one edge's sides swapped
        edges[ei] = Edge(e.chain, e.right, e.left)
    elif kind == "free-end":  # one chain stops short of its last vertex
        edges[ei] = Edge(e.chain[:-1], e.left, e.right)
    return rebuilt(net, edges=edges)


def plane_lines(ys, cut):
    """Horizontal lines across the box [0,1]^2, free ends on its sides; the
    line `cut` (if any) stops inside the box."""
    verts, edges = [], []
    for i, y in enumerate(ys):
        x1 = 0.6 if i == cut else 1.0
        verts += [(0.0, y), (0.5, y), (x1, y)]
        edges.append(Edge((3 * i, 3 * i + 1, 3 * i + 2), i + 1, i + 2))
    return LabeledNetwork(plane((0, 0, 1, 1)), len(ys) + 1, np.array(verts),
                          edges)


_broken_voronoi = st.builds(
    broken, st.builds(voronoi_scene, st.integers(3, 12), st.integers(0, 10_000)),
    st.sampled_from(["crossing", "near-duplicate", "junction-labels",
                     "free-end"]),
    st.integers(0, 10**6))
_plane_lines = st.builds(
    plane_lines, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5,
                          unique=True), st.integers(-1, 4))


@settings(max_examples=40, deadline=None)
@given(net=st.one_of(_broken_voronoi, _plane_lines))
def test_validate_matches_loop(net):
    assert validate_partition(net).violations == validate_partition_loop(net)


# torus coordinates on and across the seam (mod 1 takes -1e-12 next to 1.0)
_seam = st.sampled_from([0.0, 0.5, 0.25, 1e-12, -1e-12, 1.0 - 2.0**-53,
                         0.5 + 1e-12])
_torus_points = st.lists(st.tuples(
    st.one_of(st.floats(0.0, 1.0, exclude_max=True), _seam),
    st.one_of(st.floats(0.0, 1.0, exclude_max=True), _seam)),
    min_size=1, max_size=60)
_plane_points = st.lists(st.tuples(
    st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1e-9, 0.5])),
    st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1e-9, 0.5]))),
    min_size=1, max_size=60)
_radii = st.one_of(st.floats(1e-9, 0.6),
                   st.sampled_from([1e-9, 0.25, 0.5, 0.6]))


@settings(max_examples=300, deadline=None)
@given(cloud=st.one_of(st.tuples(_torus_points, st.just(True)),
                       st.tuples(_plane_points, st.just(False))),
       r=_radii)
@example(cloud=([(0.3, 0.3)], True), r=0.5)
@example(cloud=([(0.3, 0.3)] * 4 + [(0.7, 0.3)], True), r=0.4)
@example(cloud=([(0.0, 0.5), (0.5, 0.5), (-1e-12, 0.5)], True), r=0.5)
@example(cloud=([(0.0, 0.0), (0.25, 0.0), (0.5, 0.0)], False), r=0.25)
@example(cloud=([(1.0, 1.0)] * 3, False), r=1e-9)
def test_pairs_within_matches_kdtree(cloud, r):
    pts, periodic = np.array(cloud[0], dtype=float), cloud[1]
    got = _pairs_within(pts, r, periodic)
    assert got.tolist() == [list(p) for p in
                            sorted(pairs_within_tree(pts, r, periodic))]


@pytest.mark.parametrize("periodic", [True, False])
def test_pairs_within_matches_kdtree_on_large_clouds(periodic):
    # many occupied cells, with runs of duplicates and near-duplicates
    rng = np.random.default_rng(5)
    pts = rng.random((3000, 2)) * (1.0 if periodic else 3.0)
    pts[1000:1100] = pts[:100]
    pts[1100:1200] = pts[:100] + 1e-10
    for r in (1e-9, 1e-3, 0.02, 0.1):
        got = _pairs_within(pts, r, periodic)
        assert got.tolist() == [list(p) for p in
                                sorted(pairs_within_tree(pts, r, periodic))]


def test_remesh_splitting_preserves_areas_exactly():
    net = circle_net(n=32)
    before = region_areas(net).areas
    fine = remesh(net, h_min=0.0, h_max=0.01)
    after = region_areas(fine).areas
    for lab in before:
        assert after[lab] == pytest.approx(before[lab], abs=1e-12)
    assert np.max(fine.segment_lengths()) <= 0.01 + 1e-12


def test_remesh_merging_respects_h_min():
    net = circle_net(n=256, h_max=0.05)
    coarse = remesh(net, h_min=0.04, h_max=0.1)
    assert len(coarse.vertices) < len(net.vertices)
    assert validate_partition(coarse).ok
    # merging moves the boundary by at most h_min per dropped vertex
    a0 = region_areas(net).areas[1]
    a1 = region_areas(coarse).areas[1]
    assert abs(a1 - a0) < 0.04 * net.total_length()


def test_remesh_keeps_segments_of_length_h_max():
    # the sampled lines have segments of length h_max up to roundoff
    net = parse_scene(TWO_BANDS, h_max=0.05)
    assert len(net.segment_lengths()) == 40
    assert len(remesh(net).segment_lengths()) == 40


def assert_same_net(got, want):
    """Equal vertex bits and chain tuples, and chain arrays (built by the
    edit) equal to those the constructor computes from the Edge view."""
    assert same_bits(got.vertices, want.vertices)
    assert got.edges == want.edges
    fresh = rebuilt(got)
    for a, b in zip(got.chain_entries() + (got.edge_labels(),),
                    fresh.chain_entries() + (fresh.edge_labels(),)):
        assert same_bits(a, b)


def jittered(net, amp, seed):
    """net with every vertex moved by up to amp in each coordinate."""
    noise = np.random.default_rng(seed).uniform(-amp, amp, net.vertices.shape)
    return rebuilt(net, net.domain.wrap(net.vertices + noise))


def small_loop(n, r):
    """A closed n-gon of radius r on the torus, inside label 2."""
    v = np.mod(0.5 + ngon_vertices(n, r), 1.0)
    return LabeledNetwork(torus(), 2, v, [Edge(tuple(range(n)) + (0,), 2, 1)])


def with_unused(net, k, seed):
    """net with k unused vertices inserted among its own."""
    rng = np.random.default_rng(seed)
    slot = np.sort(rng.integers(0, len(net.vertices) + 1, size=k))
    v = np.insert(net.vertices, slot, rng.random((k, 2)), axis=0)
    idx = np.delete(np.arange(len(v)), slot + np.arange(k))
    return rebuilt(net, v, [Edge(tuple(int(idx[i]) for i in e.chain), e.left,
                                 e.right) for e in net.edges])


# (h_min, h_max): no merging, the default, h_min above h_max / 2, and the
# scenes' own fine mesh
MESH_PAIRS = [(0.0, 0.05), (0.01, 0.05), (0.03, 0.05), (0.0, 0.0125),
              (0.008, 0.0125)]

_meshed = st.one_of(
    st.builds(jittered,
              st.builds(voronoi_scene, st.sampled_from([4, 8, 32]),
                        st.integers(0, 10_000),
                        st.sampled_from([0.05, 0.0125])),
              st.sampled_from([0.0, 0.002, 0.004]), st.integers(0, 2**32 - 1)),
    st.builds(jittered, st.sampled_from([honeycomb_scene(3, 2),
                                         circle_net(n=512),
                                         parse_scene(TWO_BANDS)]),
              st.sampled_from([0.0, 0.002, 0.004]), st.integers(0, 2**32 - 1)),
    st.builds(small_loop, st.integers(3, 12), st.floats(5e-4, 0.01)))


@settings(max_examples=40, deadline=None)
@given(net=_meshed, mesh=st.sampled_from(MESH_PAIRS))
@example(net=parse_scene(TWO_BANDS), mesh=(0.01, 0.05))  # at exactly h_max
@example(net=small_loop(6, 0.002), mesh=(0.01, 0.05))  # kept as a hexagon
@example(net=small_loop(12, 0.004), mesh=(0.01, 0.05))  # down to a square
def test_remesh_and_compact_match_loops(net, mesh):
    assert_same_net(remesh(net, *mesh), remesh_loop(net, *mesh))
    padded = with_unused(net, 5, len(net.vertices))
    for n in (net, padded):  # a rebuild on the network's own chains
        every, first, last = n.chain_entries()
        assert_same_net(rebuild(n, n.vertices, every, last - first + 1,
                                n.edge_labels()), compact_loop(n))


def test_remesh_keeps_a_small_loop_a_triangle_at_least():
    for n in (3, 6, 12):
        out = remesh(small_loop(n, 0.002), h_min=0.01)
        assert len(out.edges[0].chain) >= 4


_POOL = [(0.0, 0.0), (1e-10, 0.0), (-1e-10, 0.0), (0.5, 0.5),
         (0.5 + 4e-10, 0.5), (0.5 + 6e-10, 0.5 - 1e-12), (0.25, 0.75),
         (2.5e-9, 0.0), (0.75, 0.25)]


@settings(max_examples=60, deadline=None)
@given(chains=st.lists(st.lists(st.sampled_from(_POOL), min_size=2,
                                max_size=5), min_size=1, max_size=6))
def test_weld_coincident_matches_loop(chains):
    # each chain has its own copies of its points, as the scene builder
    # makes them; points on one 1e-9 grid point are one vertex after the weld
    verts = [p for c in chains for p in c]
    stop = np.cumsum([len(c) for c in chains])
    edges = [Edge(tuple(range(b - len(c), b)), 1, 2)
             for c, b in zip(chains, stop.tolist())]
    net = LabeledNetwork(plane(), 2, np.array(verts), edges)
    assert_same_net(_weld_coincident(net), weld_coincident_loop(net))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=4, max_value=10))
def test_remesh_split_invariance_random_grains(seed, n):
    net = voronoi_scene(n, seed)
    before = region_areas(net).areas
    after = region_areas(remesh(net, h_min=0.0, h_max=0.013)).areas
    for lab in before:
        assert after[lab] == pytest.approx(before[lab], abs=1e-11)


def test_label_at_points_two_bands():
    net = parse_scene(TWO_BANDS)
    pts = np.array([[0.5, 0.5], [0.5, 0.9], [0.1, 0.1], [0.9, 0.6]])
    assert list(label_at_points(net, pts)) == [1, 2, 2, 1]


def test_label_at_points_chunking_consistent():
    net = circle_net(n=128, h_max=0.0125)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.4, 1.4, size=(5000, 2))
    bulk = label_at_points(net, pts)
    few = np.concatenate([label_at_points(net, pts[i:i + 100])
                          for i in range(0, len(pts), 100)])
    assert np.array_equal(bulk, few)


# the slab sweep must agree with the nearest-boundary rule away from ties


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=3, max_value=12),
       pts_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sweep_labels_match_nearest_boundary_voronoi(seed, n, pts_seed):
    net = voronoi_scene(n, seed)
    pts = np.random.default_rng(pts_seed).uniform(-0.5, 1.5, size=(400, 2))
    assert np.array_equal(label_at_points(net, pts),
                          _nearest_boundary_labels(net, pts))


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=3, max_value=96),
       r=st.floats(min_value=0.1, max_value=1.0),
       pts_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sweep_labels_match_nearest_boundary_ngon(n, r, pts_seed):
    net = circle_net(n=n, r=r)
    # points fill the box, also beyond the carrier's x-range [-r, r]
    pts = np.random.default_rng(pts_seed).uniform(-1.5, 1.5, size=(400, 2))
    assert np.array_equal(label_at_points(net, pts),
                          _nearest_boundary_labels(net, pts))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=3, max_value=12),
       pts_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sweep_labels_on_vertex_slab_edges(seed, n, pts_seed):
    # a point straight above or below a vertex sits on a slab edge, where the
    # crossings that start at that vertex all have the vertex's height (a
    # 4n-gon has no vertical chord, on which both rules would be ambiguous)
    rng = np.random.default_rng(pts_seed)
    for net, lo, hi in ((voronoi_scene(n, seed), 0.0, 1.0),
                        (circle_net(n=4 * n, r=0.7), -1.5, 1.5)):
        x = net.vertices[rng.integers(len(net.vertices), size=400), 0]
        pts = np.column_stack([x, rng.uniform(lo, hi, size=400)])
        assert np.array_equal(label_at_points(net, pts),
                              _nearest_boundary_labels(net, pts))


@pytest.mark.parametrize("periodic", [False, True])
def test_sweep_labels_next_to_a_vertex_on_either_slab_edge(periodic):
    # within 1e-12 of a diamond's tips the two crossings meeting there tie in
    # height: the steeper lies highest right of the left tip, lowest left of
    # the right tip
    c = np.array([0.5, 0.5]) if periodic else np.zeros(2)
    th = 0.5 * np.pi * np.arange(4)
    verts = c + 0.25 * np.column_stack([np.cos(th), np.sin(th)]) + [1e-15, 0.0]
    net = LabeledNetwork(torus() if periodic else plane((-1, -1, 2, 2)), 2,
                         verts, [Edge((0, 1, 2, 3, 0), 1, 2)])
    d = np.array([5e-16, 1e-14, 1e-13, 1e-12])
    x = np.concatenate([verts[0, 0] - d, verts[2, 0] + d])
    pts = np.column_stack([np.tile(x, 3), np.repeat(c[1] + np.array(
        [-0.4, 0.0, 0.4]), len(x))])
    assert np.array_equal(label_at_points(net, pts),
                          _nearest_boundary_labels(net, pts))


@settings(max_examples=10, deadline=None)
@given(pts_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sweep_labels_match_nearest_boundary_two_bands(pts_seed):
    net = parse_scene(TWO_BANDS)
    # points given outside the fundamental cell wrap into it
    pts = np.random.default_rng(pts_seed).uniform(-2.0, 3.0, size=(400, 2))
    assert np.array_equal(label_at_points(net, pts),
                          _nearest_boundary_labels(net, pts))


def test_weld_junctions_collapses_short_bridge():
    # two triple junctions connected by a chain shorter than the tolerance
    d = 1e-3  # below weld = h_min / 4 = 2.5e-3
    v = np.array([[0.4, 0.5], [0.4 + d, 0.5],
                  [0.3, 0.6], [0.3, 0.4], [0.5 + d, 0.6], [0.5 + d, 0.4]])
    edges = [Edge((0, 1), 1, 2),
             Edge((2, 0), 1, 3), Edge((0, 3), 2, 3),
             Edge((1, 4), 3, 1), Edge((5, 1), 3, 2)]
    net = LabeledNetwork(torus(), 3, v, edges)
    out = weld_junctions(net)
    deg = out.vertex_degrees()
    assert np.max(deg) == 4  # merged into one higher-order junction
    assert len(out.edges) == 4


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=3, max_value=12))
def test_vertex_degrees_match_edge_loop(seed, n):
    for net in (voronoi_scene(n, seed), parse_scene(TWO_BANDS),
                circle_net(n=n + 3)):
        assert np.array_equal(net.vertex_degrees(), vertex_degrees_loop(net))


@settings(max_examples=20, deadline=None)
@given(gaps=st.lists(st.floats(min_value=2e-4, max_value=4e-3),
                     min_size=1, max_size=8))
@example(gaps=[1e-3] * 6)  # six welds in a row
def test_weld_cascade_matches_recursive_weld(gaps):
    # a row of junctions at the given spacings, each with an arm up or down
    # and two arms at the row's ends: every weld can bring the next junction
    # within the tolerance, so welds cascade along the row
    xs = 0.4 + np.concatenate([[0.0], np.cumsum(gaps)])
    n = len(xs)
    verts = [(x, 0.5) for x in xs]
    edges = [Edge((i, i + 1), 1, 2) for i in range(n - 1)]

    def arm(i, dx, dy):
        verts.append((xs[i] + dx, 0.5 + dy))
        edges.append(Edge((i, len(verts) - 1), 1, 2))

    for i in range(n):
        arm(i, 0.0, 0.1 if i % 2 else -0.1)
    arm(0, -0.1, 0.05)
    arm(n - 1, 0.1, 0.05)
    net = LabeledNetwork(torus(), 2, np.array(verts), edges)
    assert_same_net(weld_junctions(net), weld_junctions_recursive(net))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_segments_match_loops(net):
    for got, want in zip(net.segment_arrays(), segment_arrays_loop(net)):
        assert same_bits(got, want)
    assert same_bits(net.edge_lengths(), edge_lengths_loop(net))
    got, want = net.outgoing_ends(), outgoing_ends_loop(net)
    assert list(got) == list(want)
    for vi in want:
        assert len(got[vi]) == len(want[vi])
        for g, w in zip(got[vi], want[vi]):
            assert same_bits(g[0], w[0]) and g[1:] == w[1:]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=3, max_value=32),
       center=st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)))
def test_segment_arrays_match_edge_loop(seed, n, center):
    # a torus circle of radius 0.2 around a point this near the corner
    # crosses both seams
    ring = parse_scene("domain torus\nlabels 2\ncircle center=(%r,%r) r=0.2 "
                       "n=64 inside=2 outside=1\n" % center, h_max=0.02)
    # a zero-length segment, in the plane and on the torus
    dup = np.array([[0.1, 0.1], [0.3, 0.1], [0.3, 0.1], [0.5, 0.2]])
    stub = [Edge((0, 1, 2, 3), 1, 1)]
    for net in (voronoi_scene(n, seed), ring, circle_net(n=n + 3),
                parse_scene(TWO_BANDS),
                LabeledNetwork(plane(), 1, dup, stub),
                LabeledNetwork(torus(), 1, dup, stub),
                LabeledNetwork(torus(), 1, np.zeros((0, 2)), [])):
        assert_segments_match_loops(net)


def test_network_is_immutable_with_own_caches():
    net = voronoi_scene(8, 42)
    p0 = net.segment_arrays()[0]
    assert net.segment_arrays()[0] is p0  # computed once
    with pytest.raises(ValueError):
        net.vertices[0, 0] = 0.5
    for arr in (net.segment_arrays() + net.chain_entries()
                + (net.segment_lengths(), net.edge_lengths())):
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    moved = rebuilt(net, np.mod(net.vertices + 0.01, 1.0))
    shifted = net.with_vertices(np.mod(net.vertices + 0.01, 1.0))
    for other in (net.copy(), shifted):  # chains shared, caches not
        assert all(a is b for a, b in zip(
            other.chain_entries() + (other.edge_labels(),),
            net.chain_entries() + (net.edge_labels(),)))
    for other in (net.copy(), rebuilt(net), moved, shifted):
        assert other.segment_arrays()[0] is not p0
        assert_segments_match_loops(other)
    assert not np.array_equal(moved.segment_arrays()[0], p0)
    assert same_bits(shifted.segment_arrays()[0], moved.segment_arrays()[0])
    with pytest.raises(ValueError):
        shifted.vertices[0, 0] = 0.5


def annulus(periodic, center, r_out, r_in):
    """Label 2 between two circles around center, label 3 inside."""
    head = ("domain torus\n" if periodic
            else "domain plane bbox=(-1.5,-1.5,1.5,1.5)\n")
    return parse_scene(head + "labels 3\n"
                       "circle center=(%r,%r) r=%r n=64 inside=2 outside=1\n"
                       "circle center=(%r,%r) r=%r n=40 inside=3 outside=2\n"
                       % (center + (r_out,) + center + (r_in,)), h_max=0.02)


_center = st.one_of(st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
                    st.sampled_from([(0.0, 0.0), (1e-3, -2e-3), (0.5, 0.5)]))


@settings(max_examples=15, deadline=None)
@given(net=st.one_of(
    st.builds(voronoi_scene, st.integers(3, 16), st.integers(0, 10_000)),
    st.builds(annulus, st.booleans(), _center, st.floats(0.2, 0.35),
              st.floats(0.05, 0.12))))
@example(net=honeycomb_scene(3, 2))
@example(net=annulus(True, (0.0, 0.0), 0.3, 0.1))  # hole across both seams
def test_region_loops_match_walk(net):
    areas = region_areas(net).areas
    for label in range(1, net.n_labels + 1):
        got, want = region_loops(net, label), region_loops_walk(net, label)
        assert len(got) == len(want)
        assert all(same_bits(g, w) for g, w in zip(got, want))
        # a grain bounded by one counterclockwise loop is the disk inside it
        if len(got) == 1 and shoelace(got[0]) > 0.0:
            assert abs(shoelace(got[0]) - areas[label]) <= 1e-12 * areas[label]
    assert same_bits(net.edge_lengths(), edge_lengths_loop(net))


@settings(max_examples=10, deadline=None)
@given(net=st.one_of(
    st.builds(voronoi_scene, st.integers(3, 16), st.integers(0, 10_000)),
    st.builds(annulus, st.booleans(), _center, st.floats(0.2, 0.35),
              st.floats(0.05, 0.12)),
    st.builds(parse_scene, st.just(TWO_BANDS))))
def test_chain_storage_is_one_form(net):
    # rebuild, the moved network and the constructor from the Edge view hold
    # the same chain arrays and labels, and give back the same Edge view
    every, first, last = net.chain_entries()
    want = net.chain_entries() + (net.edge_labels(),)
    for other in (rebuild(net, net.vertices, every, last - first + 1,
                          net.edge_labels()),
                  net.with_vertices(net.domain.wrap(net.vertices + 0.003)),
                  rebuilt(net)):
        got = other.chain_entries() + (other.edge_labels(),)
        assert all(same_bits(g, w) for g, w in zip(got, want))
        assert other.edges == net.edges
