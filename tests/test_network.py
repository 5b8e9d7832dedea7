import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grainflow.domain import plane, torus
from grainflow.network import (Edge, LabeledNetwork, MeshScale,
                               _nearest_boundary_labels, label_at_points,
                               region_areas, remesh, validate_partition,
                               weld_junctions)
from grainflow.scenes import parse_scene, voronoi_scene

from oracles import ngon_area, ngon_vertices

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
