import numpy as np
import pytest

from grainflow.domain import plane, torus
from grainflow.network import Edge, LabeledNetwork, region_areas, validate_partition
from grainflow.deformation import (Move, _supports_disjoint,
                                   collapse_small_region, length_in_ball,
                                   lipschitz_step, remove_interior_boundary,
                                   split_high_order_junction, verify_admissible)
from grainflow.scenes import parse_scene
from grainflow.weights import const_weight

from oracles import CROSS_DIAGONALS, STEINER_SQUARE

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
