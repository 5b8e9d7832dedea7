import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grainflow.engine import (PAPER, PRACTICAL, FlowState,
                              InfeasibleParametersError, StepTooLargeError,
                              advance, curvature_step, run, schedule_params)
from grainflow.kernels import Kernel
from grainflow.network import Edge, region_areas, validate_partition
from grainflow.scenes import parse_scene, voronoi_scene
from grainflow.weights import const_weight

TWO_BANDS = """domain torus
labels 2
line y=0.25 left=1 right=2
line y=0.75 left=2 right=1
"""


def small_circle():
    return parse_scene(
        "domain plane bbox=(-1.5,-1.5,1.5,1.5)\nlabels 2\n"
        "circle center=(0,0) r=1 n=64 inside=1 outside=2\n", h_max=0.05)


def test_faithful_schedule_exact_dyadic():
    s = schedule_params(PAPER, 2, eps=2.0 ** -12)
    assert s.c_a == 23
    assert s.p == 276
    assert s.dt == 2.0 ** -276  # exact: eps^23 is itself a power of two


def test_faithful_schedule_infeasible_relations():
    with pytest.raises(InfeasibleParametersError, match="eps < j\\^-6"):
        schedule_params(PAPER, 2, eps=0.1)
    with pytest.raises(InfeasibleParametersError, match="j <= eps"):
        schedule_params(PAPER, 3, eps=2.0 ** -12)
    with pytest.raises(InfeasibleParametersError, match="j >= max"):
        schedule_params(PAPER, 0, eps=2.0 ** -12)
    with pytest.raises(InfeasibleParametersError, match="eps required"):
        schedule_params(PAPER, 2)


def test_practical_schedule_infeasible_relations():
    with pytest.raises(InfeasibleParametersError, match="kappa"):
        schedule_params(PRACTICAL, 2, eps=0.2, dt=0.1)
    with pytest.raises(InfeasibleParametersError, match="4\\*h_max"):
        schedule_params(PRACTICAL, 2, eps=0.1, dt=1e-4, h_max=0.05)
    with pytest.raises(InfeasibleParametersError, match="needs eps and dt"):
        schedule_params(PRACTICAL, 2, eps=0.2)
    with pytest.raises(InfeasibleParametersError, match="unknown mode"):
        schedule_params("bogus", 2, eps=0.2, dt=1e-4)


def test_step_too_large_raises():
    net = small_circle()
    with pytest.raises(StepTooLargeError):
        curvature_step(net, Kernel.make(0.2), const_weight(), 1.0)


def test_advance_shrinks_circle():
    sched = schedule_params(PRACTICAL, 2, eps=0.2, dt=0.002, steps=5)
    state = FlowState(small_circle(), Kernel.make(0.2), const_weight())
    a0 = region_areas(state.net).areas[1]
    m0 = state.mass0
    for _ in range(5):
        state, report, _ = advance(state, sched)
        assert not report.violations
    assert region_areas(state.net).areas[1] < a0
    assert report.mass_post < m0
    assert report.energy > 0.0


def test_parallel_lines_are_stationary():
    sched = schedule_params(PRACTICAL, 2, eps=0.2, dt=0.002, steps=8)
    trace = run(parse_scene(TWO_BANDS), sched)
    assert max(r.energy for r in trace.reports) < 1e-10
    for r in trace.reports:
        assert r.max_displacement / sched.dt < 1e-6
    m = [r.mass_post for r in trace.reports]
    assert abs(m[-1] - 2.0) < 1e-9
    assert not any(r.violations for r in trace.reports)


def test_run_frame_cadence_and_reports():
    sched = schedule_params(PRACTICAL, 2, eps=0.2, dt=0.002, steps=9)
    trace = run(small_circle(), sched, frame_every=3)
    assert len(trace.reports) == 9
    # frames at t=0, steps 3, 6, 9; last state always recorded
    assert len(trace.frames) == 4
    assert trace.times == sorted(trace.times)
    assert trace.times[-1] == pytest.approx(9 * sched.dt)
    assert trace.frame_index(0.0) == 0
    with pytest.raises(KeyError):
        trace.frame_index(0.5 * sched.dt)


def test_run_keep_steps_collects_per_step_data():
    sched = schedule_params(PRACTICAL, 2, eps=0.2, dt=0.002, steps=4)
    trace = run(small_circle(), sched, frame_every=2, keep_steps=True)
    assert len(trace.step_data) == 4
    net1, vids, h = trace.step_data[0]
    assert h.shape == (len(vids), 2)
    assert len(net1.edges) >= 1


def test_remesh_cadence_keeps_partition_valid():
    sched = schedule_params(PRACTICAL, 2, eps=0.2, dt=0.002, steps=12,
                            remesh_cadence=5)
    trace = run(small_circle(), sched)
    assert not any(r.violations for r in trace.reports)
    assert np.max(trace.frames[-1].segment_lengths()) <= 0.05 + 1e-12


@settings(max_examples=5, deadline=None)
@given(n=st.integers(4, 8), seed=st.integers(0, 10_000))
def test_grain_runs_stay_valid(n, seed):
    # 11 steps at the default cadence run remesh, weld and validation once
    sched = schedule_params(PRACTICAL, 2, eps=0.1, dt=5e-4, steps=11,
                            h_max=0.025)
    trace = run(voronoi_scene(n, seed, h_max=0.025), sched, frame_every=11)
    assert len(trace.reports) == 11
    assert not any(r.violations for r in trace.reports)
    last = trace.frames[-1]
    assert validate_partition(last).ok
    tab = region_areas(last)
    assert abs(sum(tab.areas.values()) + tab.residual - 1.0) <= 1e-9


@pytest.mark.parametrize("make, eps, dt, h_max", [
    (small_circle, 0.2, 0.002, 0.05),
    (lambda: parse_scene(TWO_BANDS), 0.2, 0.002, 0.05),
    (lambda: voronoi_scene(8, 42, h_max=0.025), 0.1, 5e-4, 0.025)],
    ids=["circle", "two-bands", "voronoi-8"])
def test_run_builds_no_edge_tuples(monkeypatch, make, eps, dt, h_max):
    # every step edits and moves chain arrays, remesh and welds included;
    # Edge tuples are only the scene-facing view
    net = make()
    built = []
    init = Edge.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Edge, "__init__", counted)
    sched = schedule_params(PRACTICAL, 2, eps=eps, dt=dt, steps=10,
                            h_max=h_max)
    trace = run(net, sched, frame_every=5)
    assert trace.reports[-1].step == sched.remesh_cadence  # remesh ran
    assert built == []
