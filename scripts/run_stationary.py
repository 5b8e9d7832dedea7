"""Stationarity check: parallel lines and the 120-degree honeycomb.

Both configurations have vanishing first variation, so the total displacement
over many steps measures the discretization noise floor.
"""

import argparse

import numpy as np

from grainflow.engine import run, schedule_params
from grainflow.scenes import honeycomb_scene, parse_scene

LINES = """domain torus
labels 2
line y=0.25 left=1 right=2
line y=0.75 left=2 right=1
"""


def junction_angle_error(net):
    worst = 0.0
    ends = net.outgoing_ends()
    deg = net.vertex_degrees()
    for vi, lst in ends.items():
        if deg[vi] != 3:
            continue
        # the ends come counterclockwise
        angles = [np.arctan2(d[1], d[0]) for d, _, _, _, _ in lst]
        gaps = np.degrees(np.diff(angles + [angles[0] + 2 * np.pi]))
        worst = max(worst, float(np.max(np.abs(gaps - 120.0))))
    return worst


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=1000)
    args = ap.parse_args()

    for name, net, eps, dt, h_max in (
            ("lines", parse_scene(LINES), 0.2, 0.002, 0.05),
            ("honeycomb", honeycomb_scene(3, 2, h_max=0.0125),
             0.05, 1e-4, 0.0125)):
        sched = schedule_params("practical", 2, eps=eps, dt=dt,
                                steps=args.steps, h_max=h_max)
        trace = run(net, sched, frame_every=max(1, args.steps // 4))
        moved = sum(r.max_displacement for r in trace.reports)
        print("%s: total displacement %.3e over %d steps, "
              "worst junction angle error %.4f deg" % (
                  name, moved, len(trace.reports),
                  junction_angle_error(trace.frames[-1])))


if __name__ == "__main__":
    main()
