"""Command-line entry point.

Exit codes: 0 success, 1 validation/configuration failure, 2 runtime error.
Frames are written on the frame cadence as CSV (plus a final SVG); the report
file is line-delimited JSON, appended and flushed per step so an interrupted
run leaves a valid prefix.
"""

import argparse
import json
import os
import sys

from .engine import (EXTINCTION_THRESHOLD, PAPER, PRACTICAL,
                     InfeasibleParametersError, run, schedule_params)
from .frames import emit_frame, report_record
from .kernels import Kernel
from .network import validate_partition
from .scenes import SceneParseError, parse_scene
from .weights import weight_from_name


def build_parser():
    p = argparse.ArgumentParser(
        prog="grainflow",
        description="Grain-boundary network evolution by smoothed mean "
                    "curvature with area-reducing deformations.")
    p.add_argument("--scene", required=True, help="scene file path")
    p.add_argument("--mode", choices=[PAPER, PRACTICAL], default=PRACTICAL)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--steps", type=int, default=0)
    p.add_argument("--omega", choices=["const", "exp"], default="const")
    p.add_argument("--out", default="out")
    p.add_argument("--frame-every", type=int, default=1)
    p.add_argument("--diagnostics", default="",
                   help="comma list from {density,huisken,modulus}")
    p.add_argument("--seed", type=int, default=0)
    return p


class _Sinks:
    def __init__(self, outdir, frame_every):
        self.outdir = outdir
        self.frame_every = frame_every
        self.count = 0
        self.report = open(os.path.join(outdir, "report.jsonl"), "w")

    def on_frame(self, net, t):
        path = os.path.join(self.outdir, "frame_%06d.csv" % self.count)
        with open(path, "wb") as f:
            f.write(emit_frame(net, t, "csv"))
        self.count += 1

    def on_report(self, report):
        self.report.write(report_record(report))
        self.report.flush()

    def close(self):
        self.report.close()


def _run_diagnostics(names, trace, outdir):
    from . import diagnostics as dg
    out = {}
    last = trace.frames[-1]
    if "density" in names:
        tab = dg.density_ratio_scan(last, [0.02, 0.05, 0.1])
        out["density"] = {
            "radii": list(tab.radii),
            "min_ratio": float(tab.ratios.min()) if tab.ratios.size else None,
            "max_ratio": float(tab.ratios.max()) if tab.ratios.size else None,
            "monotone_fraction": float(tab.monotone_ok.mean())
            if len(tab.monotone_ok) else None,
        }
    if "huisken" in names and len(trace.times) >= 2:
        t = trace.times[0]
        s = trace.times[-1] + 1e-6
        p0, _, _, _, _ = last.segment_arrays()
        if len(p0):
            y = p0[0]
            out["huisken"] = dg.huisken_functional(trace, y, s, 1.0, t)
    if "modulus" in names and len(trace.times) >= 3:
        mods = {}
        for lab in range(1, last.n_labels + 1):
            mods[str(lab)] = dg.area_modulus(trace, lab, max_frames=5).modulus
        out["modulus"] = mods
    with open(os.path.join(outdir, "diagnostics.json"), "w") as f:
        json.dump(out, f, sort_keys=True, indent=1)


def cli_main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        try:
            with open(args.scene, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            print("cannot read scene: %s" % exc, file=sys.stderr)
            return 1
        try:
            # mesh the scene to the smoothing scale in practical mode; the
            # faithful mode's eps is far below any usable mesh resolution
            h_max = (args.epsilon / 4.0
                     if args.epsilon and args.mode == PRACTICAL else 0.05)
            net = parse_scene(text, h_max=h_max)
        except SceneParseError as exc:
            print("scene error: %s" % exc, file=sys.stderr)
            return 1
        rep = validate_partition(net)
        if not rep.ok:
            print("invalid partition: %r" % rep.violations[:5], file=sys.stderr)
            return 1
        try:
            sched = schedule_params(
                args.mode, args.j, eps=args.epsilon, dt=args.dt,
                steps=args.steps, h_max=h_max,
                c1=weight_from_name(args.omega).c1)
        except InfeasibleParametersError as exc:
            print("infeasible parameters: %s" % exc, file=sys.stderr)
            return 1
        omega = weight_from_name(args.omega)
        if net.domain.periodic and omega.variant != "const":
            print("torus runs use the constant weight only", file=sys.stderr)
            return 1
        os.makedirs(args.out, exist_ok=True)
        sinks = _Sinks(args.out, args.frame_every)
        try:
            kernel = Kernel.make(sched.eps)
            trace = run(net, sched, kernel=kernel, omega=omega, sinks=sinks,
                        frame_every=args.frame_every)
        finally:
            sinks.close()
        with open(os.path.join(args.out, "final.svg"), "wb") as f:
            f.write(emit_frame(trace.frames[-1], trace.times[-1], "svg"))
        names = {s.strip() for s in args.diagnostics.split(",") if s.strip()}
        if names:
            _run_diagnostics(names, trace, args.out)
        if trace.reports and trace.reports[-1].mass_post < EXTINCTION_THRESHOLD:
            print("extinction at t=%.6g" % trace.times[-1])
        return 0
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print("runtime error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
