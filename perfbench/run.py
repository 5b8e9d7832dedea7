"""grainflow benchmark: five fixed workloads, each run in its own process.

Run from the root of a checkout (the benchmark imports `grainflow` from its
`src/`; nothing needs installing or building):

    python3 perfbench/run.py --workload circle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Workloads (BENCHMARK.json says why each was chosen):

    circle        README scene: planar 512-gon r=1, practical, eps 0.05
    grains        32-grain Voronoi torus (scene seed 42), same parameters
    paper-slab    paper mode on the two-line torus, eps 2^-12 (slab sweep)
    lines-kdtree  two-line torus, practical, eps 0.2 (KD-tree curvature path)
    diagnostics   area_modulus over exact shrinking circles, density ratio at
                  a honeycomb junction, Huisken functional on a static line

BENCHMARK.json lists circle, lines-kdtree and diagnostics.  On a shared
2-core host, paper-slab (about a second per op) and grains (Python-heavy
steps that other tenants slow down for stretches longer than a run) did not
give steady fastest-op times across seeds; both stay runnable for
before/after checks of the slab sweep and of the deformation pass.

`--seed` makes the inputs: it places the circles, shifts the lines in y and
translates the Voronoi scene on the torus, so the work per op does not depend
on it.  `--scene-seed` picks the Voronoi scene itself.

`--trace 0` prints the end-to-end metrics: set-up time (median over several
set-ups, each a fresh process), the fastest op's time and the workload
process's peak RSS, which are gated, and the median and p95 op time, ops per
second, the failure ratio and the analytic-reference error, which are only
reported.  A fixed-work calibration loop is timed before and after each run
to show host drift.  `--trace 1` runs the workload untraced for half
the time, then again for the same number of ops with perfbench/tracer.py's
wrappers installed, and prints the per-layer split and the tracing overhead.
Either way the outputs are checked, the last line of standard output is one
JSON object, and the details go to .bench_build/perfbench/.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["circle", "grains", "paper-slab", "lines-kdtree", "diagnostics"]
SETUP_RUNS = 3  # set-ups per --trace 0 run; setup_s is their median
RUN_LIMIT_S = 170.0  # every run ends well inside three minutes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

sys.path.insert(0, HERE)
from tracer import MOVE_KINDS, REJECT_REASONS  # noqa: E402


class BenchError(RuntimeError):
    pass


# ---- environment -----------------------------------------------------------------


def provenance(args):
    src = os.path.join(ROOT, "src", "grainflow")
    digest = hashlib.sha256()
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                data = f.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "src_grainflow_lines": lines, "seed": args.seed,
            "scene_seed": args.scene_seed}


def calibrate(reps=5):
    """Median ms of a fixed-work loop: shows host drift, never divides metrics."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t)
    return 1000.0 * statistics.median(times)


def spawn(workload, args, deadline, *extra):
    """Run perfbench/workload.py in a fresh process; returns its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(args.seed),
           "--scene-seed", str(args.scene_seed),
           "--workdir", os.path.join(OUT_DIR, "work-%s-%d" % (workload,
                                                               os.getpid()))]
    cmd += [str(x) for x in extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for %s" % workload)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)],
                              stdout=subprocess.PIPE, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %.0f s" % (workload, timeout))
    if proc.returncode != 0:
        raise BenchError("%s exited with code %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed no result" % workload)
    return json.loads(lines[-1])


# ---- metrics ---------------------------------------------------------------------


def op_times(res):
    """Per-op wall seconds: stamp i minus stamp i-1, the first from op start."""
    edges = [res["first"]] + res["stamps"]
    return [b - a for a, b in zip(edges[:-1], edges[1:])]


def loop_rate(res):
    ops = len(res["stamps"])
    return ops / (res["stamps"][-1] - res["first"]) if ops else 0.0


def p95_note(ops):
    if len(ops) < 200:
        return None, "needs >= 200 ops, have %d" % len(ops)
    return 1000.0 * statistics.quantiles(ops, n=20)[18], "%d ops" % len(ops)


def outcome(results):
    """(correct, attempted, failed) over a run's workload processes."""
    attempted = failed = 0
    correct = True
    for res in results:
        ops = len(res["stamps"]) + (1 if res["raised"] else 0)
        bad = res["raised"] or not all(c["ok"] for c in res["checks"])
        attempted += max(1, ops)
        failed += max(1, ops) if bad else res["failed_ops"]
        correct = correct and not bad and res["failed_ops"] == 0
    return correct, attempted, failed


def end_to_end(setups, res):
    """(gated metrics, reported-only metrics), each name -> (value, unit, note).

    The op time that is gated is the fastest op.  On a shared host other
    tenants only ever add time to an op, and they slow this one down by up to
    2x for stretches of several seconds, so the median, the decile and the
    mean rate of a run follow how much of the run fell in such a stretch; the
    fastest op needs only one op outside them.
    """
    ops = op_times(res)
    n = len(ops)
    p95, p95_why = p95_note(ops)
    ref = res.get("ref_err")
    metrics = {
        "setup_s": (statistics.median(setups) if setups else 0.0, "s",
                    "median of %d set-ups" % len(setups)),
        "op_ms.min": (1000.0 * min(ops) if n else 0.0, "ms", "%d ops" % n),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB", "workload process"),
    }
    extra = {
        "op_ms.p50": (1000.0 * statistics.median(ops) if n else None, "ms",
                      "%d ops" % n),
        "op_ms.p95": (p95, "ms", p95_why),
        "ops_per_s": (loop_rate(res), "1/s",
                      "%d ops, sink I/O included" % n),
        "ref_err": (ref, "ratio", "no analytic reference on this workload"
                    if ref is None else "largest relative error"),
    }
    return metrics, extra


def per_layer(untraced, traced):
    lay = traced["layers"]
    ops = lay["ops"]
    busy, selft, calls, extra = (lay["busy_s"], lay["self_s"], lay["calls"],
                                 lay["extra"])
    m = {}

    def ms(name, field="ms"):
        src = selft if field == "self_ms" else busy
        m["%s.%s" % (name, field)] = (1000.0 * src.get(name, 0.0) / ops, "ms")

    def per_op(name, field, value, unit="1/op"):
        m["%s.%s" % (name, field)] = (value / ops, unit)

    def mean(name, key):
        vals = extra.get(name, {}).get(key, [])
        return sum(vals) / len(vals) if vals else 0.0

    ms("varifold.curvature_and_energy")
    per_op("varifold.curvature_and_energy", "calls",
           calls.get("varifold.curvature_and_energy", 0))
    m["varifold.quad_nodes"] = (mean("varifold.curvature_and_energy", "nodes"),
                                "count")
    m["varifold.segments"] = (mean("varifold.curvature_and_energy", "segments"),
                              "count")
    ms("varifold.build_varifold_view")
    for name in ("varifold.build_varifold_view", "varifold.omega_mass"):
        per_op(name, "calls", calls.get(name, 0))

    ms("deformation.lipschitz_step")
    ms("deformation.lipschitz_step", "self_ms")
    moves = traced["moves"]
    for kind in MOVE_KINDS.values():
        per_op("deformation.candidates", kind,
               sum(1 for k, _ in moves if k == kind))
        per_op("deformation.accepted", kind,
               sum(1 for k, f in moves if k == kind and f == "accepted"))
    accepted = sum(1 for _, f in moves if f == "accepted")
    m["deformation.accept_ratio"] = (accepted / len(moves) if moves else 0.0,
                                     "ratio")
    for reason in REJECT_REASONS:
        per_op("deformation.rejected", reason,
               sum(1 for _, f in moves if f == reason))
    for name in ("deformation.verify_admissible", "deformation.region_areas",
                 "deformation.validate_partition"):
        ms(name)
        per_op(name, "calls", calls.get(name, 0))
    for span in MOVE_KINDS:
        ms(span)

    for fn in ("region_areas", "remesh", "weld_junctions", "validate_partition",
               "label_at_points"):
        ms("network." + fn)
    per_op("network.weld_junctions", "welds",
           sum(extra.get("network.weld_junctions", {}).get("welds", [])))
    per_op("network.label_at_points", "pairs",
           sum(extra.get("network.label_at_points", {}).get("pairs", [])),
           "count/op")

    for fn in ("symmetric_difference_area", "area_modulus",
               "density_ratio_scan", "huisken_functional"):
        ms("diagnostics." + fn)
    ms("frames.emit_frame")
    per_op("frames.emit_frame", "bytes",
           sum(extra.get("frames.emit_frame", {}).get("bytes", [])), "bytes/op")
    ms("frames.report_record")
    ms("engine.advance")
    ms("engine.advance", "self_ms")

    # set-up layers: totals before the first op, not per op
    for name in ("scenes.parse_scene", "scenes.voronoi_scene",
                 "scenes.honeycomb_scene", "kernels.Kernel.make",
                 "engine.schedule_params"):
        m[name + ".ms"] = (1000.0 * lay["setup_s"].get(name, 0.0), "ms")

    m["trace.overhead"] = (loop_rate(traced) / loop_rate(untraced), "ratio")
    m["trace.coverage"] = (lay["covered_s"] / lay["window_s"], "ratio")
    m["trace.unattributed.ms"] = (
        1000.0 * (lay["window_s"] - lay["covered_s"]) / ops, "ms")
    m["trace.op_ms.p50"] = (1000.0 * statistics.median(op_times(traced)), "ms")
    m["trace.ops"] = (float(ops), "count")
    return m


def move_counts(traced):
    passes = traced["passes"]
    moves = traced["moves"]
    welds = traced["layers"]["extra"].get("network.weld_junctions", {})
    return {"steps": len(passes),
            "share_steps_accepted_move":
                sum(1 for p in passes if p) / len(passes) if passes else 0.0,
            "junction_splits": sum(1 for k, f in moves
                                   if k == "junction-split" and f == "accepted"),
            "welds": sum(welds.get("welds", []))}


# ---- one run ---------------------------------------------------------------------


def run_workload(workload, args):
    deadline = time.monotonic() + RUN_LIMIT_S
    calib_before = calibrate()
    detail = {"workload": workload, "provenance": provenance(args)}
    if args.trace:
        untraced = spawn(workload, args, deadline, "--seconds", args.seconds / 2)
        n = len(untraced["stamps"])
        traced = spawn(workload, args, deadline, "--trace", 1, "--max-ops",
                       max(1, n), "--seconds", 2 * args.seconds, "--spans",
                       os.path.join(OUT_DIR, "spans-%s.jsonl" % workload))
        procs = [untraced, traced]
        if traced.get("layers") and untraced["stamps"]:
            metrics = per_layer(untraced, traced)
            detail["counts"] = dict(traced["counts"])
            if traced["passes"]:  # the engine ran: count its moves and welds
                detail["counts"].update(move_counts(traced))
        else:
            metrics = {}
        extra = {}
    else:
        probes = [spawn(workload, args, deadline, "--setup-only")
                  for _ in range(SETUP_RUNS - 1)]
        main = spawn(workload, args, deadline, "--seconds", args.seconds)
        # a set-up that raised has no first op; the main run then fails too
        setups = [p["setup_s"] for p in probes + [main] if "setup_s" in p]
        procs = [main]
        metrics, extra = end_to_end(setups, main)
        detail["counts"] = main["counts"]
    calib_after = calibrate()
    correct, attempted, failed = outcome(procs)
    detail.update({
        "calibration_ms": {"before": calib_before, "after": calib_after},
        "checks": [c for p in procs for c in p["checks"]],
        "raised": [p["raised"] for p in procs if p["raised"]],
        "violations": sorted({v for p in procs for v in p["violations"]}),
        "extra": {k: v[0] for k, v in extra.items()}})
    report(workload, args, detail, metrics, extra, correct, attempted, failed)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v[0], "unit": v[1]}
                        for k, v in metrics.items()}}, detail


def report(workload, args, detail, metrics, extra, correct, attempted, failed):
    out = sys.stdout
    out.write("# workload %s  seed %d  seconds %g  trace %d\n"
              % (workload, args.seed, args.seconds, args.trace))
    out.write("provenance %s\n" % json.dumps(detail["provenance"]))
    cal = detail["calibration_ms"]
    out.write("calibration_ms before %.2f after %.2f (fixed-work loop; "
              "metrics are not divided by it)\n" % (cal["before"], cal["after"]))
    if args.trace and metrics:
        out.write("per-layer values are per op over %d traced ops; set-up "
                  "layers are ms before the first op\n"
                  % metrics["trace.ops"][0])
    for name, v in list(metrics.items()) + list(extra.items()):
        note = v[2] if len(v) > 2 else ""
        value = "n/a" if v[0] is None else "%.6g" % v[0]
        out.write("%-48s %14s %-9s %s\n" % (name, value, v[1], note))
    out.write("fail_ratio %d/%d  correct %s\n"
              % (failed, attempted, "yes" if correct else "NO"))
    for c in detail["checks"]:
        out.write("check %-28s %s value %r limit %r\n"
                  % (c["name"], "ok" if c["ok"] else "FAILED", c["value"],
                     c["limit"]))
    for r in detail["raised"]:
        out.write("raised %s\n" % r)
    for v in detail["violations"]:
        out.write("violation %s\n" % v)
    out.write("counts %s\n" % json.dumps(detail.get("counts", {})))
    out.flush()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--scene-seed", type=int, default=42,
                   help="Voronoi seed of the grains scene")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    # exit through subprocess.run's cleanup, which kills the running workload
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "grainflow", "__init__.py")):
        print("perfbench: no src/grainflow under %s" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    lines = []
    for name in names:
        try:
            result, detail = run_workload(name, args)
        except BenchError as exc:
            print("perfbench: %s" % exc, file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(os.path.join(OUT_DIR, "work-%s-%d"
                                       % (name, os.getpid())),
                          ignore_errors=True)
        detail["result"] = result
        with open(os.path.join(OUT_DIR, "result-%s-trace%d.json"
                               % (name, args.trace)), "w") as f:
            json.dump(detail, f, indent=1)
        lines.append(json.dumps(result))
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
