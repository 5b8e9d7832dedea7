"""One benchmark workload, run in its own process by perfbench/run.py.

The process imports `grainflow` from the checkout's `src/`, builds the
workload's inputs from the seed, runs ops until the time budget or the op
budget is spent, checks the outputs, and prints one JSON object as the last
line of standard output.  It calls only `grainflow`'s public entry points; in
a traced run, perfbench/tracer.py first rebinds them to timing wrappers.

An op is one `engine.run` step on the simulation workloads, timestamped from
the `on_report` sink callback, and one frame pair (plus one density scan and
one Huisken evaluation) on `diagnostics`.  Set-up is everything from the
process start to the first op: the import, the scene, the schedule, the
kernel, and `engine.run`'s initial frame record.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time

CIRCLE_SCENE = """domain plane bbox=(-1.5,-1.5,1.5,1.5)
labels 2
circle center=(%r,%r) r=1 n=512 inside=1 outside=2
"""

LINES_SCENE = """domain torus
labels 2
line y=%r left=1 right=2
line y=%r left=2 right=1
"""

# diagnostics frames: exact circles r(t) = sqrt(R0^2 - 2t) as N_GON-gons in
# the box [-1.5 R0, 1.5 R0]^2 at t = 0 and t = DT_FRAME.  One pair costs about
# half a second on a 2-core host, so a run holds enough ops for a quantile;
# the unit circle as a 512-gon would take 24 s per pair.
R0 = 0.25
N_GON = 64
DT_FRAME = 0.075 * R0 * R0
DIAG_SCENE = """domain plane bbox=(%r,%r,%r,%r)
labels 2
circle center=(%r,%r) r=%r n=%d inside=1 outside=2
"""


class Stop(Exception):
    """Raised from a sink callback to end engine.run when the budget is spent."""


class Budget:
    def __init__(self, seconds, max_ops, setup_only):
        self.seconds = seconds
        self.max_ops = max_ops
        self.setup_only = setup_only

    def spent(self, ops, elapsed):
        if self.max_ops and ops >= self.max_ops:
            return True
        return bool(self.seconds) and elapsed >= self.seconds


class Sinks:
    """engine.run sinks: the CLI's report and CSV frame output, plus op stamps."""

    def __init__(self, gf, workdir, budget):
        self.gf = gf
        self.workdir = workdir
        self.budget = budget
        self.report = open(os.path.join(workdir, "report.jsonl"), "wb")
        self.sha = hashlib.sha256()
        self.reports = []
        self.stamps = []  # perf_counter at the end of each on_report
        self.first = None  # perf_counter at the first op's start
        self.first_mono = None
        self.frames = 0
        self.net = None  # the last frame's network

    def on_frame(self, net, t):
        data = self.gf.frames.emit_frame(net, t, "csv")
        path = os.path.join(self.workdir, "frame_%06d.csv" % self.frames)
        with open(path, "wb") as f:
            f.write(data)
        self.frames += 1
        self.net = net
        now = time.perf_counter()
        if self.first is None:
            self.first, self.first_mono = now, time.monotonic()
            if self.budget.setup_only:
                raise Stop
        elif self.budget.spent(len(self.stamps), now - self.first):
            raise Stop

    def on_report(self, report):
        line = self.gf.frames.report_record(report).encode()
        self.report.write(line)
        self.report.flush()
        self.sha.update(line)
        self.reports.append(report)
        self.stamps.append(time.perf_counter())

    def close(self):
        self.report.close()


class Grainflow:
    """The grainflow modules, looked up by attribute so rebinding takes effect."""

    def __init__(self, root):
        sys.path.insert(0, os.path.join(root, "src"))
        import grainflow
        from grainflow import (deformation, diagnostics, engine, frames,
                               kernels, network, scenes, varifold, weights)
        src = os.path.realpath(os.path.join(root, "src", "grainflow"))
        if os.path.dirname(os.path.realpath(grainflow.__file__)) != src:
            raise ImportError("grainflow imported from %s, not %s"
                              % (grainflow.__file__, src))
        self.modules = {"deformation": deformation, "diagnostics": diagnostics,
                        "engine": engine, "frames": frames, "kernels": kernels,
                        "network": network, "scenes": scenes,
                        "varifold": varifold}
        for name, mod in self.modules.items():
            setattr(self, name, mod)
        self.weights = weights


def rng_for(seed):
    import numpy as np
    return np.random.default_rng(abs(seed))


def check(name, value, ok, limit):
    return {"name": name, "value": value, "limit": limit, "ok": bool(ok)}


# ---- simulation workloads ------------------------------------------------------


def scene_circle(gf, args):
    c = rng_for(args.seed).uniform(-0.1, 0.1, 2)
    net = gf.scenes.parse_scene(CIRCLE_SCENE % (float(c[0]), float(c[1])),
                                h_max=0.0125)
    sched = gf.engine.schedule_params("practical", 2, eps=0.05, dt=1e-4,
                                      steps=10 ** 9, h_max=0.0125)
    return net, sched, 10


def scene_grains(gf, args):
    import numpy as np
    net = gf.scenes.voronoi_scene(32, args.scene_seed, h_max=0.0125)
    # the seed translates the scene on the torus; its topology stays fixed
    shift = rng_for(args.seed).random(2)
    net = gf.network.LabeledNetwork(net.domain, net.n_labels,
                                    np.mod(net.vertices + shift, 1.0),
                                    list(net.edges), net.scale)
    sched = gf.engine.schedule_params("practical", 2, eps=0.05, dt=1e-4,
                                      steps=10 ** 9, h_max=0.0125)
    return net, sched, 10


def _lines(gf, args, sched):
    # shift in y by whole cells of the curvature lattice: the lines keep their
    # place between lattice rows, so the work per step does not change, and
    # horizontal segment lengths stay exact
    cell = 1.0 / math.ceil(4.0 / sched.eps)
    dy = cell * int(rng_for(args.seed).integers(0, round(0.5 / cell)))
    net = gf.scenes.parse_scene(LINES_SCENE % (0.25 + dy, 0.75 + dy),
                                h_max=0.05)
    return net, sched


def scene_paper_slab(gf, args):
    net, sched = _lines(gf, args, gf.engine.schedule_params(
        "paper", 2, eps=2.0 ** -12, steps=10 ** 9))
    return net, sched, 1


def scene_lines_kdtree(gf, args):
    net, sched = _lines(gf, args, gf.engine.schedule_params(
        "practical", 2, eps=0.2, dt=0.002, steps=10 ** 9, h_max=0.05))
    return net, sched, 10


def checks_circle(gf, sink):
    worst = 0.0
    for r in sink.reports:
        want = math.sqrt(1.0 - 2.0 * r.t)
        worst = max(worst, abs(r.mass_post / (2.0 * math.pi) - want) / want)
    viol = sum(1 for r in sink.reports if r.violations)
    return worst, [check("no_violations", viol, viol == 0, 0),
                   check("radius_rel_err", worst, worst <= 0.02, 0.02)]


def checks_grains(gf, sink):
    val = gf.network.validate_partition(sink.net)
    tab = gf.network.region_areas(sink.net)
    total = sum(tab.areas.values()) + tab.residual
    moved = sum(1 for r in sink.reports if r.deformation_decrease > 0.0)
    return None, [
        check("final_partition_valid", len(val.violations), val.ok, 0),
        check("area_sum_err", abs(total - 1.0), abs(total - 1.0) <= 1e-9, 1e-9),
        check("steps_with_accepted_move", moved, moved >= 1, 1)]


def checks_paper_slab(gf, sink):
    off = sum(1 for r in sink.reports
              if not r.mass_pre == r.mass_mid == r.mass_post == 2.0)
    disp = max((r.max_displacement for r in sink.reports), default=0.0)
    return None, [check("masses_not_exactly_2", off, off == 0, 0),
                  check("max_displacement", disp, disp < 1e-80, 1e-80)]


def checks_lines_kdtree(gf, sink):
    disp = sum(r.max_displacement for r in sink.reports)
    viol = sum(1 for r in sink.reports if r.violations)
    return None, [check("summed_max_displacement", disp, disp < 1e-3, 1e-3),
                  check("no_violations", viol, viol == 0, 0)]


SIMULATIONS = {
    "circle": (scene_circle, checks_circle),
    "grains": (scene_grains, checks_grains),
    "paper-slab": (scene_paper_slab, checks_paper_slab),
    "lines-kdtree": (scene_lines_kdtree, checks_lines_kdtree),
}


def segments(net):
    return sum(len(e.chain) - 1 for e in net.edges)


def simulate(gf, args, budget, workdir):
    build, checks = SIMULATIONS[args.workload]
    net, sched, frame_every = build(gf, args)
    kernel = gf.kernels.Kernel.make(sched.eps)
    sink = Sinks(gf, workdir, budget)
    raised = None
    try:
        gf.engine.run(net, sched, kernel=kernel,
                      omega=gf.weights.const_weight(), sinks=sink,
                      frame_every=frame_every)
    except Stop:
        pass
    except Exception as exc:  # a step that raises is a failed op
        raised = "%s: %s" % (type(exc).__name__, exc)
    finally:
        sink.close()
    out = {"first": sink.first, "first_mono": sink.first_mono,
           "stamps": sink.stamps, "raised": raised}
    if budget.setup_only:
        return out
    reps = sink.reports
    ref_err, results = (None, []) if raised else checks(gf, sink)
    steps = len(reps)
    out.update({
        "ref_err": ref_err,
        "checks": results,
        "failed_ops": sum(1 for r in reps if r.violations) + (1 if raised else 0),
        "violations": sorted({v for r in reps for v in r.violations})[:5],
        "counts": {
            "steps": steps,
            "share_steps_mass_decreasing_move":
                sum(1 for r in reps if r.deformation_decrease > 0.0) / steps
                if steps else 0.0,
            "share_steps_remesh":
                sum(1 for r in reps if r.step % sched.remesh_cadence == 0)
                / steps if steps else 0.0,
            "segments_start": segments(net),
            "segments_end": segments(sink.net) if sink.net else None,
            "report_sha256": sink.sha.hexdigest(),
        },
    })
    return out


# ---- diagnostics workload ------------------------------------------------------


def diagnostics(gf, args, budget, workdir):
    c = rng_for(args.seed).uniform(-0.03, 0.03, 2)
    b = 1.5 * R0
    pair = gf.engine.RunTrace()
    pair.times = [0.0, DT_FRAME]
    pair.frames = [gf.scenes.parse_scene(
        DIAG_SCENE % (-b, -b, b, b, float(c[0]), float(c[1]),
                      math.sqrt(R0 * R0 - 2.0 * t), N_GON), h_max=0.05)
        for t in pair.times]
    hc = gf.scenes.honeycomb_scene(3, 2, h_max=0.005)
    junction = hc.vertices[int(next(i for i, d in enumerate(hc.vertex_degrees())
                                    if d == 3))]
    line = gf.engine.RunTrace()
    line.times = [0.0]
    line.frames = [gf.scenes.parse_scene(LINES_SCENE % (0.25, 0.75),
                                         h_max=0.005)]

    first = time.perf_counter()
    first_mono = time.monotonic()
    stamps, pair_err, dens_err, huis_err = [], [], [], []
    raised = None
    while not budget.setup_only:
        try:
            mod = gf.diagnostics.area_modulus(pair, 1)
            tab = gf.diagnostics.density_ratio_scan(
                hc, [0.01, 0.02, 0.04], points=[junction])
            val = gf.diagnostics.huisken_functional(
                line, (0.3, 0.25), 0.001, 0.2, 0.0)
        except Exception as exc:  # a pair that raises is a failed op
            raised = "%s: %s" % (type(exc).__name__, exc)
            break
        stamps.append(time.perf_counter())
        (t, s, g), = mod.pairs
        want = 2.0 * math.pi * (s - t)
        pair_err.append(abs(g - want) / want)
        dens_err.append(float(abs(tab.ratios - 1.5).max()))
        huis_err.append(abs(val - 1.0))
        if budget.spent(len(stamps), stamps[-1] - first):
            break
    out = {"first": first, "first_mono": first_mono, "stamps": stamps,
           "raised": raised}
    if budget.setup_only:
        return out
    worst = max(pair_err, default=0.0)
    out.update({
        "ref_err": worst,
        "checks": [] if raised else [
            check("pair_rel_err", worst, worst <= 0.03, 0.03),
            check("huisken_err", max(huis_err), max(huis_err) <= 1e-4, 1e-4),
            check("density_err", max(dens_err), max(dens_err) <= 1e-3, 1e-3)],
        "failed_ops": 1 if raised else 0,
        "violations": [],
        "counts": {"pairs": len(stamps),
                   "segments_per_frame": segments(pair.frames[0])},
    })
    return out


# ---- entry point ---------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--root", required=True, help="checkout root holding src/")
    p.add_argument("--workload", required=True,
                   choices=sorted(SIMULATIONS) + ["diagnostics"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scene-seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--max-ops", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--t-spawn", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default="", help="where a traced run writes spans")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    gf = Grainflow(args.root)
    tracer = None
    if args.trace:
        from tracer import Tracer  # perfbench/ is sys.path[0]
        tracer = Tracer()
        tracer.install(gf.modules)
    os.makedirs(args.workdir, exist_ok=True)
    budget = Budget(args.seconds, args.max_ops, args.setup_only)
    try:
        fn = diagnostics if args.workload == "diagnostics" else simulate
        out = fn(gf, args, budget, args.workdir)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    if out["first_mono"] is not None:
        out["setup_s"] = out["first_mono"] - args.t_spawn
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = rss_kib / 1024.0
    if tracer is not None and out["stamps"]:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics(out["first"], out["stamps"][-1],
                                             len(out["stamps"]), out["first"])
        out["moves"] = tracer.moves
        out["passes"] = tracer.passes
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
