"""Deterministic outputs of a checkout, for checking that a change keeps them.

    python3 scripts/report_hashes.py ROOT [--seed 1] [--max-ops 30]

Runs `ROOT/perfbench/workload.py` for a fixed number of ops on circle,
lines-kdtree and grains and prints each run's `report_sha256` (the digest of
every step report), then runs the diagnostics workload for the same number
of ops and prints its check values in full precision.  Last it runs the
checkout's CLI for 20 steps, frames every 10, on the README circle and on an
8-grain Voronoi torus, and prints the sha256 of every file each run writes
(frame CSVs, report.jsonl, final.svg).  Two checkouts whose lines match
produce the same step reports, diagnostics and CLI files.  Work files go to
ROOT/.bench_build/report_hashes/ and are removed after each run; nothing
else is written.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

SIMULATIONS = ["circle", "lines-kdtree", "grains"]

CLI_SCENES = {
    "cli-circle": ("domain plane bbox=(-1.5,-1.5,1.5,1.5)\nlabels 2\n"
                   "circle center=(0,0) r=1 n=512 inside=1 outside=2\n"),
    "cli-voronoi": "generator voronoi seeds=8 rng=42\n",
}
CLI_ARGS = ["--mode", "practical", "--j", "2", "--epsilon", "0.05",
            "--dt", "1e-4", "--steps", "20", "--frame-every", "10"]


def run_workload(root, workload, seed, max_ops):
    """One workload.py run in `root`; returns its result object."""
    work = os.path.join(root, ".bench_build", "report_hashes",
                        "work-%s-%d" % (workload, os.getpid()))
    cmd = [sys.executable, os.path.join(root, "perfbench", "workload.py"),
           "--root", root, "--workload", workload, "--seed", str(seed),
           "--max-ops", str(max_ops), "--workdir", work,
           "--t-spawn", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("report_hashes: %s exited with code %d:\n%s"
                         % (workload, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_digests(root, name, scene_text):
    """One CLI run of `root`'s package on a scene; returns (file, sha256)
    for every file it writes, by file name."""
    work = os.path.join(root, ".bench_build", "report_hashes",
                        "%s-%d" % (name, os.getpid()))
    os.makedirs(work)
    try:
        scene, out = os.path.join(work, "scene.txt"), os.path.join(work, "out")
        with open(scene, "w") as f:
            f.write(scene_text)
        proc = subprocess.run(
            [sys.executable, "-m", "grainflow.cli", "--scene", scene,
             "--out", out] + CLI_ARGS, cwd=root, capture_output=True,
            text=True, env=dict(os.environ,
                                PYTHONPATH=os.path.join(root, "src")))
        if proc.returncode != 0:
            raise SystemExit("report_hashes: %s exited with code %d:\n%s"
                             % (name, proc.returncode, proc.stderr[-2000:]))
        digests = []
        for fn in sorted(os.listdir(out)):
            with open(os.path.join(out, fn), "rb") as f:
                digests.append((fn, hashlib.sha256(f.read()).hexdigest()))
        return digests
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("root", help="checkout root holding src/ and perfbench/")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--max-ops", type=int, default=30)
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    for name in SIMULATIONS:
        res = run_workload(root, name, args.seed, args.max_ops)
        print("%-13s steps=%d failed_ops=%d report_sha256=%s"
              % (name, res["counts"]["steps"], res["failed_ops"],
                 res["counts"]["report_sha256"]))
    res = run_workload(root, "diagnostics", args.seed, args.max_ops)
    print("%-13s pairs=%d failed_ops=%d %s"
          % ("diagnostics", res["counts"]["pairs"], res["failed_ops"],
             " ".join("%s=%r" % (c["name"], c["value"]) for c in res["checks"])))
    for name, text in CLI_SCENES.items():
        for fn, digest in cli_digests(root, name, text):
            print("%-13s %-18s sha256=%s" % (name, fn, digest))


if __name__ == "__main__":
    main()
