"""Deterministic outputs of a checkout, for checking that a change keeps them.

    python3 scripts/report_hashes.py ROOT [--seed 1] [--max-ops 30]

Runs `ROOT/perfbench/workload.py` for a fixed number of ops on circle,
lines-kdtree and grains and prints each run's `report_sha256` (the digest of
every step report), then runs the diagnostics workload for the same number
of ops and prints its check values in full precision.  Two checkouts whose
lines match produce the same step reports and diagnostics.  Work files go to
ROOT/.bench_build/report_hashes/ and are removed by the workload; nothing
else is written.
"""

import argparse
import json
import os
import subprocess
import sys
import time

SIMULATIONS = ["circle", "lines-kdtree", "grains"]


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


if __name__ == "__main__":
    main()
