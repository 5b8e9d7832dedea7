"""Alternating benchmark pairs between two checkouts, with the gain verdict.

    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload diagnostics \
        --pairs 10 --seconds 30 --seed 501

Pair i runs `perfbench/run.py --trace 0 --seed SEED+i` once in each checkout,
each from its own perfbench/ and src/; the first side switches from pair to
pair.  For every end-to-end metric that BENCHMARK.json lists, it prints each
side's median and quartiles, the pairs the change won (ties count for
neither side) and a verdict:

    gain       the change won at least 9/10 of the pairs and its median is
               better than the parent's by more than the parent's
               interquartile range
    worse      the change's median is worse than the parent's by more than
               the metric's relative bound
    unresolved the parent's or the change's spread (IQR over median) is
               wider than the bound, and not every change run beats every
               parent run
    held       otherwise: no worse than the bound allows

It also prints each side's failed/attempted ops.  Each run's full output
goes to ROOT/.bench_build/bench_pairs/ of the checkout that ran it; nothing
else is written.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys


def perfbench_digest(root):
    digest = hashlib.sha256()
    folder = os.path.join(root, "perfbench")
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return digest.hexdigest()


def run_once(root, workload, seed, seconds):
    """One perfbench run in `root`; returns its result object."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    logs = os.path.join(root, ".bench_build", "bench_pairs")
    os.makedirs(logs, exist_ok=True)
    with open(os.path.join(logs, "%s-seed%d.log" % (workload, seed)), "w") as f:
        f.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise SystemExit("bench_pairs: %s exited with code %d:\n%s"
                         % (" ".join(cmd), proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(a, b, better, bound):
    """(wins of b, verdict) for one metric over paired runs a[i], b[i]."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - a) < 0: b better
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0.0)
    qa, qb = quartiles(a), quartiles(b)
    iqr_a, iqr_b = qa[2] - qa[0], qb[2] - qb[0]
    gap = sign * (qa[1] - qb[1])  # > 0: the change's median is better
    if wins >= 0.9 * len(a) and gap > iqr_a:
        return wins, "gain"
    if -gap > bound * abs(qa[1]):
        return wins, "worse"
    spread = max(iqr_a / abs(qa[1]) if qa[1] else 0.0,
                 iqr_b / abs(qb[1]) if qb[1] else 0.0)
    every = all(sign * (y - x) < 0.0 for x in a for y in b)
    if spread > bound and not every:
        return wins, "unresolved"
    return wins, "held"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="checkout root of the parent commit")
    p.add_argument("change", help="checkout root of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = p.parse_args(argv)
    roots = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    if perfbench_digest(roots[0]) != perfbench_digest(roots[1]):
        print("warning: the two checkouts' perfbench/ differ", file=sys.stderr)
    with open(os.path.join(roots[0], "BENCHMARK.json")) as f:
        gated = json.load(f)["end_to_end"]

    results = ([], [])
    for i in range(args.pairs):
        seed = args.seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            results[side].append(run_once(roots[side], args.workload, seed,
                                          args.seconds))
        print("pair %d seed %d: %s" % (i + 1, seed, "  ".join(
            "%s %.4g/%.4g" % (m["name"], results[0][-1]["metrics"][m["name"]]["value"],
                              results[1][-1]["metrics"][m["name"]]["value"])
            for m in gated)), flush=True)

    print("\n%s, %d pairs of %g s runs, seeds %d-%d (parent/change)"
          % (args.workload, args.pairs, args.seconds, args.seed,
             args.seed + args.pairs - 1))
    print("%-14s %-7s %29s %29s %6s  %s" % ("metric", "unit",
                                           "parent q1 / median / q3",
                                           "change q1 / median / q3",
                                           "wins", "verdict"))
    for m in gated:
        a = [r["metrics"][m["name"]]["value"] for r in results[0]]
        b = [r["metrics"][m["name"]]["value"] for r in results[1]]
        wins, word = verdict(a, b, m["better"], m["bound"])
        print("%-14s %-7s %29s %29s %3d/%-2d  %s (bound %g)" % (
            m["name"], m["unit"],
            "%.4g / %.4g / %.4g" % quartiles(a),
            "%.4g / %.4g / %.4g" % quartiles(b), wins, len(a), word,
            m["bound"]))
    for name, res in zip(("parent", "change"), results):
        print("%s failed/attempted ops: %d/%d" % (
            name, sum(r["failed"] for r in res), sum(r["attempted"] for r in res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
