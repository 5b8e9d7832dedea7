"""Smoke test of the benchmark itself: a few ops per workload.

Run from the checkout root:  python3 -m pytest -q perfbench/test_smoke.py

For every workload, in both modes, every metric BENCHMARK.json names must
print with its unit (in the text block and in the final JSON line), and every
output check of the workload must run and pass.  A directory holding only
BENCHMARK.json and perfbench/ must make the benchmark fail without a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

CHECKS = {
    "circle": {"no_violations", "radius_rel_err"},
    "grains": {"final_partition_valid", "area_sum_err",
               "steps_with_accepted_move"},
    "paper-slab": {"masses_not_exactly_2", "max_displacement"},
    "lines-kdtree": {"summed_max_displacement", "no_violations"},
    "diagnostics": {"pair_rel_err", "huisken_err", "density_err"},
}


def bench(workload, trace, cwd=ROOT, script=None):
    return subprocess.run(
        [sys.executable, script or os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "0.05",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_workloads_are_known():
    assert {w["name"] for w in SPEC["workloads"]} <= set(CHECKS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(CHECKS))
def test_metrics_print_and_checks_run(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    text = {line.split()[0]: line.split() for line in lines[:-1] if line.strip()}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert text[m["name"]][2] == m["unit"]
    ran = {line.split()[1] for line in lines if line.startswith("check ")}
    assert ran == CHECKS[workload]
    assert all(" ok " in line for line in lines if line.startswith("check "))


def test_fails_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("circle", 0, cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
