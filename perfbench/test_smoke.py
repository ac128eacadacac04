"""Smoke test of the benchmark: a short pass of every workload.

    python3 perfbench/test_smoke.py          (or: python3 -m pytest perfbench)

For each workload it checks that an untraced pass prints every end-to-end
metric of BENCHMARK.json with its unit and no failed operation, and that two
traced passes with the same seed print every per-layer metric and agree
exactly on the work counts.  One workload takes from a few seconds to about
a minute (sentence-sat runs its ~10 s straggler once per loop).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from tracing import COUNT_NAMES

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def bench(workload, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def assert_metrics(line, spec_metrics):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == want


def check_workload(workload):
    e2e = bench(workload, 0)
    assert_metrics(e2e, SPEC["end_to_end"])
    assert e2e["metrics"]["ok_ratio"]["value"] == 1.0
    first, second = bench(workload, 1), bench(workload, 1)
    for line in (first, second):
        assert_metrics(line, SPEC["per_layer"])
    counts = [{k: line["metrics"][k]["value"] for k in COUNT_NAMES}
              for line in (first, second)]
    assert counts[0] == counts[1]
    assert any(counts[0].values()), f"{workload} recorded no work counts"


def test_sentence_unsat():
    check_workload("sentence-unsat")


def test_sentence_sat():
    check_workload("sentence-sat")


def test_ca_scan():
    check_workload("ca-scan")


def test_kernel_laws():
    check_workload("kernel-laws")


if __name__ == "__main__":
    for spec in SPEC["workloads"]:
        check_workload(spec["name"])
        print(f"ok  {spec['name']}")
