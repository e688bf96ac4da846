"""Self-test of the benchmark at a tiny size.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs once untraced, for a single round, and twice traced.
The test checks the output contract against BENCHMARK.json and that
the per-layer counts repeat exactly between the two traced runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "count/solve"}


def run_bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / SPEC["command"][1]), "--workload", workload,
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return result


def assert_metrics(result: dict, specs: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"], spec["name"]
        assert isinstance(got["value"], (int, float)), spec["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    result = run_bench(workload, trace=0)
    assert_metrics(result, SPEC["end_to_end"])
    for spec in SPEC["end_to_end"]:
        if spec["name"] != "tightness.p50":
            assert result["metrics"][spec["name"]]["value"] > 0, spec["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_counts_repeat(workload):
    first, second = run_bench(workload, trace=1), run_bench(workload, trace=1)
    assert_metrics(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in COUNT_UNITS or m["name"] == "stability.memo_hit_ratio"]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }
    assert first["attempted"] == second["attempted"]
