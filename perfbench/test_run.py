"""The benchmark's own test: every workload on shortened inputs.

Run from the repository root with

    python3 -m pytest perfbench/test_run.py

Each workload runs once untraced and once traced with --small and a
one-second budget (the two rounds every run makes).  The test asserts
that the last line carries every metric BENCHMARK.json names, with its
unit, and that the workload's checks ran and passed.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_passes_checks(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--small"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
    assert result["attempted"] >= 1
    assert result["failed"] == 0

    detail = json.loads(
        (HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    names = [c["name"] for c in detail["checks"]]
    assert {"inputs.same_for_seed", "rounds.identical",
            "estimates.only_expected_failures"} <= set(names)
    assert detail["rounds"] >= 2
    if trace:
        assert "trace.counts_repeat" in names
    assert any(n.split(".")[0] not in ("inputs", "rounds", "estimates",
                                        "trace") for n in names), names
    assert all(c["passed"] for c in detail["checks"]), detail["checks"]
    assert result["correct"] is True


def test_refuses_to_run_without_the_library(tmp_path):
    """In a directory holding only the benchmark, it fails and prints no
    result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
