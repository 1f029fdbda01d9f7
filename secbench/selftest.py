"""Smoke tests of the benchmark command, one block per run.

Run from the repository root:

    python3 -m pytest -q secbench/selftest.py

With ``--seconds 0`` the command runs a single block of each workload (100 to
500 trials), so every check it makes, the recorded-reference check at the
default and the holdout seed included, is exercised in about three minutes.
The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
from run import DEFAULT_SEED, HOLDOUT_SEED, OUT, REFERENCE  # noqa: E402


def bench(workload: str, seed: int, trace: int) -> list:
    done = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0",
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def printed(lines: list, name: str, unit: str) -> bool:
    return any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)


def check_result(lines: list, metrics: list) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in metrics}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert printed(lines[:-1], name, unit), name
    return result


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HOLDOUT_SEED])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run(workload, seed):
    assert (REFERENCE / f"{workload}-{seed}.csv").is_file()
    lines = bench(workload, seed, trace=0)
    result = check_result(lines, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert printed(lines, "estimator_fail_rate", "ratio")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    lines = bench(workload, DEFAULT_SEED, trace=1)
    result = check_result(lines, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    trace = json.loads((OUT / f"{workload}-trace.json").read_text(encoding="utf-8"))
    loads = sum(1 for span in trace["spans"] if span[0] == "config.load")
    self_ms = metrics["config.load_ms"] * loads + trace["traced_trials"] * sum(
        value for name, value in metrics.items() if name.endswith("_ms") and name != "config.load_ms"
    )
    traced, untraced = trace["traced_wall_s"], trace["untraced_wall_s"]
    # The layers' self times cover the traced wall time up to the cost of the
    # wrappers themselves, which is what the traced run adds.
    assert abs(traced - self_ms / 1e3) <= abs(traced - untraced) + 1e-3 * traced
    assert metrics["trace.overhead"] == pytest.approx(traced / untraced)
