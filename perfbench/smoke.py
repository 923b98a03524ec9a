"""Smoke test of the benchmark: every workload at toy size, traced and untraced.

Each run must exit 0 with a correct result whose metric names are exactly
the ``end_to_end`` (``--trace 0``) or ``per_layer`` (``--trace 1``) names
declared in ``BENCHMARK.json``.  Run it from the repository root, either
directly or through pytest::

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_toy(workload: str, trace: int) -> dict:
    """Run one toy-size benchmark and return its result line."""
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--toy",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_every_workload_prints_exactly_the_declared_metrics() -> None:
    benchmark = declared()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        names = {metric["name"]: metric["unit"] for metric in benchmark[section]}
        for workload in benchmark["workloads"]:
            result = run_toy(workload["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert printed == names, (workload["name"], trace)


if __name__ == "__main__":
    test_every_workload_prints_exactly_the_declared_metrics()
    print("smoke: ok")
