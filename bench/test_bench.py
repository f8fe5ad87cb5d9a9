"""Self-test of the benchmark, in its short mode (``--seconds 1``).

    python3 -m pytest bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit and
direction, and that a corrupted result is counted as a failure, not a crash.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run as bench
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=BENCH.parent,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize(
    "workload, trace, section",
    [("palma-28", 0, "end_to_end"), ("palma-28-par2", 0, "end_to_end"), ("fleet-mixed", 1, "per_layer")],
)
def test_every_metric_is_emitted_with_unit_and_direction(workload, trace, section):
    table, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC[section]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
        row = next(line.split() for line in table if line.split()[:1] == [m["name"]])
        assert row[2:4] == [m["unit"], m["better"]], row


def _corrupt(report):
    """Shift one bike of the best solution's first nonempty plan onto a station."""
    best = report.best_solution
    plans = list(best.plans)
    i = next(i for i, plan in enumerate(plans) if plan.moves)
    moves = list(plans[i].moves)
    op, dam = moves[1]
    moves[1] = (op + 1, dam)
    plans[i] = replace(plans[i], moves=tuple(moves))
    return replace(report, best_solution=replace(best, plans=tuple(plans)))


def test_corrupted_plan_is_a_failure_not_a_crash():
    ssbrp = workloads.import_ssbrp()
    workload = workloads.WORKLOADS["palma-28"]
    instance, _ = workloads.set_up(workload)
    seeds = bench.master_seeds(3, 3)

    def corrupted(inst, config):
        return _corrupt(ssbrp.run(inst, config))

    def raising(inst, config):
        raise RuntimeError("solver crashed")

    honest = bench.solve_all(instance, workload, seeds, 1)
    assert all(not c.failures for c in honest)
    for solve in (corrupted, raising):
        calls = bench.solve_all(instance, workload, seeds, 1, solve=solve)
        assert len(calls) == len(seeds)
        assert all(c.failures for c in calls), [c.failures for c in calls]
