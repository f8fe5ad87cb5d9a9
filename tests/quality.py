"""Solution quality over master seeds: how good ``run()``'s best is, not how fast.

``python tests/quality.py [--full] [--ladder] [--out FILE]`` runs ``run()``
at ``max_iter=500`` on three workloads, once per master seed (1-5, or 1-20
with ``--full``):

- palma-28 and wien-90, the scale-smoke pair of the acceptance tests;
- fleet-mixed, the benchmark's mixed fleet (``fleet_mixed(1)``).

``--ladder`` adds a scale ladder at ``max_iter=100`` over the same seeds:
wien-180 with 6 vehicles and wien-300 with 10, the generator's wien
instances with only the fleet size changed. The 3-vehicle workloads test
only how little a few vehicles can do on many stations.

Per workload it prints and writes the quartiles of the best total, the
share of seeds whose best is above do-nothing's total and the median
``iteration_of_best``, beside each seed's best and iteration. Those are
deterministic at a fixed seed; the median wall time is reported too and is
not compared.

``python tests/quality.py --compare BEFORE AFTER`` reads two reports of the
same seeds and prints, per workload, a seed-by-seed sign test: the seeds on
which AFTER's best total is lower, higher or equal, and the exact two-sided
p-value of the lower and higher counts. When both reports have a ladder, its
rungs are compared too, at one ladder max_iter.

This module is a helper for the tests, not a test file; it needs only the
standard library and ssbrp.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import statistics
import sys
from pathlib import Path

if __name__ == "__main__":  # a script run imports the sources beside it, installed or not
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from ssbrp import (
    Family,
    GeneratorConfig,
    Instance,
    ObjectiveWeights,
    RunConfig,
    Vehicle,
    empty_solution,
    generate_instance,
    run,
)

MAX_ITER = 500
LADDER_MAX_ITER = 100
SEEDS = range(1, 6)
FULL_SEEDS = range(1, 21)


def fleet_mixed(seed: int) -> Instance:
    """The benchmark's fleet-mixed shape: 15 wien stations, six vehicles of
    capacity 5 to 17, listed ascending, so many visits per station; many
    route sets cannot win, and on instance seed 1 most constructed plans
    meet the bound."""
    generated = generate_instance(
        GeneratorConfig(
            family=Family.WIEN, stations=15, damaged_fraction=0.3, depot_stock=10, seed=seed
        )
    )
    fleet = tuple(Vehicle(i, k) for i, k in enumerate((5, 7, 9, 11, 13, 17), start=1))
    return dataclasses.replace(generated, fleet=fleet)


def workloads() -> dict[str, Instance]:
    return {
        "palma-28": generate_instance(GeneratorConfig(family=Family.PALMA, seed=1)),
        "wien-90": generate_instance(GeneratorConfig(family=Family.WIEN, stations=90, seed=1)),
        "fleet-mixed": fleet_mixed(1),
    }


def ladder() -> dict[str, Instance]:
    """The scale ladder's rungs: wien instances with a fleet grown beside them."""
    return {
        f"wien-{stations}": generate_instance(
            GeneratorConfig(family=Family.WIEN, stations=stations, vehicles=vehicles, seed=1)
        )
        for stations, vehicles in ((180, 6), (300, 10))
    }


def summarize(instance: Instance, seeds: list[int], max_iter: int) -> dict:
    """One workload's row: ``run()``'s best total once per master seed, summarized."""
    do_nothing = empty_solution(instance, ObjectiveWeights()).objective.total
    best, iteration, seconds = [], [], []
    for seed in seeds:
        result = run(instance, RunConfig(max_iter=max_iter, master_seed=seed))
        best.append(result.best_objective.total)
        iteration.append(result.iteration_of_best)
        seconds.append(result.elapsed_total)
    return {
        "do_nothing": do_nothing,
        "best_quartiles": statistics.quantiles(best, n=4, method="inclusive"),
        "share_above_do_nothing": sum(b > do_nothing for b in best) / len(best),
        "median_iteration_of_best": statistics.median(iteration),
        "median_seconds": statistics.median(seconds),
        "best": best,
        "iteration_of_best": iteration,
    }


def report(seeds=SEEDS, max_iter: int = MAX_ITER, ladder_max_iter: int | None = None) -> dict:
    """Run every workload once per master seed and summarize the best totals;
    with ``ladder_max_iter``, the ladder's rungs too, at that max_iter."""
    seeds = list(seeds)
    out = {
        "max_iter": max_iter,
        "seeds": seeds,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "workloads": {name: summarize(inst, seeds, max_iter) for name, inst in workloads().items()},
    }
    if ladder_max_iter is not None:
        out["ladder"] = {
            "max_iter": ladder_max_iter,
            "workloads": {
                name: summarize(inst, seeds, ladder_max_iter) for name, inst in ladder().items()
            },
        }
    return out


def print_rows(rows: dict[str, dict]) -> None:
    print("workload      best: q1 / median / q3     above do-nothing  median iteration  median wall")
    for name, row in rows.items():
        q1, median, q3 = row["best_quartiles"]
        print(
            f"{name:12s}  {q1:.4f} / {median:.4f} / {q3:.4f}  "
            f"{row['share_above_do_nothing']:16.0%}  {row['median_iteration_of_best']:16g}  "
            f"{row['median_seconds']:9.2f} s"
        )


def sign_test(before: dict, after: dict) -> dict[str, dict]:
    """Per workload, and per ladder rung when both reports have a ladder, the
    seeds on which ``after``'s best is lower, higher and equal, and the exact
    two-sided sign-test p-value of lower against higher."""
    if before["seeds"] != after["seeds"] or before["max_iter"] != after["max_iter"]:
        raise ValueError("the reports differ in seeds or max_iter")
    sections = [(before["workloads"], after["workloads"])]
    if "ladder" in before and "ladder" in after:
        if before["ladder"]["max_iter"] != after["ladder"]["max_iter"]:
            raise ValueError("the reports' ladders differ in max_iter")
        sections.append((before["ladder"]["workloads"], after["ladder"]["workloads"]))
    out = {}
    for rows, new_rows in sections:
        for name, old in rows.items():
            pairs = list(zip(old["best"], new_rows[name]["best"]))
            lower = sum(b < a for a, b in pairs)
            higher = sum(b > a for a, b in pairs)
            n = lower + higher
            tail = sum(math.comb(n, k) for k in range(min(lower, higher) + 1)) / 2**n
            out[name] = {
                "lower": lower,
                "higher": higher,
                "equal": len(pairs) - n,
                "p_value": min(1.0, 2 * tail),
            }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="master seeds 1-20 instead of 1-5")
    parser.add_argument("--ladder", action="store_true", help="add the wien-180 and wien-300 rungs")
    parser.add_argument("--out", type=Path, help="write the report as JSON to this file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(path.read_text()) for path in args.compare)
        print("workload      lower  higher  equal  p-value")
        for name, row in sign_test(before, after).items():
            counts = f"{row['lower']:5d}  {row['higher']:6d}  {row['equal']:5d}"
            print(f"{name:12s}  {counts}  {row['p_value']:7.2g}")
        return 0
    result = report(
        FULL_SEEDS if args.full else SEEDS, ladder_max_iter=LADDER_MAX_ITER if args.ladder else None
    )
    seeds = f"master seeds {result['seeds'][0]}-{result['seeds'][-1]}"
    print(f"max_iter={result['max_iter']}, {seeds}")
    print_rows(result["workloads"])
    if "ladder" in result:
        print(f"\nladder: max_iter={result['ladder']['max_iter']}, {seeds}")
        print_rows(result["ladder"]["workloads"])
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
