"""Command-line benchmark harness: solve, sweep, validate, generate."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from time import perf_counter

from .construction import ConstructionParams
from .instances import (
    DocumentError,
    Family,
    GeneratorConfig,
    generate_instance,
    parse_instance,
    parse_solution,
    write_instance,
    write_solution,
)
from .model import Instance, ObjectiveWeights
from .search import RunConfig, run

DEFAULT_THETA_GRID = (0.3, 0.5, 0.8)
DEFAULT_MU_GRID = (1.0, 1.5, 2.0)
SWEEP_COLUMNS = (
    "family", "theta", "mu", "of_mean", "of_best",
    "iter_mean", "cpu_mean_s", "n_instances", "n_seeds",
)


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _dump_json(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _load_instance(path: str) -> Instance:
    return parse_instance(_load_json(path))


def _weights(args) -> ObjectiveWeights:
    return ObjectiveWeights(args.gamma_d, args.gamma_a, args.gamma_t)


def _solve_params(args) -> dict:
    return {
        "theta": args.theta,
        "mu": args.mu,
        "max_iter": args.max_iter,
        "gamma_d": args.gamma_d,
        "gamma_a": args.gamma_a,
        "gamma_t": args.gamma_t,
    }


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    config = RunConfig(
        max_iter=args.max_iter,
        master_seed=args.seed,
        weights=_weights(args),
        construction=ConstructionParams(args.theta, args.mu),
    )
    report = run(instance, config)
    obj = report.best_objective
    print(
        f"objective total {obj.total:.6f} "
        f"(imbalance {obj.imbalance:.6f}, damaged {obj.damaged:.6f}, time {obj.time:.6f})"
    )
    print(f"best found at iteration {report.iteration_of_best} of {report.total_iterations}")
    print(
        f"elapsed {report.elapsed_total:.2f} s "
        f"(construction {report.elapsed_construction:.2f} s, "
        f"loading {report.elapsed_loading:.2f} s, "
        f"{report.loading_skipped} skipped by the bound)"
    )
    if args.out:
        doc = write_solution(report.best_solution, seed=args.seed, params=_solve_params(args))
        _dump_json(doc, args.out)
        print(f"solution written to {args.out}")
    return 0


def _sweep_run(instance: Instance, theta: float, mu: float, seed: int, args):
    config = RunConfig(
        max_iter=args.max_iter,
        master_seed=seed,
        weights=_weights(args),
        construction=ConstructionParams(theta, mu),
    )
    t0 = perf_counter()
    report = run(instance, config)
    return report.best_objective.total, report.iteration_of_best, perf_counter() - t0


def cmd_sweep(args) -> int:
    families = [Family(args.family)] if args.family else [Family.PALMA, Family.WIEN]
    corpora: list[tuple[str, list[Instance]]] = []
    if args.instance:
        label = args.family if args.family else "custom"
        corpora.append((label, [_load_instance(path) for path in args.instance]))
    else:
        for family in families:
            config = GeneratorConfig(
                family=family, damaged_fraction=args.damaged_fraction, seed=args.seed
            )
            corpora.append((family.value, [generate_instance(config)]))

    thetas = tuple(args.theta) if args.theta else DEFAULT_THETA_GRID
    mus = tuple(args.mu) if args.mu else DEFAULT_MU_GRID
    cells: dict[tuple[str, float, float], list[tuple[float, int, float]]] = {}
    failed = False
    for label, instances in corpora:
        for theta in thetas:
            for mu in mus:
                for instance in instances:
                    for seed in range(args.seed, args.seed + args.seeds):
                        try:
                            result = _sweep_run(instance, theta, mu, seed, args)
                        except Exception as exc:  # reported per run; the sweep goes on
                            print(f"sweep cell ({label}, {theta}, {mu}) seed {seed} failed: {exc}",
                                  file=sys.stderr)
                            failed = True
                            continue
                        cells.setdefault((label, theta, mu), []).append(result)

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(SWEEP_COLUMNS)
    for label, instances in corpora:
        for theta in thetas:
            for mu in mus:
                results = cells.get((label, theta, mu), [])
                if results:
                    totals = [r[0] for r in results]
                    iters = [r[1] for r in results]
                    cpus = [r[2] for r in results]
                    of_mean = sum(totals) / len(totals)
                    of_best = min(totals)
                    iter_mean = sum(iters) / len(iters)
                    cpu_mean = sum(cpus) / len(cpus)
                else:
                    of_mean = of_best = iter_mean = cpu_mean = math.nan
                writer.writerow(
                    [
                        label,
                        f"{theta:g}",
                        f"{mu:g}",
                        f"{of_mean:.6f}",
                        f"{of_best:.6f}",
                        f"{iter_mean:.2f}",
                        f"{cpu_mean:.3f}",
                        len(instances),
                        args.seeds,
                    ]
                )
    text = buffer.getvalue()
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
        print(f"sweep report written to {args.out}")
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


def cmd_validate(args) -> int:
    instance = _load_instance(args.instance)
    document = _load_json(args.solution)
    try:
        recomputed = parse_solution(document, instance)
    except DocumentError as exc:
        print(str(exc))
        return 1
    stored = document.get("objective", {})
    labels = ("imbalance", "damaged", "time", "total")
    recomputed_values = (
        recomputed.objective.imbalance,
        recomputed.objective.damaged,
        recomputed.objective.time,
        recomputed.objective.total,
    )
    status = 0
    for label, value in zip(labels, recomputed_values):
        if label not in stored:
            print(f"objective.{label}: missing")
            status = 1
            continue
        if abs(float(stored[label]) - value) > 1e-9:
            print(f"objective.{label}: stored {stored[label]} but recomputed {value:.12f}")
            status = 1
    if status == 0:
        print("solution is feasible and its objective matches")
    return status


def cmd_generate(args) -> int:
    config = GeneratorConfig(
        family=Family(args.family or "palma"),
        stations=args.stations,
        vehicles=args.vehicles,
        vehicle_capacity=args.capacity,
        time_budget_min=args.time_budget_min,
        depot_stock=args.depot_stock,
        damaged_fraction=args.damaged_fraction,
        seed=args.seed,
    )
    instance = generate_instance(config)
    total_imbalance = sum(abs(s.imbalance) for s in instance.stations)
    total_damaged = sum(s.damaged for s in instance.stations)
    fleet_capacity = sum(v.capacity for v in instance.fleet)
    _dump_json(write_instance(instance), args.out)
    summary = (
        f"{len(instance.stations)} stations, total |imbalance| {total_imbalance}, "
        f"total damaged {total_damaged}, fleet capacity {fleet_capacity}"
    )
    if args.out is None:
        print(summary, file=sys.stderr)  # document itself went to stdout
    else:
        print(f"{args.out}: {summary}")
    return 0


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--max-iter", type=int, default=500,
                        help="consecutive non-improving iterations before stopping")
    parser.add_argument("--gamma-d", type=float, default=1.0, help="imbalance term weight")
    parser.add_argument("--gamma-a", type=float, default=1.0, help="damaged term weight")
    parser.add_argument("--gamma-t", type=float, default=1.0, help="time term weight")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssbrp",
        description="Bike-sharing repositioning: two-phase matheuristic benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance and report the best solution")
    p_solve.add_argument("--instance", required=True, help="instance document path")
    p_solve.add_argument("--out", help="write the best solution document here")
    p_solve.add_argument("--theta", type=float, default=0.5, help="greediness exponent")
    p_solve.add_argument("--mu", type=float, default=1.5, help="depot-return multiplier")
    _add_run_flags(p_solve)
    p_solve.set_defaults(handler=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="grid-sweep construction parameters, emit CSV")
    p_sweep.add_argument("--instance", action="append",
                         help="instance document path (repeatable); omit to generate defaults")
    p_sweep.add_argument("--family", choices=[f.value for f in Family],
                         help="restrict generated instances to one family")
    p_sweep.add_argument("--out", help="CSV output path (default: stdout)")
    p_sweep.add_argument("--theta", action="append", type=float,
                         help="theta grid value (repeatable; default 0.3 0.5 0.8)")
    p_sweep.add_argument("--mu", action="append", type=float,
                         help="mu grid value (repeatable; default 1.0 1.5 2.0)")
    p_sweep.add_argument("--seeds", type=int, default=1, help="seeds per grid cell")
    p_sweep.add_argument("--damaged-fraction", type=float, default=0.1,
                         help="damaged fraction for generated default instances")
    _add_run_flags(p_sweep)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_validate = sub.add_parser("validate", help="check a solution document against an instance")
    p_validate.add_argument("--instance", required=True, help="instance document path")
    p_validate.add_argument("--solution", required=True, help="solution document path")
    p_validate.set_defaults(handler=cmd_validate)

    p_generate = sub.add_parser("generate", help="generate a reproducible instance")
    p_generate.add_argument("--family", choices=[f.value for f in Family], default="palma")
    p_generate.add_argument("--out", help="instance output path (default: stdout)")
    p_generate.add_argument("--stations", type=int, help="station count (family default otherwise)")
    p_generate.add_argument("--vehicles", type=int, help="fleet size")
    p_generate.add_argument("--capacity", type=int, help="vehicle capacity")
    p_generate.add_argument("--time-budget-min", type=float, help="route time budget in minutes")
    p_generate.add_argument("--depot-stock", type=int, help="initial operative bikes at the depot")
    p_generate.add_argument("--damaged-fraction", type=float, default=0.1)
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.set_defaults(handler=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
