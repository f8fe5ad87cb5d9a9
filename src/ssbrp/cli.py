"""Command-line interface: solve, sweep, validate, generate."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, replace

from .construction import ConstructionParams
from .instances import (
    DocumentError,
    Family,
    GeneratorConfig,
    _number,
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
    gammas = {"--gamma-d": args.gamma_d, "--gamma-a": args.gamma_a, "--gamma-t": args.gamma_t}
    for flag, gamma in gammas.items():
        if not math.isfinite(gamma):
            raise ValueError(f"{flag} must be finite, got {gamma}")
        if gamma < 0:
            raise ValueError(f"{flag} must be nonnegative, got {gamma}")
    if not any(gammas.values()):
        raise ValueError("--gamma-d, --gamma-a and --gamma-t are all 0; at least one must be positive")
    return ObjectiveWeights(*gammas.values())


def cmd_solve(args) -> int:
    config = RunConfig(
        max_iter=args.max_iter,
        master_seed=args.seed,
        weights=_weights(args),
        construction=ConstructionParams(args.theta, args.mu),
    )
    report = run(_load_instance(args.instance), config)
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
        f"{report.loading_skipped} skipped by the bound, "
        f"{report.loading_certified} certified by it)"
    )
    if args.out:
        construction, weights = asdict(config.construction), asdict(config.weights)
        params = construction | {"max_iter": config.max_iter} | weights
        doc = write_solution(report.best_solution, seed=config.master_seed, params=params)
        _dump_json(doc, args.out)
        print(f"solution written to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    thetas = tuple(args.theta) if args.theta else DEFAULT_THETA_GRID
    mus = tuple(args.mu) if args.mu else DEFAULT_MU_GRID
    # every cell's configuration is checked before any instance is built or run
    weights = _weights(args)
    configs = {
        (theta, mu): RunConfig(
            max_iter=args.max_iter, weights=weights, construction=ConstructionParams(theta, mu)
        )
        for theta in thetas
        for mu in mus
    }
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

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(SWEEP_COLUMNS)
    failed = False
    for label, instances in corpora:
        # one entry per distinct (theta, mu) cell, first seen first: a repeated value runs once
        for (theta, mu), cell in configs.items():
            results = []
            for instance in instances:
                for seed in range(args.seed, args.seed + args.seeds):
                    try:
                        results.append(run(instance, replace(cell, master_seed=seed)))
                    except Exception as exc:  # reported per run; the sweep goes on
                        print(f"sweep cell ({label}, {theta}, {mu}) seed {seed} failed: {exc}",
                              file=sys.stderr)
                        failed = True
            if results:
                totals = [r.best_objective.total for r in results]
                iters = [r.iteration_of_best for r in results]
                cpus = [r.elapsed_total for r in results]
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
    if not isinstance(stored, dict):
        print("objective: wrong type")
        return 1
    status = 0
    for label, value in asdict(recomputed.objective).items():
        try:
            number = _number(stored, label, "objective.")
        except DocumentError as exc:  # missing, not a number, or not finite
            print(exc)
            status = 1
            continue
        if abs(number - value) > 1e-9:
            print(f"objective.{label}: stored {stored[label]} but recomputed {value:.12f}")
            status = 1
    if status == 0:
        print("solution is feasible and its objective matches")
    return status


def cmd_generate(args) -> int:
    config = GeneratorConfig(
        family=Family(args.family),
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
    config, gammas = RunConfig(), ObjectiveWeights()  # the library's defaults
    parser.add_argument("--seed", type=int, default=config.master_seed, help="master random seed")
    parser.add_argument("--max-iter", type=int, default=config.max_iter,
                        help="consecutive non-improving iterations before stopping")
    parser.add_argument("--gamma-d", type=float, default=gammas.gamma_d,
                        help="imbalance term weight")
    parser.add_argument("--gamma-a", type=float, default=gammas.gamma_a, help="damaged term weight")
    parser.add_argument("--gamma-t", type=float, default=gammas.gamma_t, help="time term weight")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssbrp",
        description="Bike-sharing repositioning: two-phase matheuristic solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    params, generated = ConstructionParams(), GeneratorConfig()  # the library's defaults

    p_solve = sub.add_parser("solve", help="solve one instance and report the best solution")
    p_solve.add_argument("--instance", required=True, help="instance document path")
    p_solve.add_argument("--out", help="write the best solution document here")
    p_solve.add_argument("--theta", type=float, default=params.theta, help="greediness exponent")
    p_solve.add_argument("--mu", type=float, default=params.mu, help="depot-return multiplier")
    _add_run_flags(p_solve)
    p_solve.set_defaults(handler=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="grid-sweep construction parameters, emit CSV")
    p_sweep.add_argument("--instance", action="append",
                         help="instance document path (repeatable); omit to generate defaults")
    p_sweep.add_argument("--family", choices=[f.value for f in Family],
                         help="restrict generated instances to one family")
    p_sweep.add_argument("--out", help="CSV output path (default: stdout)")
    p_sweep.add_argument("--theta", action="append", type=float,
                         help="theta grid value (repeatable; default "
                         f"{' '.join(map(str, DEFAULT_THETA_GRID))})")
    p_sweep.add_argument("--mu", action="append", type=float,
                         help="mu grid value (repeatable; default "
                         f"{' '.join(map(str, DEFAULT_MU_GRID))})")
    p_sweep.add_argument("--seeds", type=int, default=1, help="seeds per grid cell")
    p_sweep.add_argument("--damaged-fraction", type=float, default=generated.damaged_fraction,
                         help="damaged fraction for generated default instances")
    _add_run_flags(p_sweep)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_validate = sub.add_parser("validate", help="check a solution document against an instance")
    p_validate.add_argument("--instance", required=True, help="instance document path")
    p_validate.add_argument("--solution", required=True, help="solution document path")
    p_validate.set_defaults(handler=cmd_validate)

    p_generate = sub.add_parser("generate", help="generate a reproducible instance")
    p_generate.add_argument("--family", choices=[f.value for f in Family],
                            default=generated.family.value)
    p_generate.add_argument("--out", help="instance output path (default: stdout)")
    p_generate.add_argument("--stations", type=int, help="station count (family default otherwise)")
    p_generate.add_argument("--vehicles", type=int, help="fleet size")
    p_generate.add_argument("--capacity", type=int, help="vehicle capacity")
    p_generate.add_argument("--time-budget-min", type=float, help="route time budget in minutes")
    p_generate.add_argument("--depot-stock", type=int, help="initial operative bikes at the depot")
    p_generate.add_argument("--damaged-fraction", type=float, default=generated.damaged_fraction)
    p_generate.add_argument("--seed", type=int, default=generated.seed)
    p_generate.set_defaults(handler=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # checked before any command reads or writes a file
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        return args.handler(args)
    except (OSError, ValueError, RuntimeError) as exc:  # RuntimeError: a phase-two solve failed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
