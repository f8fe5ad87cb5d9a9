"""Benchmark of ssbrp's multi-start solver, end to end and layer by layer.

    python3 bench/run.py --workload palma-28 --seed 1 --seconds 20 --trace 0

One run solves a workload's instance with ``run()`` once per master seed
derived from ``--seed``, checks every result, and prints a table followed by
one JSON line: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. End-to-end solve times are in
units of the reference kernel's time (see reference.py). Metric names,
units and directions come from BENCHMARK.json at the repository root. See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import workloads
from reference import QUIET_HOST_S, reference_s
from tracing import Tracer
from workloads import WORKLOADS, Workload

ssbrp = workloads.import_ssbrp()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5
TWIN_CHECKS = 5  # par2 calls re-solved sequentially in an untraced run
REFERENCE_WARM_UP = 20  # untimed passes of the reference kernel


@dataclass
class Call:
    """One run() call: its master seed, wall time, report and failed checks."""

    master_seed: int
    wall_s: float | None = None
    report: object = None
    failures: list[str] = field(default_factory=list)


@dataclass
class Measurement:
    """What one run measured: metric values, notes for the table, and every checked call."""

    values: dict[str, float]
    notes: dict[str, str]
    calls: list[Call]
    digest_calls: list[Call]  # the calls whose incumbent traces make the run's digest
    attempted: int
    failures: list[str] = field(default_factory=list)  # failures outside run() calls
    record: dict = field(default_factory=dict)  # extra fields of the result record
    tracer: object = None


def master_seeds(seed: int, calls: int) -> list[int]:
    return [seed * 100_000 + j for j in range(calls)]


def n_calls(workload: Workload, seconds: int, solves_per_seed: int = 1) -> int:
    """The number of master seeds; fixed by --seconds so every commit solves the same inputs."""
    return max(2, round(seconds * workload.calls_per_s / solves_per_seed))


def check_report(instance, config, report) -> list[str]:
    """Correctness checks on one run() result; returns failures, never raises."""
    try:
        best = report.best_solution
        failures = [f"infeasible: {v}" for v in ssbrp.validate_solution(instance, best.routes, best.plans)]
        replayed = ssbrp.solution_from_plans(instance, best.routes, best.plans, config.weights).objective
        if replayed != report.best_objective:
            failures.append(f"objective replay {replayed} != reported {report.best_objective}")
        trace = report.incumbent_trace
        if not trace or trace[-1] != (report.iteration_of_best, report.best_objective.total):
            failures.append("incumbent trace does not end at the best solution")
        if any(later >= earlier for (_, earlier), (_, later) in zip(trace, trace[1:])):
            failures.append("incumbent trace is not strictly decreasing")
    except Exception as exc:  # a corrupted result must count as a failure, not stop the run
        failures = [f"check raised {exc!r}"]
    return failures


def same_result(a, b) -> bool:
    return (
        a.best_solution == b.best_solution
        and a.incumbent_trace == b.incumbent_trace
        and a.iteration_of_best == b.iteration_of_best
        and a.total_iterations == b.total_iterations
    )


def solve_all(instance, workload: Workload, seeds, parallelism: int, solve=None) -> list[Call]:
    """Call ``solve(instance, config)`` (default ``ssbrp.run``) once per master seed."""
    solve = solve or ssbrp.run
    calls = []
    for seed in seeds:
        config = ssbrp.RunConfig(max_iter=workloads.MAX_ITER, master_seed=seed, parallelism=parallelism)
        call = Call(seed)
        t0 = perf_counter()
        try:
            call.report = solve(instance, config)
        except Exception as exc:
            call.failures.append(f"run raised {exc!r}")
        else:
            call.wall_s = perf_counter() - t0
            call.failures = check_report(instance, config, call.report)
        calls.append(call)
    return calls


def compare(calls: list[Call], references: list[Call], what: str) -> None:
    """Record a failure on each call whose result differs from its reference."""
    for call, ref in zip(calls, references):
        if call.report is not None and ref.report is not None and not same_result(call.report, ref.report):
            call.failures.append(f"result differs from {what}")


def trace_digest(calls: list[Call]) -> str:
    """SHA-256 over every call's master seed and incumbent trace, floats in hex."""
    h = hashlib.sha256()
    for call in calls:
        trace = call.report.incumbent_trace if call.report is not None else None
        entry = [call.master_seed, [[i, v.hex()] for i, v in trace] if trace is not None else None]
        h.update(json.dumps(entry).encode())
    return h.hexdigest()


def mean_wall(calls: list[Call]) -> float:
    return statistics.fmean(c.wall_s for c in calls if c.wall_s is not None)


def setup_probes(workload: Workload) -> tuple[list[dict], list[str]]:
    """Time SETUP_PROBES set-ups, each in a fresh interpreter."""
    results, failures = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload.name],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if done.returncode == 0:
            results.append(json.loads(done.stdout.splitlines()[-1]))
        else:
            failures.append(f"set-up probe exited {done.returncode}: {done.stderr.strip()[-300:]}")
    return results, failures


def warm_up(instance, workload: Workload) -> None:
    """One untimed call, so that lazy imports and first-call costs are paid before timing."""
    ssbrp.run(instance, ssbrp.RunConfig(max_iter=workloads.MAX_ITER, master_seed=0, parallelism=workload.parallelism))


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def call_records(calls: list[Call]) -> list[dict]:
    out = []
    for call in calls:
        record = {"master_seed": call.master_seed, "wall_s": call.wall_s, "failures": call.failures}
        if call.report is not None:
            r = call.report
            record.update(
                total_iterations=r.total_iterations,
                iteration_of_best=r.iteration_of_best,
                best_objective=r.best_objective.total,
                trace_digest=trace_digest([call])[:16],
            )
        out.append(record)
    return out


def percentile_summary(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    text = f"median {statistics.median(values):.4f}"
    if len(values) >= 20:
        q = 1 - 10 / len(values)
        text += f", p{100 * q:.0f} {values[int(q * len(values)) - 1]:.4f}"
    return text + f", n={len(values)}"


# --- untraced: end-to-end metrics ---------------------------------------------

def measure_end_to_end(workload: Workload, seed: int, seconds: int) -> Measurement:
    probes, probe_failures = setup_probes(workload)
    if not probes:
        raise SystemExit("error: every set-up probe failed: " + "; ".join(probe_failures))
    instance, _ = workloads.set_up(workload)
    warm_up(instance, workload)
    for _ in range(REFERENCE_WARM_UP):
        reference_s()
    # the reference kernel runs before and after every call; a call's cost
    # is its wall time over the mean of the two kernel times around it
    refs = [reference_s()]
    calls = []
    for master_seed in master_seeds(seed, n_calls(workload, seconds)):
        calls += solve_all(instance, workload, [master_seed], workload.parallelism)
        refs.append(reference_s())
    if workload.parallelism > 1:
        twins = solve_all(instance, workload, [c.master_seed for c in calls[:TWIN_CHECKS]], 1)
        compare(calls, twins, "the sequential run at the same master seed")

    timed = [(c, c.wall_s / statistics.fmean(refs[j:j + 2])) for j, c in enumerate(calls) if c.report is not None]
    if not timed:
        raise SystemExit("error: every run() call raised: " + calls[0].failures[0])
    costs = [cost for _, cost in timed]
    walls = [c.wall_s for c, _ in timed]
    iterations = sum(c.report.total_iterations for c, _ in timed)
    failed = sum(1 for c in calls if c.failures) + len(probe_failures)
    attempted = len(calls) + SETUP_PROBES
    values = {
        "solve_ref": statistics.fmean(costs),
        "iterations_per_ref": iterations / sum(costs),
        "best_objective": statistics.fmean(c.report.best_objective.total for c, _ in timed),
        "setup_s": statistics.median(p["setup_s"] * QUIET_HOST_S / p["reference_s"] for p in probes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": (attempted - failed) / attempted,
    }
    do_nothing = ssbrp.empty_solution(instance, ssbrp.ObjectiveWeights()).objective.total
    notes = {
        "solve_ref": (
            f"mean over calls of run() wall time / reference kernel time; {percentile_summary(costs)}; "
            f"reference kernel median {statistics.median(refs) * 1e3:.3f} ms"
        ),
        "iterations_per_ref": (
            f"{iterations} iterations; in seconds: solve_s {percentile_summary(walls)}, mean {statistics.fmean(walls):.4f}; "
            f"iterations_per_s {iterations / sum(walls):.3f}"
        ),
        "best_objective": (
            f"mean over calls; do_nothing_objective {do_nothing:.4f}"
            + (" (best is ABOVE do-nothing)" if values["best_objective"] > do_nothing else "")
        ),
        "setup_s": (
            "median of {} fresh processes, scaled to a {:.0f} ms reference kernel; unscaled: setup {:.3f} s, "
            "import {:.3f} s, generate {:.4f} s, parse {:.4f} s, kernel {:.3f} ms"
        ).format(
            len(probes), QUIET_HOST_S * 1e3,
            *(statistics.median(p[k] for p in probes) for k in ("setup_s", "import_s", "generate_s", "parse_s")),
            statistics.median(p["reference_s"] for p in probes) * 1e3,
        ),
        "ok_share": f"failed_share {failed / attempted:.4f} ({failed} of {attempted})",
    }
    return Measurement(
        values, notes, calls, calls, attempted, probe_failures,
        record={"do_nothing_objective": do_nothing, "setup_probes": probes, "reference_s": refs,
                "solve_s": statistics.fmean(walls), "iterations_per_s": iterations / sum(walls)},
    )


# --- traced: per-layer metrics ------------------------------------------------

def measure_layers(workload: Workload, seed: int, seconds: int) -> Measurement:
    setups = []
    for _ in range(SETUP_PROBES):
        tracer = Tracer()
        with tracer.installed():
            instance, steps = workloads.set_up(workload)
        steps["check_instance_s"] = tracer.stats()["model.check_instance"].total_s
        setups.append(steps)
    warm_up(instance, workload)
    seeds = master_seeds(seed, n_calls(workload, seconds, 3))
    other_parallelism = 1 if workload.parallelism > 1 else 2
    tracer = Tracer()
    untraced, traced, other = [], [], []
    # each seed is solved untraced, traced, and at the other parallelism in a
    # row, so that the three see the same machine load and their ratios hold
    for s in seeds:
        untraced += solve_all(instance, workload, [s], workload.parallelism)
        with tracer.installed():
            traced += solve_all(
                instance, workload, [s], workload.parallelism,
                solve=lambda inst, config: tracer.run(ssbrp.run, inst, config),
            )
        other += solve_all(instance, workload, [s], other_parallelism)
    compare(traced, untraced, "the untraced run")
    compare(other, untraced, f"the run with parallelism={other_parallelism}")
    calls = untraced + traced + other

    k = len(seeds)
    stats = tracer.stats()
    construct = stats["construction.construct_solution"]
    successors = stats["construction.feasible_successors"]
    sizes = stats["loading.build_model"].attrs
    lp_per_solve = tracer.children_per_parent("loading.lp", "loading.solve_exact")
    reports = [c.report for c in untraced if c.report is not None]
    iterations = sum(r.total_iterations for r in reports)
    if workload.parallelism == 1:
        overhead = statistics.fmean(r.elapsed_total - r.elapsed_construction - r.elapsed_loading for r in reports)
        overhead_note = "RunReport: elapsed_total - elapsed_construction - elapsed_loading"
    else:
        idle = tracer.idle_s(frozenset({"construction.construct_solution", "loading.reoptimize_solution"}))
        overhead = statistics.fmean(idle)
        overhead_note = "traced spans: run() time with no thread in phase one or two (elapsed_* are summed over threads)"
    sequential, parallel = (untraced, other) if workload.parallelism == 1 else (other, untraced)
    root_integral = sum(1 for n in lp_per_solve if n == 1)

    def median_step(key):
        return statistics.median(s[key] for s in setups)

    values = {
        "instances.generate_s": median_step("generate_s"),
        "instances.parse_s": median_step("parse_s"),
        "model.check_instance_s": median_step("check_instance_s"),
        "model.solution_from_plans.calls": stats["model.solution_from_plans"].calls,
        "model.solution_from_plans.self_s": stats["model.solution_from_plans"].self_s / k,
        "construction.construct_solution.calls": construct.calls,
        "construction.construct_solution.self_s": construct.self_s / k,
        "construction.feasible_successors.calls": successors.calls,
        "construction.feasible_successors.s": successors.total_s / k,
        "construction.select_next.s": stats["construction.select_next"].total_s / k,
        "construction.candidates_mean": statistics.fmean(successors.attrs),
        "construction.visits": sum(construct.attrs),
        "loading.build_model.calls": stats["loading.build_model"].calls,
        "loading.build_model.s": stats["loading.build_model"].total_s / k,
        "loading.model.rows": statistics.fmean(s[0] for s in sizes),
        "loading.model.cols": statistics.fmean(s[1] for s in sizes),
        "loading.model.nnz": statistics.fmean(s[2] for s in sizes),
        "loading.model.dense_mib": statistics.fmean(s[3] for s in sizes) / 2**20,
        "loading.lp.calls": stats["loading.lp"].calls,
        "loading.lp.s": stats["loading.lp"].total_s / k,
        "loading.lp.per_solve_mean": statistics.fmean(lp_per_solve),
        "loading.lp.per_solve_max": max(lp_per_solve),
        "loading.root_integral_share": root_integral / len(lp_per_solve),
        "loading.root_integral_solves": root_integral,
        "loading.solve_exact.calls": len(lp_per_solve),
        "loading.solve_exact.self_s": stats["loading.solve_exact"].self_s / k,
        "search.iterations": iterations,
        "search.improvements": sum(len(r.incumbent_trace) for r in reports),
        "search.iteration_of_best": statistics.fmean(r.iteration_of_best for r in reports),
        "search.overhead_s": overhead,
        "search.computed_iterations": construct.calls,
        "search.overrun_iterations": construct.calls - iterations,
        "search.sequential_solve_s": mean_wall(sequential),
        "search.parallel_solve_s": mean_wall(parallel),
        "search.parallel_speedup": mean_wall(sequential) / mean_wall(parallel),
        "trace.overhead_s": mean_wall(traced) - mean_wall(untraced),
    }
    notes = {
        "search.overhead_s": overhead_note,
        "search.parallel_speedup": "sequential_solve_s / parallel_solve_s at parallelism=2, same master seeds",
        "loading.model.rows": "computed from array sizes, mean per model",
        "loading.root_integral_share": f"{root_integral} of {len(lp_per_solve)} solves needed exactly one LP",
        "trace.overhead_s": f"traced {mean_wall(traced):.4f} s - untraced {mean_wall(untraced):.4f} s per call",
    }
    return Measurement(values, notes, calls, untraced, len(calls), record={"setups": setups}, tracer=tracer)


# --- output -------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    measure = measure_layers if args.trace else measure_end_to_end
    result = measure(workload, args.seed, args.seconds)
    values = result.values

    section = spec["per_layer" if args.trace else "end_to_end"]
    mismatch = set(values) ^ {m["name"] for m in section}
    if mismatch:
        raise SystemExit(f"error: computed metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    env = environment(args.seed)
    failed = [c for c in result.calls if c.failures]
    n_failed = len(failed) + len(result.failures)

    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"workload {workload.name}: {why}")
    print(
        f"  {len(result.digest_calls)} master seeds, {len(result.calls)} run() calls, max_iter={workloads.MAX_ITER}, parallelism={workload.parallelism}, "
        f"trace={args.trace}; " + ", ".join(f"{k} {v}" for k, v in env.items())
    )
    for m in section:
        note = result.notes.get(m["name"], "")
        print(f"  {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']:<6} {m['better']:<7} {note}")
    digest = trace_digest(result.digest_calls)
    print(f"  incumbent trace digest {digest}")
    for call in failed:
        for failure in call.failures:
            print(f"  FAILED master_seed {call.master_seed}: {failure}")
    for failure in result.failures:
        print(f"  FAILED {failure}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if result.tracer is not None:
        result.tracer.write(stem.with_suffix(".spans.jsonl.gz"))
    record = {
        "workload": workload.name, **env, "trace": args.trace, "max_iter": workloads.MAX_ITER,
        "parallelism": workload.parallelism, "trace_digest": digest, "metrics": values,
        "calls": call_records(result.calls), **result.record,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record {stem.with_suffix('.json').relative_to(ROOT)}")

    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": result.attempted,
        "failed": n_failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
