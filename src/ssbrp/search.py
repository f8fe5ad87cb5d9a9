"""Multi-start driver: construct, reoptimize, keep the best.

Each iteration builds a fresh randomized solution (phase one) and replaces
its loading plans with exactly optimal ones (phase two), then folds the
result into the incumbent. Phase two is skipped, and the iteration counts
as non-improving, when ``loading_bound`` shows that even a perfect loading
of the new routes could not beat the incumbent; the bound is exact, so
results are the same as if every iteration were reoptimized. The loop
stops once a run of consecutive non-improving iterations reaches the
configured limit. Every iteration derives its RNG stream from (master
seed, iteration index), so any iteration can be replayed in isolation.
Iterations run one after another on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .construction import ConstructionParams, construct_solution
from .loading import loading_bound, reoptimize_solution
from .model import Instance, ObjectiveBreakdown, ObjectiveWeights, Solution, check_instance

_TOLERANCE = 1e-12


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one run.

    ``parallelism`` is validated (at least 1) but has no effect: iterations
    are sequential, because a thread pool gave no speed-up under the GIL.
    It stays because the benchmark passes it; no CLI flag sets it.
    """

    max_iter: int = 500
    master_seed: int = 0
    weights: ObjectiveWeights = ObjectiveWeights()
    construction: ConstructionParams = ConstructionParams()
    parallelism: int = 1
    wall_clock_cap: float | None = None

    def __post_init__(self):
        if self.max_iter < 2:
            raise ValueError("max_iter must be at least 2")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if self.wall_clock_cap is not None and self.wall_clock_cap <= 0:
            raise ValueError("wall_clock_cap must be positive")


@dataclass(frozen=True)
class RunReport:
    best_solution: Solution
    best_objective: ObjectiveBreakdown
    iteration_of_best: int
    total_iterations: int
    elapsed_construction: float
    elapsed_loading: float
    elapsed_total: float
    incumbent_trace: tuple[tuple[int, float], ...]
    loading_skipped: int  # iterations whose phase two loading_bound skipped


def is_better(a: Solution, b: Solution | None) -> bool:
    """Strict improvement on the objective total; a missing incumbent loses.

    Both solutions must have been evaluated under the same weights.
    """
    if b is None:
        return True
    return a.objective.total < b.objective.total - _TOLERANCE


def run(instance: Instance, config: RunConfig = RunConfig()) -> RunReport:
    """Run the two-phase loop until max_iter consecutive iterations fail to improve.

    The non-improvement counter starts at 1, resets to 1 on improvement,
    and the loop stops when it reaches max_iter (or when the optional wall
    clock cap expires). Reports the best solution, where it was found, and
    per-phase elapsed time. ``elapsed_loading`` includes the bound.
    """
    check_instance(instance)
    start = perf_counter()
    best: Solution | None = None
    best_iter = 0
    counter = 1
    iteration = 0
    t_construct = 0.0
    t_load = 0.0
    skipped = 0
    trace: list[tuple[int, float]] = []
    while True:
        iteration += 1
        rng = np.random.default_rng([config.master_seed, iteration])
        t0 = perf_counter()
        built = construct_solution(instance, config.construction, rng, config.weights)
        t1 = perf_counter()
        # skip phase two when even a perfect loading of these routes cannot win
        if best is None or (
            loading_bound(instance, built, config.weights).total
            < best.objective.total - _TOLERANCE
        ):
            solution = reoptimize_solution(instance, built, config.weights)
        else:
            solution = None
            skipped += 1
        t2 = perf_counter()
        t_construct += t1 - t0
        t_load += t2 - t1
        if solution is not None and is_better(solution, best):
            best = solution
            best_iter = iteration
            counter = 1
            trace.append((iteration, solution.objective.total))
        else:
            counter += 1
        if counter >= config.max_iter:
            break
        if config.wall_clock_cap is not None and perf_counter() - start >= config.wall_clock_cap:
            break
    return RunReport(
        best_solution=best,
        best_objective=best.objective,
        iteration_of_best=best_iter,
        total_iterations=iteration,
        elapsed_construction=t_construct,
        elapsed_loading=t_load,
        elapsed_total=perf_counter() - start,
        incumbent_trace=tuple(trace),
        loading_skipped=skipped,
    )
