"""Multi-start driver: construct, reoptimize, keep the best.

``run`` folds one iteration source, ``_iterations``, which builds a fresh
randomized solution (phase one) per iteration on the calling thread;
iteration ``i`` seeds its own ``default_rng`` with ``[master_seed, i]``, so
any iteration can be replayed in isolation. The fold replaces the loading
plans with exactly optimal ones (phase two) under one incumbent rule: a
total improves when it is below ``beat``, the best total less a tolerance
(infinite at first). ``loading_bound`` spares phase two twice: when the
bound of the new routes is not below ``beat``, the iteration counts as
non-improving; and when a plan phase one makes meets the bound (so it
improves), that plan is folded in, and returned, as it is. One test keeps
the constructed plan or, where that misses the bound, ``_reload``'s: two
``construction._walk``s over the routes, or the constructed plan again
when the depot has no stock. The bound's docstring proves that it never
exceeds the reoptimized total, so the trace, the routes and the totals
are those of a loop that reoptimizes every iteration; a certified best
may keep another plan of the same total. The loop stops when ``run``'s
non-improvement counter reaches ``max_iter``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import count
from time import perf_counter

import numpy as np

from .construction import ConstructionParams, _reload, construct_solution
from .loading import loading_bound, reoptimize_solution
from .model import (
    Instance,
    ObjectiveBreakdown,
    ObjectiveWeights,
    Solution,
    _require_numbers,
    check_instance,
)

_TOLERANCE = 1e-12


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one run.

    ``parallelism`` is validated (at least 1) and has no effect: iterations
    run one after another. The benchmark passes it; no CLI flag sets it.
    """

    max_iter: int = 500
    master_seed: int = 0
    weights: ObjectiveWeights = ObjectiveWeights()
    construction: ConstructionParams = ConstructionParams()
    parallelism: int = 1
    wall_clock_cap: float = math.inf

    def __post_init__(self):
        _require_numbers(
            "",
            numbers.Integral,
            max_iter=self.max_iter,
            master_seed=self.master_seed,
            parallelism=self.parallelism,
        )
        _require_numbers("", numbers.Real, wall_clock_cap=self.wall_clock_cap)
        if self.max_iter < 2:
            raise ValueError("max_iter must be at least 2")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if not self.wall_clock_cap > 0:
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
    loading_certified: int  # other iterations whose built or reloaded plan met the bound, kept


def _iterations(instance: Instance, config: RunConfig):
    """Yield ``(iteration, built, construction seconds)`` for i = 1, 2, ..., one at a time."""
    for iteration in count(1):
        rng = np.random.default_rng([config.master_seed, iteration])
        t0 = perf_counter()
        built = construct_solution(instance, config.construction, rng, config.weights)
        yield iteration, built, perf_counter() - t0


def run(instance: Instance, config: RunConfig = RunConfig()) -> RunReport:
    """Run the two-phase loop until max_iter consecutive iterations fail to improve.

    The non-improvement counter starts at 1, resets to 1 on improvement,
    and the loop stops when it reaches max_iter (or when the wall clock cap,
    infinite by default, expires). Reports the best solution, where it was
    found, and per-phase elapsed time. ``elapsed_loading`` includes the
    bound and the reload. A certified best is returned with the plans that
    met the bound, built or reloaded.
    """
    check_instance(instance)
    start = perf_counter()
    best: Solution | None = None
    beat = math.inf
    best_iter = 0
    counter = 1
    t_construct = 0.0
    t_load = 0.0
    skipped = 0
    certified = 0
    trace: list[tuple[int, float]] = []
    for iteration, built, seconds in _iterations(instance, config):
        t0 = perf_counter()
        bound = loading_bound(instance, built, config.weights).total
        if bound >= beat:
            # even the bound's optimistic loading of these routes cannot win
            solution = None
            skipped += 1
        else:
            # no plan over these routes scores below the bound, so a plan that
            # meets it, the built one or else its reload, is optimal for them
            solution = built
            if built.objective.total > bound:
                solution = _reload(instance, built, config.weights)
            if solution.objective.total <= bound:
                certified += 1
            else:
                solution = reoptimize_solution(instance, built, config.weights)
        t_construct += seconds
        t_load += perf_counter() - t0
        if solution is not None and solution.objective.total < beat:
            best = solution
            beat = solution.objective.total - _TOLERANCE
            best_iter = iteration
            counter = 1
            trace.append((iteration, solution.objective.total))
        else:
            counter += 1
        if counter >= config.max_iter:
            break
        if perf_counter() - start >= config.wall_clock_cap:
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
        loading_certified=certified,
    )

