"""The exact optimum of a tiny instance, by enumerating every route set.

Each vehicle may take any route that starts and ends at the depot, never
repeats a node back to back, may revisit stations and the depot, and fits
the time budget; the empty route counts too. Every combination of one route
per vehicle, in fleet order, gets its exactly optimal loading from phase two
(``build_model`` and ``solve_exact``), and the least total wins. A route set
whose ``loading_bound`` is not below the incumbent cannot win and is skipped.

This module is a helper for ``test_oracle.py``, not a test file. Run
``python tests/oracle.py`` to print, for its seeded corpus, the optimum next
to the best of ``run()``.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # a script run imports the sources beside it, installed or not
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ssbrp import (
    DEPOT,
    Depot,
    Instance,
    LoadingPlan,
    ObjectiveWeights,
    Route,
    Solution,
    Station,
    TravelMatrix,
    Vehicle,
    build_model,
    solution_from_plans,
    solve_exact,
)
from ssbrp.loading import loading_bound


def routes_of(instance: Instance, vehicle: Vehicle) -> list[Route]:
    """Every route of the vehicle within the time budget, the empty route first.

    The depot-only route ``(0,)`` moves nothing, so the empty route stands for
    it. Partial times add legs in visit order from 0.0, as ``route_time`` does.
    Every leg between two nodes must take positive time, or the walk would
    not end.
    """
    nodes = instance.nodes
    minutes = instance.travel.minutes
    assert all(minutes[i, j] > 0 for i in range(len(nodes)) for j in range(len(nodes)) if i != j)
    # least time from each node back to the depot, through any nodes
    back = minutes[:, 0].copy()
    for _ in nodes:
        back = np.minimum(back, (minutes + back).min(axis=1))
    budget = instance.time_budget
    found = [Route(vehicle.id)]

    def extend(visits: tuple[int, ...], elapsed: float) -> None:
        for k, node in enumerate(nodes):
            if node == visits[-1]:
                continue
            t = elapsed + instance.travel_time(visits[-1], node)
            if t + back[k] > budget:
                continue
            if node == DEPOT:
                found.append(Route(vehicle.id, visits + (DEPOT,)))
            extend(visits + (node,), t)

    extend((DEPOT,), 0.0)
    return found


def route_sets(instance: Instance) -> Iterator[tuple[Route, ...]]:
    """Every combination of one route per vehicle, in fleet order."""
    return itertools.product(*(routes_of(instance, v) for v in instance.fleet))


def bound(instance: Instance, routes: tuple[Route, ...], weights: ObjectiveWeights) -> float:
    """``loading_bound``'s total for the route set; it reads only the routes and
    their times, so idle plans carry them."""
    plans = [LoadingPlan(r.vehicle_id, ((0, 0),) * len(r.visits)) for r in routes]
    idle = solution_from_plans(instance, routes, plans, weights)
    return loading_bound(instance, idle, weights).total


def exact(instance: Instance, routes: tuple[Route, ...], weights: ObjectiveWeights) -> Solution:
    """The route set with its exactly optimal loading."""
    plans = solve_exact(build_model(instance, routes, weights)).plans
    return solution_from_plans(instance, routes, plans, weights)


def optimum(instance: Instance, weights: ObjectiveWeights = ObjectiveWeights()) -> Solution:
    """The least-total solution over all route sets; the first found wins ties."""
    best: Solution | None = None
    for routes in route_sets(instance):
        if best is not None and bound(instance, routes, weights) >= best.objective.total:
            continue
        solution = exact(instance, routes, weights)
        if best is None or solution.objective.total < best.objective.total:
            best = solution
    return best


def corpus(count: int = 8) -> list[Instance]:
    """Seeded tiny instances: 3-4 stations, 1-2 vehicles of capacity 3-7,
    depot stock 0-5, legs of 10-30 minutes and a budget of 50-70 minutes."""
    out = []
    for seed in range(count):
        rng = np.random.default_rng([28, seed])
        stations = []
        for sid in range(1, int(rng.integers(3, 5)) + 1):
            capacity = int(rng.integers(4, 11))
            operative = int(rng.integers(0, capacity + 1))
            damaged = int(rng.integers(0, min(2, capacity - operative) + 1))
            target = int(rng.integers(0, capacity + 1))
            stations.append(Station(sid, capacity, operative, damaged, target))
        n = len(stations) + 1
        minutes = rng.integers(10, 31, size=(n, n)).astype(float)
        np.fill_diagonal(minutes, 0.0)
        vehicles = range(1, int(rng.integers(1, 3)) + 1)
        fleet = tuple(Vehicle(v, int(rng.integers(3, 8))) for v in vehicles)
        out.append(
            Instance(
                stations=tuple(stations),
                depot=Depot(int(rng.integers(0, 6))),
                travel=TravelMatrix(minutes),
                fleet=fleet,
                time_budget=float(rng.integers(50, 71)),
            )
        )
    return out


if __name__ == "__main__":
    from ssbrp import RunConfig, run

    print("instance  route sets  optimum  run() best  gap")
    for i, instance in enumerate(corpus()):
        best = optimum(instance).objective.total
        found = run(instance, RunConfig(max_iter=200)).best_objective.total
        gap = (found - best) / best if best > 0 else 0.0
        sets = sum(1 for _ in route_sets(instance))
        print(f"{i:8d}  {sets:10d}  {best:7.4f}  {found:10.4f}  {gap:6.1%}")
