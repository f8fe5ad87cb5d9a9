"""Two exhaustive oracles: the optimal loading of given routes, and the
exact optimum of a tiny instance.

``brute_force_loading`` checks phase two. It shares only the route check
with ``build_model``: it simulates vehicle and station state move by move
and tries every integral choice, within guard rails that keep the search
small.

``optimum`` checks both phases together, by enumerating every route set.
Each vehicle may take any route that starts and ends at the depot, never
repeats a node back to back, may revisit stations and the depot, and fits
the time budget; the empty route counts too. Every combination of one route
per vehicle, in fleet order, gets its exactly optimal loading from phase two
(``build_model`` and ``solve_exact``), and the least total wins. A route set
whose ``loading_bound`` is not below the incumbent cannot win and is skipped.

This module is a helper for the tests, not a test file. Run
``python tests/oracle.py`` to print, for its seeded corpus, the optimum next
to the best of ``run()``.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterator, Sequence
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # a script run imports the sources beside it, installed or not
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ssbrp import (
    DEPOT,
    Depot,
    Instance,
    LoadingPlan,
    LoadingVariables,
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
from ssbrp.model import _route_faults

_GUARD_VISITS = 12
_GUARD_CAPACITY = 6
_GUARD_RESIDUAL = 6


def brute_force_loading(
    instance: Instance,
    routes: Sequence[Route],
    weights: ObjectiveWeights = ObjectiveWeights(),
) -> LoadingVariables:
    """Exhaustively enumerate feasible loadings; oracle for solve_exact.

    Shares only the route check with the matrix model: simulates vehicle
    and station state move by move and explores every integral choice.
    Guard rails keep the search space small; breaching them raises
    ValueError.
    """
    routes = tuple(routes)
    for faults in _route_faults(instance, routes):
        if faults:
            raise ValueError(faults[0])
    capacity = {v.id: v.capacity for v in instance.fleet}
    total_visits = sum(len(route.visits) for route in routes)
    if total_visits > _GUARD_VISITS:
        raise ValueError(f"guard rail: {total_visits} visits exceed {_GUARD_VISITS}")
    for route in routes:
        if route.visits and capacity[route.vehicle_id] > _GUARD_CAPACITY:
            raise ValueError(f"guard rail: vehicle capacity exceeds {_GUARD_CAPACITY}")
    for s in instance.stations:
        if abs(s.imbalance) > _GUARD_RESIDUAL or s.damaged > _GUARD_RESIDUAL:
            raise ValueError(f"guard rail: station {s.id} residuals exceed {_GUARD_RESIDUAL}")

    rem_imb = {s.id: s.imbalance for s in instance.stations}
    rem_dam = {s.id: s.damaged for s in instance.stations}
    stock = instance.depot.operative
    best = {"val": math.inf, "moves": None}
    moves_now: list[list[tuple[int, int]]] = [[] for _ in routes]

    def leaf_value() -> float:
        total = 0.0
        for s in instance.stations:
            total += s.weight * (
                weights.gamma_d * abs(rem_imb[s.id]) + weights.gamma_a * rem_dam[s.id]
            )
        return total

    def occupancy_ok() -> bool:
        removed = 0
        for s in instance.stations:
            p_hat = s.target + rem_imb[s.id]
            if p_hat + rem_dam[s.id] > s.capacity:
                return False
            removed += s.operative - p_hat + s.damaged - rem_dam[s.id]
        depot_capacity = instance.depot.capacity
        return depot_capacity is None or instance.depot.operative + removed <= depot_capacity

    def visit(si: int, vi: int, op: int, dam: int, take_run: int, take_peak: int) -> None:
        nonlocal stock
        if si == len(routes):
            if occupancy_ok():
                val = leaf_value()
                if val < best["val"] - 1e-12:
                    best["val"] = val
                    best["moves"] = [tuple(seq) for seq in moves_now]
            return
        route = routes[si]
        if vi == len(route.visits):
            # the route draws the largest running depot take from the stock
            claimed = max(0, take_peak)
            if claimed <= stock:
                stock -= claimed
                visit(si + 1, 0, 0, 0, 0, 0)
                stock += claimed
            return
        node = route.visits[vi]
        k = capacity[route.vehicle_id]
        last = vi == len(route.visits) - 1
        if node == DEPOT:
            y = -dam  # every damaged bike on board is dropped here
            if last:
                x_choices = [-op]
            else:
                x_choices = range(-op, k - op + 1)
            for x in x_choices:
                run = take_run + x
                peak = max(take_peak, run)
                if peak > stock:
                    continue
                moves_now[si].append((x, y))
                visit(si, vi + 1, op + x, 0, run, peak)
                moves_now[si].pop()
            return
        s = instance.station(node)
        d0 = s.imbalance
        free = k - op - dam
        if d0 > 0:
            x_lo, x_hi = 0, min(free, rem_imb[node])
        elif d0 < 0:
            x_lo, x_hi = max(-op, rem_imb[node]), 0
        else:
            x_lo = x_hi = 0
        for x in range(x_lo, x_hi + 1):
            y_hi = min(free - x, rem_dam[node])
            for y in range(0, y_hi + 1):
                rem_imb[node] -= x
                rem_dam[node] -= y
                moves_now[si].append((x, y))
                visit(si, vi + 1, op + x, dam + y, take_run, take_peak)
                moves_now[si].pop()
                rem_imb[node] += x
                rem_dam[node] += y

    visit(0, 0, 0, 0, 0, 0)
    if best["moves"] is None:
        # every branch pruned: only possible via occupancy on all leaves,
        # which the all-zero assignment rules out for valid instances
        raise RuntimeError("enumeration found no feasible assignment")
    plans = tuple(LoadingPlan(r.vehicle_id, moves) for r, moves in zip(routes, best["moves"]))
    return LoadingVariables(plans, best["val"])


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
