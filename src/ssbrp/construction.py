"""Randomized greedy route construction (phase one).

Routes are built sequentially, one vehicle after the other, against a shared
build state that tracks residual station imbalances, residual damaged bikes,
and the unclaimed depot stock. Successor choice is greedy-randomized: every
candidate gets a ratio (moved bikes vs. detour time), a fresh threshold
epsilon keeps only candidates close to the best ratio, and the winner is
drawn uniformly among them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DEPOT,
    Instance,
    LoadingPlan,
    ObjectiveWeights,
    Route,
    Solution,
    Vehicle,
    solution_from_plans,
)


@dataclass(frozen=True)
class ConstructionParams:
    """Tuning knobs: theta dampens the moved-bikes count, mu scales depot pull."""

    theta: float = 0.5
    mu: float = 1.5

    def __post_init__(self):
        if not 0 < self.theta <= 1:
            raise ValueError("theta must lie in (0, 1]")
        if self.mu <= 0:
            raise ValueError("mu must be positive")


@dataclass
class BuildState:
    """Mutable construction state shared across the fleet.

    Residuals and the remaining depot stock persist between routes; the
    onboard/elapsed fields describe the vehicle currently being routed and
    are reset by start_vehicle. ``depot_room`` is what the depot can still
    take in of the bikes the routes remove from stations (every removed bike
    ends there); None is unbounded. ``live`` holds the station-order indices
    of the stations the scan visits: ``fresh`` lists those with residual work
    left, and apply_visit drops a station once its work is done. A state
    built by hand passes its own list; it may also hold finished stations,
    which never become candidates.
    """

    residual_imbalance: dict[int, int]
    residual_damaged: dict[int, int]
    depot_remaining: int
    live: list[int]
    onboard_operative: int = 0
    onboard_damaged: int = 0
    elapsed: float = 0.0
    min_free_lockers: int = 0
    last_depot_index: int = 0
    depot_room: int | None = None

    @classmethod
    def fresh(cls, instance: Instance) -> BuildState:
        capacity = instance.depot.capacity
        return cls(
            residual_imbalance={s.id: s.imbalance for s in instance.stations},
            residual_damaged={s.id: s.damaged for s in instance.stations},
            depot_remaining=instance.depot.operative,
            depot_room=None if capacity is None else capacity - instance.depot.operative,
            live=[i for i, s in enumerate(instance.stations) if not _done(s.imbalance, s.damaged)],
        )

    def start_vehicle(self, vehicle: Vehicle) -> None:
        self.onboard_operative = 0
        self.onboard_damaged = 0
        self.elapsed = 0.0
        self.min_free_lockers = vehicle.capacity
        self.last_depot_index = 0


def _done(imbalance: int, damaged: int) -> bool:
    """No residual work left. Residuals only move toward 0 within a construction."""
    return imbalance == 0 and damaged <= 0


def feasible_successors(
    instance: Instance, state: BuildState, u: int, vehicle: Vehicle
) -> dict[int, tuple[int, int]]:
    """Candidate next visits from u, mapped to their (beta, alpha) moves.

    A station qualifies if it is live, the route can visit it and return to
    the depot in time, and the vehicle can actually move at least one bike
    there. Surplus and balanced stations are served from free vehicle
    capacity. Deficit stations may draw on bikes already onboard plus a
    retroactive depot pickup bounded by the unclaimed stock and by the
    lockers that were free along the whole segment since the last depot
    visit. Pickups, net of the delivery, never exceed the depot's room. The
    depot qualifies only to unload damaged bikes. Stations come in
    ``Instance.stations`` order, the depot last.
    """
    lookup = instance._lookup
    try:
        row, t_u0 = lookup.rows[u]
    except KeyError:
        raise ValueError(f"unknown node id {u}") from None
    budget = instance.time_budget
    elapsed = state.elapsed
    imbalance = state.residual_imbalance
    damaged = state.residual_damaged
    ids = lookup.ids
    back = lookup.back
    # conditional expressions, not min()/max(): this runs for every live
    # station at every step, and the builtin calls would cost twice the rest
    # of the body. A finished station (imbalance 0, damaged <= 0) always gets
    # beta + alpha <= 0.
    k = vehicle.capacity
    onboard_op = state.onboard_operative
    onboard_dam = state.onboard_damaged
    free = k - onboard_op - onboard_dam
    depot_room = state.depot_room
    pick = free if depot_room is None or free < depot_room else depot_room
    stock, lockers = state.depot_remaining, state.min_free_lockers
    reach = onboard_op + (stock if stock < lockers else lockers)
    undamaged = k - onboard_dam
    out: dict[int, tuple[int, int]] = {}
    for i in state.live:
        v = ids[i]
        if v == u:
            continue
        if elapsed + row[i] + back[i] > budget:
            continue
        d = imbalance[v]
        avail_damaged = damaged[v]
        if d < 0:
            beta = reach if reach < -d else -d
            # free space after the delivery, never beyond the lockers damaged bikes leave open
            room = pick + beta
            if room > undamaged:
                room = undamaged
            alpha = room if room < avail_damaged else avail_damaged
        else:
            beta = pick if pick < d else d
            if beta < 0:
                beta = 0
            alpha = pick - beta if pick - beta < avail_damaged else avail_damaged
        if beta + alpha > 0:
            out[v] = (beta, alpha)
    if u != DEPOT and onboard_dam > 0 and elapsed + t_u0 <= budget:
        out[DEPOT] = (0, 0)
    return out


@functools.cache
def _powers(theta: float, capacity: int) -> tuple[float, ...]:
    """``n ** theta`` for every move size n; a move reaches 2 * capacity,
    since a delivery frees lockers for damaged pickups."""
    return tuple(n**theta for n in range(2 * capacity + 1))


def candidate_ratios(
    instance: Instance,
    state: BuildState,
    params: ConstructionParams,
    vehicle: Vehicle,
    u: int,
    candidates: dict[int, tuple[int, int]],
) -> dict[int, float]:
    """Attractiveness of moving from u to each candidate, in candidate order.

    A station scores ``(beta + alpha) ** theta / t * w`` (bikes moved, travel
    minutes, station weight), the depot ``mu * onboard damaged / t``. Zero
    travel time scores infinity and dominates all. A station of weight 0
    scores 0, also where the quotient overflows (inf * 0 would be nan, which
    no epsilon cut can compare). ``n ** theta`` comes from a table up to
    2 * capacity, the largest move of a load that fits the vehicle; a larger
    move is scored by the same formula, and a negative one is refused.
    """
    lookup = instance._lookup
    position, weight = lookup.position, lookup.weight
    theta = params.theta
    powered = _powers(theta, vehicle.capacity)
    size = len(powered)
    ratios = {}
    try:
        row, t_u0 = lookup.rows[u]
        for v, (beta, alpha) in candidates.items():
            if v == DEPOT:
                ratios[v] = math.inf if t_u0 == 0 else params.mu * state.onboard_damaged / t_u0
                continue
            i = position[v]
            n = beta + alpha
            if n < 0:
                raise ValueError(f"negative move {beta} + {alpha} at node {v}")
            t = row[i]
            w = weight[i]
            if t and w:
                ratios[v] = (powered[n] if n < size else n**theta) / t * w
            else:
                ratios[v] = math.inf if t == 0 else 0.0
    except KeyError as exc:
        raise ValueError(f"unknown node id {exc.args[0]}") from None
    return ratios


def select_next(
    ratios: dict[int, float], rng: np.random.Generator, epsilon: float | None = None
) -> int:
    """Uniform draw among candidates whose ratio reaches epsilon * max ratio."""
    if not ratios:
        raise ValueError("no candidates to select from")
    if epsilon is None:
        # the same draw as rng.uniform(), which returns 0 + 1 * random()
        epsilon = rng.random()
    rho_max = max(ratios.values())
    if math.isinf(rho_max):
        eligible = [v for v, r in ratios.items() if math.isinf(r)]
    else:
        cut = epsilon * rho_max
        eligible = [v for v, r in ratios.items() if r >= cut]
    return eligible[int(rng.integers(len(eligible)))]


def apply_visit(
    instance: Instance,
    state: BuildState,
    vehicle: Vehicle,
    visits: list[int],
    moves: list[tuple[int, int]],
    v_star: int,
    beta: int,
    alpha: int,
) -> None:
    """Commit one visit: extend route and plan, update loads and residuals."""
    k = vehicle.capacity
    state.elapsed += instance.travel.time(visits[-1], v_star)
    if v_star == DEPOT:
        visits.append(DEPOT)
        moves.append((0, -state.onboard_damaged))
        state.onboard_damaged = 0
        state.last_depot_index = len(visits) - 1
        state.min_free_lockers = k - state.onboard_operative
        return
    if state.residual_imbalance[v_star] < 0:
        retro = max(0, beta - state.onboard_operative)
        if retro:
            # claim the extra bikes at the most recent depot visit
            dx, dy = moves[state.last_depot_index]
            moves[state.last_depot_index] = (dx + retro, dy)
            state.depot_remaining -= retro
            state.min_free_lockers -= retro
            state.onboard_operative += retro
        state.onboard_operative -= beta
        state.residual_imbalance[v_star] += beta
        delta_op = -beta
    else:
        state.onboard_operative += beta
        state.residual_imbalance[v_star] -= beta
        delta_op = beta
    state.onboard_damaged += alpha
    state.residual_damaged[v_star] -= alpha
    if state.depot_room is not None:
        state.depot_room -= delta_op + alpha
    if _done(state.residual_imbalance[v_star], state.residual_damaged[v_star]):
        state.live.remove(instance._lookup.position[v_star])
    visits.append(v_star)
    moves.append((delta_op, alpha))
    state.min_free_lockers = min(
        state.min_free_lockers, k - state.onboard_operative - state.onboard_damaged
    )
    assert 0 <= state.onboard_operative + state.onboard_damaged <= k
    assert state.depot_remaining >= 0 and state.min_free_lockers >= 0


def build_route(
    instance: Instance,
    state: BuildState,
    vehicle: Vehicle,
    params: ConstructionParams,
    rng: np.random.Generator,
) -> tuple[Route, LoadingPlan]:
    """Grow one route from the depot until no candidate remains, then close it."""
    state.start_vehicle(vehicle)
    visits: list[int] = [DEPOT]
    moves: list[tuple[int, int]] = [(0, 0)]
    while True:
        u = visits[-1]
        candidates = feasible_successors(instance, state, u, vehicle)
        if not candidates:
            break
        ratios = candidate_ratios(instance, state, params, vehicle, u, candidates)
        v_star = select_next(ratios, rng)
        beta, alpha = candidates[v_star]
        apply_visit(instance, state, vehicle, visits, moves, v_star, beta, alpha)
    if len(visits) == 1:
        # never left the depot: an unused vehicle
        return Route(vehicle.id), LoadingPlan(vehicle.id)
    if visits[-1] == DEPOT:
        dx, dy = moves[-1]
        moves[-1] = (dx - state.onboard_operative, dy - state.onboard_damaged)
    else:
        state.elapsed += instance.travel.time(visits[-1], DEPOT)
        visits.append(DEPOT)
        moves.append((-state.onboard_operative, -state.onboard_damaged))
    state.onboard_operative = 0
    state.onboard_damaged = 0
    return Route(vehicle.id, tuple(visits)), LoadingPlan(vehicle.id, tuple(moves))


def construct_solution(
    instance: Instance,
    params: ConstructionParams,
    rng: np.random.Generator,
    weights: ObjectiveWeights = ObjectiveWeights(),
) -> Solution:
    """Build one feasible solution: a route and provisional plan per vehicle."""
    state = BuildState.fresh(instance)
    routes = []
    plans = []
    for vehicle in instance.fleet:
        route, plan = build_route(instance, state, vehicle, params, rng)
        routes.append(route)
        plans.append(plan)
    return solution_from_plans(instance, routes, plans, weights)
