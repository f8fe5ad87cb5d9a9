"""Randomized greedy route construction (phase one).

Routes are built sequentially, one vehicle after the other, against a shared
build state that tracks residual station imbalances, residual damaged bikes,
and the unclaimed depot stock. Successor choice is greedy-randomized: every
candidate gets a ratio (moved bikes vs. detour time), a fresh threshold
epsilon keeps only candidates close to the best ratio, and the winner is
drawn uniformly among them. A construction from a PCG64 Generator, as
``run()``'s are, reads the Generator's raw words itself (``_Draws``); the
draws, and where the Generator is left, are those of its own methods.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    DEPOT,
    Instance,
    LoadingPlan,
    ObjectiveWeights,
    Route,
    Solution,
    Vehicle,
    evaluate_objective,
)


@dataclass(frozen=True)
class ConstructionParams:
    """Tuning knobs: theta dampens the moved-bikes count, mu scales depot pull."""

    theta: float = 0.5
    mu: float = 1.5

    def __post_init__(self):
        if not 0 < self.theta <= 1:
            raise ValueError("theta must lie in (0, 1]")
        if not 0 < self.mu < math.inf:
            raise ValueError("mu must be positive and finite")


@dataclass
class BuildState:
    """Mutable construction state shared across the fleet.

    Residuals and the remaining depot stock persist between routes; the
    onboard/elapsed fields describe the vehicle currently being routed and
    are reset by start_vehicle. ``depot_room`` is what the depot can still
    take in of the bikes the routes remove from stations (every removed bike
    ends there); None is unbounded. ``live`` holds the station-order indices
    of the stations the scan visits: ``fresh`` lists those with residual work
    left, and a visit drops a station once its work is done. A state
    built by hand passes its own list; it may also hold finished stations,
    which never become candidates. ``route_times`` holds each routed
    vehicle's ``elapsed``, recorded as build_route closes its route.
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
    route_times: dict[int, float] = field(default_factory=dict)

    @classmethod
    def fresh(cls, instance: Instance) -> BuildState:
        capacity = instance.depot.capacity
        imbalance, damaged, live = instance._residuals
        return cls(
            residual_imbalance=imbalance.copy(),
            residual_damaged=damaged.copy(),
            depot_remaining=instance.depot.operative,
            depot_room=None if capacity is None else capacity - instance.depot.operative,
            live=live.copy(),
        )

    def start_vehicle(self, vehicle: Vehicle) -> None:
        self.onboard_operative = 0
        self.onboard_damaged = 0
        self.elapsed = 0.0
        self.min_free_lockers = vehicle.capacity
        self.last_depot_index = 0


def _done(imbalance: int, damaged: int) -> bool:
    """No residual work left. Residuals only move toward 0 within a construction.
    ``Instance._residuals`` lists the stations for which this is false at the start."""
    return imbalance == 0 and damaged <= 0


@functools.cache
def _powers(theta: float, capacity: int) -> tuple[float, ...]:
    """``n ** theta`` for every move size n; a move reaches 2 * capacity,
    since a delivery frees lockers for damaged pickups."""
    return tuple(n**theta for n in range(2 * capacity + 1))


def feasible_successors(
    instance: Instance, state: BuildState, u: int, vehicle: Vehicle, params: ConstructionParams
) -> dict[tuple[int, int, int], float]:
    """Candidate next visits from u, as moves ``(node, beta, alpha)`` mapped
    to their ratios.

    A station qualifies if it is live, the route can visit it and return to
    the depot in time, and the vehicle can actually move at least one bike
    there. Surplus and balanced stations are served from free vehicle
    capacity. Deficit stations may draw on bikes already onboard plus a
    retroactive depot pickup bounded by the unclaimed stock and by the
    lockers that were free along the whole segment since the last depot
    visit. Pickups, net of the delivery, never exceed the depot's room. The
    depot qualifies only to unload damaged bikes. Stations come in
    ``Instance.stations`` order, the depot last.

    A station scores ``(beta + alpha) ** theta / t * w`` (bikes moved, travel
    minutes, station weight), the depot ``mu * onboard damaged / t``. Zero
    travel time scores infinity and dominates all; it wins over a zero
    weight, so a station 0 minutes away scores infinity at weight 0 too. Any
    other station of weight 0 scores 0, also where the quotient overflows
    (inf * 0 would be nan, which no epsilon cut can compare). ``n ** theta``
    comes from a table up to 2 * capacity, the largest move of a load that
    fits the vehicle; a larger move, which only a hand-built state can
    yield, uses the same formula.
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
    weight = lookup.weight
    # conditional expressions, not min()/max(): this runs for every live
    # station at every step, and the builtin calls would cost twice the rest
    # of the body. A finished station (imbalance 0, damaged <= 0) always gets
    # beta + alpha <= 0.
    k = vehicle.capacity
    theta = params.theta
    powered = _powers(theta, k)
    size = len(powered)
    onboard_op = state.onboard_operative
    onboard_dam = state.onboard_damaged
    free = k - onboard_op - onboard_dam
    depot_room = state.depot_room
    pick = free if depot_room is None or free < depot_room else depot_room
    stock, lockers = state.depot_remaining, state.min_free_lockers
    reach = onboard_op + (stock if stock < lockers else lockers)
    undamaged = k - onboard_dam
    out: dict[tuple[int, int, int], float] = {}
    for i in state.live:
        v = ids[i]
        if v == u:
            continue
        t = row[i]
        if elapsed + t + back[i] > budget:
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
        n = beta + alpha
        if n > 0:
            w = weight[i]
            if t and w:
                out[v, beta, alpha] = (powered[n] if n < size else n**theta) / t * w
            else:
                out[v, beta, alpha] = math.inf if t == 0 else 0.0
    if u != DEPOT and onboard_dam > 0 and elapsed + t_u0 <= budget:
        out[DEPOT, 0, 0] = math.inf if t_u0 == 0 else params.mu * onboard_dam / t_u0
    return out


_BLOCK = 64  # raw words per fetch: about one construction of a 15-station instance
_UNIT = 2.0**-53


class _Draws:
    """``random()`` and ``integers(m)`` of a PCG64-backed Generator, equal to
    the Generator's own to the bit, read off the bit generator's raw 64-bit
    words without NumPy's per-call cost.

    ``random()`` is a word's top 53 bits times 2**-53. ``integers(m)`` draws
    as ``Generator.integers`` does for 1 <= m <= 2**32 (Lemire's method on
    32-bit values): each word gives its low half first and keeps its high half
    for the next 32-bit draw, as PCG64's ``next_uint32`` does, and a half the
    Generator already kept is used first. ``integers(1)`` is 0 and draws
    nothing. Words are fetched in blocks; ``close()`` rewinds the bit
    generator over the unused ones and hands back a kept half, so the
    Generator continues where its own calls would have left it.
    """

    __slots__ = ("_bits", "_words", "_half")

    def __init__(self, bits: np.random.PCG64):
        self._bits = bits
        state = bits.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._words: list[int] = []  # fetched and unused, the next one last

    def _fetch(self) -> list[int]:
        self._words = self._bits.random_raw(_BLOCK)[::-1].tolist()
        return self._words

    def random(self) -> float:
        words = self._words or self._fetch()
        return (words.pop() >> 11) * _UNIT

    def integers(self, m: int) -> int:
        if m == 1:
            return 0
        while True:
            half = self._half
            if half is None:
                words = self._words or self._fetch()
                word = words.pop()
                self._half = word >> 32
                half = word & 0xFFFFFFFF
            else:
                self._half = None
            product = half * m
            low = product & 0xFFFFFFFF
            # Lemire's rejection threshold, (2**32 - m) % m, is below m
            if low >= m or low >= (0x100000000 - m) % m:
                return product >> 32

    def close(self) -> None:
        bits = self._bits
        # advance() also drops the bit generator's kept half
        bits.advance(-len(self._words))
        if self._half is not None:
            state = bits.state
            state["has_uint32"] = 1
            state["uinteger"] = self._half
            bits.state = state


def select_next(
    ratios: dict[tuple[int, int, int], float],
    rng: np.random.Generator | _Draws,
    epsilon: float | None = None,
) -> tuple[int, int, int]:
    """Uniform draw among candidates whose ratio reaches epsilon * max ratio.

    ``rng`` is a Generator, or the ``_Draws`` that construct_solution reads
    off a PCG64 Generator; both give the same draws."""
    if not ratios:
        raise ValueError("no candidates to select from")
    if epsilon is None:
        # the same draw as rng.uniform(), which returns 0 + 1 * random()
        epsilon = rng.random()
    rho_max = max(ratios.values())
    # ratios are >= 0, so an infinite cut keeps exactly the infinite ratios
    # (and never forms 0 * inf = nan)
    cut = rho_max if math.isinf(rho_max) else epsilon * rho_max
    eligible = [v for v, r in ratios.items() if r >= cut]
    if len(eligible) == 1:
        # rng.integers(1) draws no bits, so skipping it leaves the stream as it was
        return eligible[0]
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
    """Commit one visit: extend route and plan, update loads and residuals.

    A move that overloads the vehicle or overdraws the depot stock or the free
    lockers raises ValueError, with the state already updated."""
    k = vehicle.capacity
    state.elapsed += instance.travel_time(visits[-1], v_star)
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
    if not 0 <= state.onboard_operative + state.onboard_damaged <= k:
        raise ValueError(f"visit to {v_star}: vehicle {vehicle.id} load outside [0, {k}]")
    if state.depot_remaining < 0 or state.min_free_lockers < 0:
        raise ValueError(f"visit to {v_star}: depot stock or free lockers below zero")


def build_route(
    instance: Instance,
    state: BuildState,
    vehicle: Vehicle,
    params: ConstructionParams,
    rng: np.random.Generator | _Draws,
) -> tuple[Route, LoadingPlan]:
    """Grow one route from the depot until no candidate remains, then close it.

    The route's running quantities are kept in locals, and each drawn move is
    applied here with apply_visit's arithmetic in its order, and its checks;
    the fields that feasible_successors reads go back to ``state`` before
    each scan. The residual dicts and the live list are updated in place."""
    state.start_vehicle(vehicle)
    k = vehicle.capacity
    lookup = instance._lookup
    rows, position = lookup.rows, lookup.position
    imbalance, damaged, live = state.residual_imbalance, state.residual_damaged, state.live
    elapsed = 0.0
    onboard_op = onboard_dam = 0
    lockers = k
    last_depot = 0
    stock, room = state.depot_remaining, state.depot_room
    u = DEPOT
    visits: list[int] = [DEPOT]
    moves: list[tuple[int, int]] = [(0, 0)]
    while True:
        candidates = feasible_successors(instance, state, u, vehicle, params)
        if not candidates:
            break
        v, beta, alpha = select_next(candidates, rng)
        row, to_depot = rows[u]
        if v == DEPOT:
            elapsed += to_depot
            visits.append(DEPOT)
            moves.append((0, -onboard_dam))
            onboard_dam = 0
            last_depot = len(visits) - 1
            lockers = k - onboard_op
        else:
            elapsed += row[position[v]]
            if imbalance[v] < 0:
                retro = beta - onboard_op
                if retro > 0:
                    # claim the extra bikes at the most recent depot visit
                    dx, dy = moves[last_depot]
                    moves[last_depot] = (dx + retro, dy)
                    stock -= retro
                    lockers -= retro
                    onboard_op += retro
                onboard_op -= beta
                imbalance[v] += beta
                delta_op = -beta
            else:
                onboard_op += beta
                imbalance[v] -= beta
                delta_op = beta
            onboard_dam += alpha
            damaged[v] -= alpha
            if room is not None:
                room -= delta_op + alpha
            if _done(imbalance[v], damaged[v]):
                live.remove(position[v])
            visits.append(v)
            moves.append((delta_op, alpha))
            load = onboard_op + onboard_dam
            if k - load < lockers:
                lockers = k - load
            if not 0 <= load <= k:
                raise ValueError(f"visit to {v}: vehicle {vehicle.id} load outside [0, {k}]")
            if stock < 0 or lockers < 0:
                raise ValueError(f"visit to {v}: depot stock or free lockers below zero")
        u = v
        state.elapsed = elapsed
        state.onboard_operative = onboard_op
        state.onboard_damaged = onboard_dam
        state.min_free_lockers = lockers
        state.depot_remaining = stock
        state.depot_room = room
    state.last_depot_index = last_depot
    if len(visits) == 1:
        # never left the depot: an unused vehicle
        state.route_times[vehicle.id] = 0.0
        return Route(vehicle.id), LoadingPlan(vehicle.id)
    if u == DEPOT:
        dx, dy = moves[-1]
        moves[-1] = (dx - onboard_op, dy - onboard_dam)
    else:
        elapsed += rows[u][1]
        visits.append(DEPOT)
        moves.append((-onboard_op, -onboard_dam))
    state.elapsed = elapsed
    state.onboard_operative = 0
    state.onboard_damaged = 0
    state.route_times[vehicle.id] = elapsed
    return Route(vehicle.id, tuple(visits)), LoadingPlan(vehicle.id, tuple(moves))


def construct_solution(
    instance: Instance,
    params: ConstructionParams,
    rng: np.random.Generator,
    weights: ObjectiveWeights = ObjectiveWeights(),
) -> Solution:
    """Build one feasible solution: a route and provisional plan per vehicle.

    The final inventories and route times are read off the build state, which
    already holds them; no move is replayed. ``model.solution_from_plans``
    replays moves once wherever plans come from elsewhere: phase two,
    ``validate_solution``, ``parse_solution`` and the benchmark's checks.

    From a PCG64 Generator the draws are read off its raw words (``_Draws``):
    the same values, and the Generator is left where its own ``random()`` and
    ``integers()`` calls would leave it. Any other bit generator is drawn
    from through the Generator.
    """
    state = BuildState.fresh(instance)
    routes = []
    plans = []
    bits = rng.bit_generator
    draws = _Draws(bits) if type(bits) is np.random.PCG64 else rng
    try:
        for vehicle in instance.fleet:
            route, plan = build_route(instance, state, vehicle, params, draws)
            routes.append(route)
            plans.append(plan)
    finally:
        if draws is not rng:
            draws.close()
    return solution_from_plans(instance, state, routes, plans, weights)


# name kept from the model function it replaced: bench/tracing.py wraps it as
# phase one's model.solution_from_plans span
def solution_from_plans(
    instance: Instance,
    state: BuildState,
    routes: list[Route],
    plans: list[LoadingPlan],
    weights: ObjectiveWeights,
) -> Solution:
    """The Solution of a construction, read off its finished build state.

    A station ends at its target plus its residual imbalance, with its
    residual damaged bikes, both in station order; the route times are the
    state's, which build_route wrote in fleet order. Each is what a replay of
    the plans gives, to the bit: a route's ``elapsed`` adds its legs in visit
    order from 0.0, as ``route_time`` does.
    """
    if len(state.route_times) != len(instance.fleet):
        # a vehicle id listed twice, whose routes would share one time; run()
        # never gets here, as check_instance rejects such a fleet
        raise ValueError("vehicles: duplicate vehicle id")
    residual = state.residual_imbalance
    rows = instance._objective_rows
    operative = {sid: target + residual[sid] for sid, _, target in rows}
    damaged = {sid: state.residual_damaged[sid] for sid, _, _ in rows}
    return Solution(
        routes=tuple(routes),
        plans=tuple(plans),
        final_operative=operative,
        final_damaged=damaged,
        route_times=state.route_times,
        objective=evaluate_objective(instance, operative, damaged, state.route_times, weights),
    )
