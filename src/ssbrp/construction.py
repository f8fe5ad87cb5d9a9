"""Randomized greedy route construction (phase one).

Routes are built sequentially, one vehicle after the other, against a shared
build state that tracks residual station imbalances, residual damaged bikes,
and the unclaimed depot stock. The largest vehicle goes first: the build
order is the fleet by descending capacity, ties in fleet order, so a fleet of
one capacity is built as listed. The paper's abstract names a heterogeneous
fleet but gives no build order; the README gives this rule's effect on the
benchmark's fleet-mixed, whose capacities are listed ascending. The solution
keeps its routes, plans and route times in fleet order.

Successor choice is greedy-randomized: every candidate gets a ratio (moved
bikes vs. detour time), a fresh threshold epsilon keeps only candidates
close to the best ratio, and the winner is drawn uniformly among them. A
construction from a fresh PCG64 Generator, as ``run()``'s are, reads the
Generator's raw words itself (``_Draws``); its draws are those of the
Generator's own methods.
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
    _done,
    check_instance,
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


@dataclass(slots=True)
class BuildState:
    """Mutable construction state shared across the fleet.

    The residual imbalances and damaged bikes are lists in
    ``Instance.stations`` order. They, the live list and the depot's stock
    and room persist between routes. ``depot_room`` is what the depot can
    still take in of the bikes the routes remove from stations (every
    removed bike ends there), ``math.inf`` for a depot without a capacity.
    ``live`` holds the station positions the scan visits: ``fresh`` lists
    those with residual work left, and a visit drops a station once its work
    is done. A state built by hand passes its own list; it may also hold
    finished stations, which never become candidates.
    ``route_times`` holds each routed vehicle's route time, recorded as
    build_route closes its route. A route's running values live in
    build_route's locals; the slots make any other attribute an error.
    """

    residual_imbalance: list[int]
    residual_damaged: list[int]
    depot_remaining: int
    live: list[int]
    depot_room: float = math.inf
    route_times: dict[int, float] = field(default_factory=dict)

    @classmethod
    def fresh(cls, instance: Instance) -> BuildState:
        capacity = instance.depot.capacity
        lookup = instance._lookup
        return cls(
            residual_imbalance=lookup.imbalance.copy(),
            residual_damaged=lookup.damaged.copy(),
            depot_remaining=instance.depot.operative,
            depot_room=math.inf if capacity is None else capacity - instance.depot.operative,
            live=lookup.live.copy(),
        )


@functools.cache
def _powers(theta: float, capacity: int) -> tuple[float, ...]:
    """``n ** theta`` for every move size n; a move reaches 2 * capacity,
    since a delivery frees lockers for damaged pickups."""
    return tuple(n**theta for n in range(2 * capacity + 1))


class Candidates(list):
    """One scan step's moves ``(node, beta, alpha)``, in ``Instance.stations``
    order with the depot last; ``ratios`` holds their ratios in the same
    order and ``top`` the largest of them (0.0 when there is no move)."""

    __slots__ = ("ratios", "top")


def route_context(
    instance: Instance, state: BuildState, vehicle: Vehicle, params: ConstructionParams
) -> tuple:
    """What feasible_successors reads that no step of a route changes: the
    lookup tables, the time budget, the vehicle's capacity and ``n ** theta``
    table, theta, mu, and the state's live list and residual lists, which the
    steps update in place."""
    lookup = instance._lookup
    k = vehicle.capacity
    return (
        lookup.rows,
        lookup.ids,
        lookup.back,
        lookup.weight,
        instance.time_budget,
        k,
        _powers(params.theta, k),
        params.theta,
        params.mu,
        state.live,
        state.residual_imbalance,
        state.residual_damaged,
    )


def feasible_successors(
    context: tuple,
    u: int,
    elapsed: float,
    onboard_op: int,
    onboard_dam: int,
    lockers: int,
    stock: int,
    room: float,
) -> Candidates:
    """Candidate next visits from node u, as the moves ``(node, beta,
    alpha)`` with their ratios.

    ``context`` is route_context's; the other arguments are the route's
    running values: minutes elapsed, operative and damaged bikes on board,
    the fewest lockers free since the last depot visit, the unclaimed depot
    stock and the depot's room (``math.inf`` is unbounded). An unknown u
    raises KeyError.

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
    rows, ids, back, weight, budget, k, powered, theta, mu, live, imbalance, damaged = context
    row, t_u0 = rows[u]
    size = len(powered)
    # conditional expressions, not min()/max(): this runs for every live
    # station at every step, and the builtin calls would cost twice the rest
    # of the body. A finished station (imbalance 0, damaged <= 0) always gets
    # beta + alpha <= 0.
    free = k - onboard_op - onboard_dam
    pick = free if free < room else room
    reach = onboard_op + (stock if stock < lockers else lockers)
    undamaged = k - onboard_dam
    out = Candidates()
    out.ratios = ratios = []
    top = 0.0
    for i in live:
        v = ids[i]
        if v == u:
            continue
        t = row[i]
        if elapsed + t + back[i] > budget:
            continue
        d = imbalance[i]
        avail_damaged = damaged[i]
        if d < 0:
            beta = reach if reach < -d else -d
            # free space after the delivery, never beyond the lockers damaged bikes leave open
            space = pick + beta
            if space > undamaged:
                space = undamaged
            alpha = space if space < avail_damaged else avail_damaged
        else:
            beta = pick if pick < d else d
            alpha = pick - beta if pick - beta < avail_damaged else avail_damaged
        n = beta + alpha
        if n > 0:
            w = weight[i]
            if t and w:
                r = (powered[n] if n < size else n**theta) / t * w
            else:
                r = math.inf if t == 0 else 0.0
            out.append((v, beta, alpha))
            ratios.append(r)
            if r > top:
                top = r
    if u != DEPOT and onboard_dam > 0 and elapsed + t_u0 <= budget:
        r = math.inf if t_u0 == 0 else mu * onboard_dam / t_u0
        out.append((DEPOT, 0, 0))
        ratios.append(r)
        if r > top:
            top = r
    out.top = top
    return out


_BLOCK = 64  # raw words per fetch: about one construction of a 15-station instance
_UNIT = 2.0**-53


class _Draws:
    """``random()`` and ``integers(m)`` of a fresh PCG64-backed Generator,
    equal to the Generator's own to the bit, read off the bit generator's raw
    64-bit words without NumPy's per-call cost.

    ``random()`` is a word's top 53 bits times 2**-53. ``integers(m)`` draws
    as ``Generator.integers`` does for 1 <= m <= 2**32 (Lemire's method on
    32-bit values): each word gives its low half first and keeps its high half
    for the next 32-bit draw, as PCG64's ``next_uint32`` does. ``integers(1)``
    is 0 and draws nothing. Words are fetched in blocks with ``random_raw``,
    the only call made on the bit generator: it is left past the last block
    read, and a half it already kept goes unused.
    """

    __slots__ = ("_bits", "_words", "_half")

    def __init__(self, bits: np.random.PCG64):
        self._bits = bits
        self._half: int | None = None
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


def select_next(
    candidates: Candidates,
    rng: np.random.Generator | _Draws,
    epsilon: float | None = None,
) -> tuple[int, int, int]:
    """Uniform draw among the candidate moves whose ratio reaches epsilon
    times the top ratio.

    ``rng`` is a Generator, or the ``_Draws`` that construct_solution reads
    off a PCG64 Generator; both give the same draws."""
    if not candidates:
        raise ValueError("no candidates to select from")
    if epsilon is None:
        # the same draw as rng.uniform(), which returns 0 + 1 * random()
        epsilon = rng.random()
    top = candidates.top
    # ratios are >= 0, so an infinite cut keeps exactly the infinite ratios
    # (and never forms 0 * inf = nan)
    cut = top if top == math.inf else epsilon * top
    eligible = [move for move, r in zip(candidates, candidates.ratios) if r >= cut]
    # integers(1) is 0 and draws nothing, from a Generator as from _Draws; a
    # Generator's integers() is a NumPy integer, which indexes a list as is
    return eligible[rng.integers(len(eligible))]


def build_route(
    instance: Instance,
    state: BuildState,
    vehicle: Vehicle,
    params: ConstructionParams,
    rng: np.random.Generator | _Draws,
) -> tuple[Route, LoadingPlan]:
    """Grow one route from the depot until no candidate remains, then close it.

    The route's running values (minutes elapsed, bikes on board, the fewest
    lockers free since the last depot visit and that visit's index) are
    kept in locals and passed to feasible_successors with the route's
    context, which is collected once. Each drawn move is applied here: a
    delivery beyond the operative bikes on board claims the rest at the last
    depot visit. A move that overloads the vehicle or overdraws the depot
    stock or the free lockers raises ValueError. The residual lists and the
    live list are updated in place, at the drawn station's position; the
    depot's stock and room and the route's time are written once, as the
    route closes, and not at all when a check raises."""
    k = vehicle.capacity
    context = route_context(instance, state, vehicle, params)
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
        candidates = feasible_successors(
            context, u, elapsed, onboard_op, onboard_dam, lockers, stock, room
        )
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
            i = position[v]
            elapsed += row[i]
            if imbalance[i] < 0:
                retro = beta - onboard_op
                if retro > 0:
                    # claim the extra bikes at the most recent depot visit
                    dx, dy = moves[last_depot]
                    moves[last_depot] = (dx + retro, dy)
                    stock -= retro
                    lockers -= retro
                    onboard_op += retro
                onboard_op -= beta
                imbalance[i] += beta
                delta_op = -beta
            else:
                onboard_op += beta
                imbalance[i] -= beta
                delta_op = beta
            onboard_dam += alpha
            damaged[i] -= alpha
            room -= delta_op + alpha
            if _done(imbalance[i], damaged[i]):
                live.remove(i)
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
    state.depot_remaining = stock
    state.depot_room = room
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
    state.route_times[vehicle.id] = elapsed
    return Route(vehicle.id, tuple(visits)), LoadingPlan(vehicle.id, tuple(moves))


def construct_solution(
    instance: Instance,
    params: ConstructionParams,
    rng: np.random.Generator,
    weights: ObjectiveWeights = ObjectiveWeights(),
) -> Solution:
    """Build one feasible solution: a route and provisional plan per vehicle.

    The vehicles are built in ``Instance._lookup.build_order``, largest
    capacity first, and the routes and plans are returned in fleet order.
    That order is sound for the replay, which runs the routes in fleet order:
    a route never draws on bikes another route returns to the depot, and a
    station's operative stock, moved in any order, stays between its start and
    its target.

    The instance is checked first, as ``run()`` checks it: check_instance
    raises on an invalid one and remembers a pass. The final inventories and
    route times are read off the build state, which already holds them; no
    move is replayed. ``model.solution_from_plans``
    replays moves once wherever plans come from elsewhere: phase two,
    ``validate_solution``, ``parse_solution`` and the benchmark's checks.

    From a PCG64 Generator the draws are read off its raw words (``_Draws``),
    the same values as its own ``random()`` and ``integers()`` when it is
    fresh, as ``run()``'s are. It is left past the words read, for no further
    draws. Any other bit generator is drawn from through the Generator.
    """
    check_instance(instance)
    state = BuildState.fresh(instance)
    fleet = instance.fleet
    routes: list = [None] * len(fleet)
    plans: list = [None] * len(fleet)
    bits = rng.bit_generator
    draws = _Draws(bits) if type(bits) is np.random.PCG64 else rng
    for j in instance._lookup.build_order:
        routes[j], plans[j] = build_route(instance, state, fleet[j], params, draws)
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
    residual damaged bikes; the state's lists are read beside the
    ``objective_rows`` of ``Instance._lookup`` into dicts by station id, in
    station order.
    The route times are the state's, which build_route wrote in build order,
    keyed by vehicle id (check_instance keeps ids distinct) in the order of
    ``routes``, fleet order, so the objective adds them as the replay does.
    Each is what ``model._replay`` gives, to the bit: both add a route's legs
    in visit order from 0.0.
    """
    rows = instance._lookup.objective_rows
    operative = {sid: target + r for (sid, _, target), r in zip(rows, state.residual_imbalance)}
    damaged = {sid: r for (sid, _, _), r in zip(rows, state.residual_damaged)}
    times = {r.vehicle_id: state.route_times[r.vehicle_id] for r in routes}
    return Solution(
        routes=tuple(routes),
        plans=tuple(plans),
        final_operative=operative,
        final_damaged=damaged,
        route_times=times,
        objective=evaluate_objective(instance, operative, damaged, times, weights),
    )
