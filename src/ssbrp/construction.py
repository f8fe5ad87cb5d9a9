"""Randomized greedy route construction (phase one).

Routes are built sequentially, one vehicle after the other, against a shared
build state that tracks residual station imbalances, residual damaged bikes,
and the unclaimed depot stock. The largest vehicle goes first: the build
order is the fleet by descending capacity, ties in fleet order, so a fleet of
one capacity is built as listed. The paper's abstract names a heterogeneous
fleet but gives no build order; the README gives this rule's effect on the
benchmark's fleet-mixed, whose capacities are listed ascending. The solution
keeps its routes and plans in fleet order. ``model._solution``, the one
assembly of a Solution, keys its route times over the fleet in fleet order,
so its total depends only on its routes and plans.

Successor choice is greedy-randomized: each candidate move has a ratio
(moved bikes vs. detour time), a fresh threshold epsilon keeps only the
moves close to the largest ratio, and the winner is drawn uniformly among
them. A construction from a fresh PCG64 Generator, as ``run()``'s are,
reads the Generator's raw words itself (``_Draws``); its draws are those of
the Generator's own methods. It peeks each step's epsilon before the scan,
which walks the stations by descending weight / minutes, stops once none
left can reach the cut, and returns only the moves kept; the draws, and so
the routes, are those of a whole scan filtered by ``select_next``.

``_walk`` carries fixed routes into a Solution under the same move rule,
timing each route as build_route does. ``_reload`` makes two such walks of a
built solution's routes when the depot has stock, and returns the built
solution when it has none, for a plan that ``search.run`` keeps without
phase two where it meets ``loading_bound``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

import numpy as np

from .model import (
    DEPOT,
    Instance,
    LoadingPlan,
    ObjectiveWeights,
    Route,
    Solution,
    Vehicle,
    _floats,
    _solution,
    check_instance,
)


@dataclass(frozen=True)
class ConstructionParams:
    """Tuning knobs: theta dampens the moved-bikes count, mu scales depot pull."""

    theta: float = 0.5
    mu: float = 1.5

    def __post_init__(self):
        _floats(self, "", theta=self.theta, mu=self.mu)
        if not 0 < self.theta <= 1:
            raise ValueError("theta must lie in (0, 1]")
        if not 0 < self.mu < math.inf:
            raise ValueError("mu must be positive and finite")


@dataclass(slots=True)
class BuildState:
    """Mutable construction state shared across the fleet.

    The residual imbalances and damaged bikes are lists in
    ``Instance.stations`` order. They and the depot's stock and room persist
    between routes. ``depot_room`` is what the depot can still take in of
    the bikes the routes remove from stations (every removed bike ends
    there), ``math.inf`` for a depot without a capacity. A station whose
    residuals leave no work (imbalance 0, damaged <= 0) is never a
    candidate; a state built by hand may give any station work.
    ``route_times`` holds the route time of each vehicle that left the
    depot, recorded as build_route or _walk closes its route; an unused
    vehicle has none, and the Solution's assembly times it at 0.0. A route's
    running values live in build_route's locals; the slots make any other
    attribute an error.
    """

    residual_imbalance: list[int]
    residual_damaged: list[int]
    depot_remaining: int
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
        )


@functools.cache
def _powers(theta: float, capacity: int) -> tuple[float, ...]:
    """``n ** theta`` for every move size n; a move reaches 2 * capacity,
    since a delivery frees lockers for damaged pickups."""
    return tuple(n**theta for n in range(2 * capacity + 1))


def route_context(
    instance: Instance, state: BuildState, vehicle: Vehicle, params: ConstructionParams
) -> tuple:
    """What feasible_successors reads that no step of a route changes: the
    lookup tables, each node's walk order and fewest minutes to a station,
    the time budget, the vehicle's capacity and ``n ** theta`` table, theta, mu, and the state's
    residual lists, which the steps update in place."""
    lookup = instance._lookup
    k = vehicle.capacity
    return (
        lookup.rows,
        lookup.by_ratio,
        lookup.nearest,
        lookup.ids,
        lookup.back,
        lookup.weight,
        float(instance.time_budget),
        k,
        _powers(params.theta, k),
        params.theta,
        params.mu,
        state.residual_imbalance,
        state.residual_damaged,
    )


# the walk's stop test (feasible_successors): a relative margin of 32 units
# of 2**-53, an absolute slack of twice the least subnormal, and the cap of
# an infinite cut
_MARGIN = 1 + 2.0**-48
_SLACK = 2.0**-1073
_LARGEST = sys.float_info.max


def feasible_successors(
    context: tuple,
    u: int,
    elapsed: float,
    onboard_op: int,
    onboard_dam: int,
    lockers: int,
    stock: int,
    room: float,
    epsilon: float | None = None,
) -> list[tuple[int, int, int, float]]:
    """Candidate next visits from node u, as scored moves ``(node, beta,
    alpha, ratio)``: all of them, or with ``epsilon`` those whose ratio
    reaches epsilon times the largest.

    ``context`` is route_context's; the other arguments are the route's
    running values: minutes elapsed, operative and damaged bikes on board,
    the fewest lockers free since the last depot visit, the unclaimed depot
    stock and the depot's room (``math.inf`` is unbounded). An unknown u
    raises KeyError.

    A station qualifies if the route can visit it and return to the depot
    in time, and the vehicle can actually move at least one bike there; a
    station with no work left never can. Surplus and balanced stations are
    served from free vehicle capacity. Deficit stations may draw on bikes
    already onboard plus a retroactive depot pickup bounded by the unclaimed
    stock and by the lockers that were free along the whole segment since
    the last depot visit. Pickups, net of the delivery, never exceed the
    depot's room. The depot qualifies only to unload damaged bikes. Moves
    come in ``Instance.stations`` order, the depot last.

    A station scores ``(beta + alpha) ** theta / t * w`` (bikes moved, travel
    minutes, station weight), the depot ``mu * onboard damaged / t``. Zero
    travel time scores infinity and dominates all; it wins over a zero
    weight, so a station 0 minutes away scores infinity at weight 0 too. Any
    other station of weight 0 scores 0, also where the quotient overflows
    (inf * 0 would be nan, which no epsilon cut can compare). ``n ** theta``
    comes from a table up to 2 * capacity, the largest move of a load that
    fits the vehicle; a larger move, which only a hand-built state can
    yield, uses the same formula.

    The walk follows ``Instance._lookup.by_ratio[u]``: the other stations
    by descending ``q = w / t`` (0 minutes first, as infinity). No move at
    this step exceeds ``nb = max(pick, reach + min(pick + reach,
    undamaged))``, named as in the body: a surplus move is at most pick,
    and a deficit move at most ``beta + min(pick + beta, undamaged)`` with
    ``beta <= reach``. So no station's ratio exceeds ``P(nb) · w / t``, with
    ``P(n) = n ** theta``. The cut is epsilon times the largest ratio so
    far, the depot's included, or that ratio when it is infinite; it only
    rises. With epsilon, the walk stops at the first station whose q is
    below ``g = (min(cut, largest float) - S) / (P(nb) · M)``, as no station
    from there on reaches the cut, and returns the moves that reach the
    final cut. So the largest ratio, the cut and the moves returned are
    those of the whole scan, filtered as ``select_next`` filters it.

    The bound holds in floats. Let u = 2**-53 and e = 2**-1074, the least
    subnormal. Each operation is within u relative, or e/2 absolute in the
    subnormal range, and pow within one unit in the last place, so
    ``fl(P(n)) <= A · (1 + 2u) / (1 - 2u)`` with ``A = fl(P(nb)) >= 1``. A
    computed ratio ``fl(fl(P(n) / t) · w)`` is then at most ``A · (q + e/2)
    · (1 + 12u) + e/2``. (A quotient ``P(n) / t`` in the subnormal range
    needs t > 2**1022, and as t < 2**1024 its absolute error times w is at
    most 4u · w / t.) Floats with q < g differ by e at least, so ``q + e/2
    <= g - e/2``, and g, rounded three times, keeps ``A · (q + e/2)`` under
    ``(cut - S) · (1 + 3u) / M``. With ``M = 1 + 32u`` the ratio stays under
    ``cut - S + e/2``, which is below the cut as ``S = 2e``. An infinite cut
    is capped at the largest float, so g stays finite and every ratio
    under the cap is finite.

    The bound needs ``fl(P(n) / t)`` finite. A quotient ``w / t`` below the
    cap can come with a ``P(n) / t`` that overflows, and so an infinite
    ratio, for t below ``A · (1 + 5u)`` over the largest float. So when
    ``Instance._lookup.nearest[u]``, the fewest positive minutes to a
    station, times the largest float is below ``A · M``, g stays 0 and the
    walk reads every station.
    """
    rows, by_ratio, nearest, ids, back, weight, budget, k, powered, theta, mu, imbalance, damaged = context
    row, t_u0 = rows[u]
    # conditional expressions, not min()/max(): this runs for every walked
    # station at every step, and the builtin calls would cost twice the rest
    # of the body
    free = k - onboard_op - onboard_dam
    pick = free if free < room else room
    reach = onboard_op + (stock if stock < lockers else lockers)
    undamaged = k - onboard_dam
    depot = []
    if u != DEPOT and onboard_dam > 0 and elapsed + t_u0 <= budget:
        depot.append((DEPOT, 0, 0, math.inf if t_u0 == 0 else mu * onboard_dam / t_u0))
    nb = reach + (pick + reach if pick + reach < undamaged else undamaged)
    if nb < pick:
        nb = pick
    if nb <= 0:
        return depot  # no station move: the depot's, if any, is the top
    size = len(powered)
    bound = powered[nb] if nb < size else nb**theta
    scale = bound * _MARGIN
    if scale > nearest[u] * _LARGEST:
        scale = math.inf  # some P(n) / t may overflow: g stays 0, and no station stops the walk
    top = cut = -1.0  # no move yet: every ratio exceeds top and reaches cut
    g = 0.0  # quotients are >= 0: no stop before the first move
    if epsilon is None:
        top = math.inf  # never exceeded: cut and g stay, and every move is kept
    elif depot:
        top = depot[0][3]
        cut = top if top == math.inf else epsilon * top
        g = ((cut if cut < _LARGEST else _LARGEST) - _SLACK) / scale
    out = []
    for i, q in by_ratio[u]:
        if q < g:
            break
        d = imbalance[i]
        avail_damaged = damaged[i]
        if not d and avail_damaged <= 0:
            continue
        t = row[i]
        if elapsed + t + back[i] > budget:
            continue
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
            if r > top:
                top = r
                cut = top if top == math.inf else epsilon * top
                g = ((cut if cut < _LARGEST else _LARGEST) - _SLACK) / scale
            elif r < cut:
                continue
            out.append((i, beta, alpha, r))
    out.sort()
    moves = [(ids[i], beta, alpha, r) for i, beta, alpha, r in out if r >= cut]
    if depot and depot[0][3] >= cut:
        moves += depot
    return moves


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
    is 0 and draws nothing. ``peek()`` is the next ``random()``, drawn
    later or never: it fetches a block when none is left, but consumes no
    word and leaves a kept half kept. Words are fetched in blocks with
    ``random_raw``, the only call made on the bit generator: it is left past
    the last block read, and a half it already kept goes unused.
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

    def peek(self) -> float:
        """The next ``random()``, drawing nothing."""
        words = self._words or self._fetch()
        return (words[-1] >> 11) * _UNIT

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
    candidates: list[tuple[int, int, int, float]],
    rng: np.random.Generator | _Draws,
    epsilon: float | None = None,
) -> tuple[int, int, int]:
    """Uniform draw among the scored moves ``(node, beta, alpha, ratio)``
    whose ratio reaches epsilon times the largest, returned as ``(node,
    beta, alpha)``.

    ``rng`` is a Generator, or the ``_Draws`` that construct_solution reads
    off a PCG64 Generator; both give the same draws."""
    if not candidates:
        raise ValueError("no candidates to select from")
    if epsilon is None:
        # the same draw as rng.uniform(), which returns 0 + 1 * random()
        epsilon = rng.random()
    top = max(candidates, key=itemgetter(3))[3]
    # ratios are >= 0, so an infinite cut keeps exactly the infinite ratios
    # (and never forms 0 * inf = nan)
    cut = top if top == math.inf else epsilon * top
    eligible = [move for move in candidates if move[3] >= cut]
    # integers(1) is 0 and draws nothing, from a Generator as from _Draws; a
    # Generator's integers() is a NumPy integer, which indexes a list as is
    node, beta, alpha, _ = eligible[rng.integers(len(eligible))]
    return node, beta, alpha


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
    stock or the free lockers raises ValueError. The residual lists are
    updated in place, at the drawn station's position; the depot's stock and
    room and the route's time are written once, as the route closes, and not
    at all when a check raises.

    From ``_Draws`` each step peeks epsilon, scans with it, and only when a
    move is left consumes epsilon and draws the move's index among the
    returned ones; the draws are those of select_next over the whole scan.
    From a Generator each step scans whole and calls select_next."""
    k = vehicle.capacity
    context = route_context(instance, state, vehicle, params)
    lookup = instance._lookup
    rows, position = lookup.rows, lookup.position
    imbalance, damaged = state.residual_imbalance, state.residual_damaged
    elapsed = 0.0
    onboard_op = onboard_dam = 0
    lockers = k
    last_depot = 0
    stock, room = state.depot_remaining, state.depot_room
    u = DEPOT
    visits: list[int] = [DEPOT]
    moves: list[tuple[int, int]] = [(0, 0)]
    peek = rng.peek if type(rng) is _Draws else None
    while True:
        epsilon = peek() if peek else None
        candidates = feasible_successors(
            context, u, elapsed, onboard_op, onboard_dam, lockers, stock, room, epsilon
        )
        if not candidates:
            break
        if peek:
            rng.random()  # epsilon, peeked
            v, beta, alpha, _ = candidates[rng.integers(len(candidates))]
        else:
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
    routes: Sequence[Route],
    plans: Sequence[LoadingPlan],
    weights: ObjectiveWeights,
) -> Solution:
    """The Solution of a construction or a walk, read off its finished build state.

    A station ends at its target plus its residual imbalance, with its
    residual damaged bikes; the state's lists are read beside the
    ``objective_rows`` of ``Instance._lookup`` into dicts by station id, in
    station order. The route times are the state's, which build_route or
    _walk wrote as each route closed; each is what ``model._replay`` gives,
    to the bit, as both add a route's legs in visit order from 0.0.
    ``model._solution`` assembles the Solution, as it does a replay's: route
    times over the whole fleet in fleet order, so the total depends only on
    the routes and plans, whatever order a walk took them in.
    """
    rows = instance._lookup.objective_rows
    operative = {sid: target + r for (sid, _, target), r in zip(rows, state.residual_imbalance)}
    damaged = {sid: r for (sid, _, _), r in zip(rows, state.residual_damaged)}
    return _solution(instance, routes, plans, operative, damaged, state.route_times, weights)


def _walk(
    instance: Instance,
    routes: Sequence[Route],
    weights: ObjectiveWeights,
    quota: list[int] | None = None,
) -> Solution:
    """One walk of fixed routes, in the order given, under phase one's move rule.

    The walk starts from ``BuildState.fresh``, the depot's stock included.
    Each visit moves what feasible_successors offers there and applies it as
    build_route does, stock and room included; a depot visit drops the
    damaged bikes, and the route's last visit everything on board. ``quota``,
    by station position, caps the bikes each station gets from the depot
    stock in all and is used up in place; None is the whole stock at every
    station, a cap that never binds, and an all-zero quota draws no stock.
    The moves pass ``validate_solution`` for the reasons phase one's do, and
    a quota only lowers a delivery. Each leg's minutes are added as
    build_route adds them, and a route's time is recorded on the state as
    the route closes (an empty route records none); solution_from_plans
    reads the Solution off the state.
    """
    lookup = instance._lookup
    rows, position, fleet = lookup.rows, lookup.position, lookup.fleet
    state = BuildState.fresh(instance)
    imbalance, damaged = state.residual_imbalance, state.residual_damaged
    if quota is None:
        quota = [state.depot_remaining] * len(imbalance)
    plans: list[LoadingPlan] = []
    for route in routes:
        visits = route.visits
        if not visits:
            plans.append(LoadingPlan(route.vehicle_id))
            continue
        k = fleet[route.vehicle_id].capacity
        moves = [(0, 0)] * len(visits)
        op = dam = 0
        lockers = k
        last_depot = 0
        elapsed = 0.0
        stock, room = state.depot_remaining, state.depot_room
        for i in range(1, len(visits) - 1):
            node = visits[i]
            row, to_depot = rows[visits[i - 1]]
            if node == DEPOT:
                elapsed += to_depot
                moves[i] = (0, -dam)
                dam = 0
                last_depot = i
                lockers = k - op
                continue
            at = position[node]
            elapsed += row[at]
            d, avail = imbalance[at], damaged[at]
            free = k - op - dam
            pick = free if free < room else room
            if d < 0:
                depot = stock if stock < lockers else lockers
                if quota[at] < depot:
                    depot = quota[at]
                reach = op + depot
                beta = reach if reach < -d else -d
                space = pick + beta
                if space > k - dam:
                    space = k - dam
                alpha = space if space < avail else avail
                retro = beta - op
                if retro > 0:
                    dx, dy = moves[last_depot]
                    moves[last_depot] = (dx + retro, dy)
                    stock -= retro
                    lockers -= retro
                    op += retro
                    quota[at] -= retro
                op -= beta
                imbalance[at] += beta
                delta = -beta
            else:
                beta = pick if pick < d else d
                alpha = pick - beta if pick - beta < avail else avail
                op += beta
                imbalance[at] -= beta
                delta = beta
            dam += alpha
            damaged[at] -= alpha
            room -= delta + alpha
            moves[i] = (delta, alpha)
            if k - op - dam < lockers:
                lockers = k - op - dam
        state.depot_remaining, state.depot_room = stock, room
        state.route_times[route.vehicle_id] = elapsed + rows[visits[-2]][1]
        moves[-1] = (-op, -dam)
        plans.append(LoadingPlan(route.vehicle_id, tuple(moves)))
    return solution_from_plans(instance, state, routes, plans, weights)


def _reload(
    instance: Instance,
    solution: Solution,
    weights: ObjectiveWeights = ObjectiveWeights(),
) -> Solution:
    """Another feasible loading of a solution's routes, found without an LP.

    Without depot stock, the solution itself: no walk is made. With stock,
    two ``_walk``s over the routes, in fleet order. The first, under an
    all-zero quota, draws no depot stock, so each route serves deficits from
    its own pickups. The second, which is returned, draws on the stock, but
    gives each station from it at most the deficit that the first walk left;
    where no deficit is left it draws nothing and repeats the first walk's
    plan. ``run`` keeps a result that meets the bound, as it is optimal then.
    """
    if not instance.depot.operative:
        return solution
    routes = solution.routes
    first = _walk(instance, routes, weights, [0] * len(instance.stations))
    quota = [
        max(target - first.final_operative[sid], 0)
        for sid, _, target in instance._lookup.objective_rows
    ]
    return _walk(instance, routes, weights, quota)
