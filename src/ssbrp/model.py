"""Problem data model, feasibility checks, and objective evaluation.

Nodes are integer ids; the depot is always node 0. All model types are
immutable values and every operation here is a pure function, so an
instance or a solution can be passed around and reused without copying.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

DEPOT = 0


@dataclass(frozen=True)
class Station:
    """A station with docks, current inventories, and a target inventory."""

    id: int
    capacity: int
    operative: int
    damaged: int
    target: int
    weight: float = 1.0

    @property
    def imbalance(self) -> int:
        """Operative bikes above (+) or below (-) the target."""
        return self.operative - self.target


@dataclass(frozen=True)
class Depot:
    """Depot stock of operative bikes; capacity None means unbounded."""

    operative: int
    capacity: int | None = None


@dataclass(frozen=True)
class Vehicle:
    id: int
    capacity: int


@dataclass(frozen=True, eq=False)
class TravelMatrix:
    """Travel times in minutes between all node pairs, as a read-only array.

    Rows and columns follow ``Instance.nodes``: position 0 is the depot and
    position i >= 1 is ``stations[i-1]``, as in the instance document.
    """

    minutes: np.ndarray

    def __post_init__(self):
        m = np.array(self.minutes, dtype=float)
        m.flags.writeable = False
        object.__setattr__(self, "minutes", m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TravelMatrix):
            return NotImplemented
        return np.array_equal(self.minutes, other.minutes)

    def __hash__(self) -> int:
        # the cells as Python floats, not bytes: hash(-0.0) == hash(0.0), as __eq__ has it
        return hash((self.minutes.shape, tuple(self.minutes.ravel().tolist())))


class _Lookup(NamedTuple):
    """What an ``Instance`` derives from its fields, built once on first use.

    Lists by position follow ``Instance.stations``, and ``position`` is the
    one index of the stations by id. The travel minutes are Python floats,
    laid out for phase one's station scans; ``Instance.travel_time`` reads
    them too. Callers copy the lists and dicts they change.
    """

    rows: dict[int, tuple[list[float], float]]  # node -> (minutes to each station, to the depot)
    # node -> (position, weight / minutes) of the other stations, by descending
    # quotient; 0 minutes is infinity
    by_ratio: dict[int, list[tuple[int, float]]]
    # node -> fewest positive minutes to another station, infinity if none
    nearest: dict[int, float]
    back: list[float]  # minutes from each station to the depot
    ids: list[int]  # station id at each position
    position: dict[int, int]  # station id -> position
    weight: list[float]
    imbalance: list[int]  # operative bikes above (+) or below (-) the target
    damaged: list[int]
    docks: list[int]  # free docks: capacity - operative - damaged
    objective_rows: list[tuple[int, float, int]]  # (id, weight, target): what the objective sums
    deviation: float  # the objective's normalizer D = sum(w * |dev| + damaged), in station order
    start: tuple[dict[int, int], dict[int, int]]  # operative and damaged inventories by node
    shortfall_order: list[tuple[int, int]]  # (id, deficit), lightest first; ties in station order
    exact_sums: bool  # integer weights, sum w * |imbalance| < 2**53: float sums are exact
    fleet: dict[int, Vehicle]  # vehicle id -> vehicle
    build_order: list[int]  # fleet positions, largest capacity first; ties in fleet order


@dataclass(frozen=True)
class Instance:
    """A repositioning instance; ``travel`` is laid out in ``nodes`` order."""

    stations: tuple[Station, ...]
    depot: Depot
    travel: TravelMatrix
    fleet: tuple[Vehicle, ...]
    time_budget: float
    metric: bool = False

    def station(self, node: int) -> Station:
        try:
            return self.stations[self._lookup.position[node]]
        except KeyError:
            raise ValueError(f"unknown station id {node}")

    @property
    def nodes(self) -> tuple[int, ...]:
        return (DEPOT,) + tuple(s.id for s in self.stations)

    def travel_time(self, u: int, v: int) -> float:
        """Minutes from node u to node v."""
        lookup = self._lookup
        try:
            row, to_depot = lookup.rows[u]
            return to_depot if v == DEPOT else row[lookup.position[v]]
        except KeyError as exc:
            raise ValueError(f"unknown node id {exc.args[0]}") from None

    @cached_property
    def _lookup(self) -> _Lookup:
        """Built on first use, not at parse; not a field, so outside ``==``."""
        minutes = self.travel.minutes.tolist()
        ids = [s.id for s in self.stations]
        # Python floats: a NumPy weight would carry its precision into every score and total
        weight = [float(s.weight) for s in self.stations]
        imbalance = [s.imbalance for s in self.stations]
        damaged = [s.damaged for s in self.stations]
        deviation = 0.0
        for w, d, a in zip(weight, imbalance, damaged):
            deviation += w * abs(d) + a
        by_weight = sorted(self.stations, key=lambda s: s.weight)
        by_ratio = {}
        nearest = {}
        # own: the node's station position, -1 at the depot; a station is left out of its own order
        for own, (node, row) in enumerate(zip(self.nodes, minutes), start=-1):
            quotients = [w / t if t else math.inf for w, t in zip(weight, row[1:])]
            pairs = [(i, q) for i, q in enumerate(quotients) if i != own]
            by_ratio[node] = sorted(pairs, key=itemgetter(1), reverse=True)
            positive = (t for i, t in enumerate(row[1:]) if t > 0 and i != own)
            nearest[node] = min(positive, default=math.inf)
        return _Lookup(
            rows={n: (row[1:], row[0]) for n, row in zip(self.nodes, minutes)},
            by_ratio=by_ratio,
            nearest=nearest,
            back=[row[0] for row in minutes[1:]],
            ids=ids,
            position={sid: i for i, sid in enumerate(ids)},
            weight=weight,
            imbalance=imbalance,
            damaged=damaged,
            docks=[s.capacity - s.operative - s.damaged for s in self.stations],
            objective_rows=[(s.id, w, s.target) for s, w in zip(self.stations, weight)],
            deviation=deviation,
            start=(
                {DEPOT: self.depot.operative} | {s.id: s.operative for s in self.stations},
                {DEPOT: 0} | dict(zip(ids, damaged)),
            ),
            shortfall_order=[(s.id, -s.imbalance) for s in by_weight if s.imbalance < 0],
            exact_sums=all(w.is_integer() for w in weight)
            and sum(int(w) * abs(d) for w, d in zip(weight, imbalance)) < 2**53,
            fleet={v.id: v for v in self.fleet},
            build_order=sorted(range(len(self.fleet)), key=lambda j: -self.fleet[j].capacity),
        )


@dataclass(frozen=True)
class Route:
    """Depot-to-depot visit sequence for one vehicle; empty means unused."""

    vehicle_id: int
    visits: tuple[int, ...] = ()


@dataclass(frozen=True)
class LoadingPlan:
    """Per-visit (operative, damaged) moves, positive = loaded onto the vehicle."""

    vehicle_id: int
    moves: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class ObjectiveWeights:
    gamma_d: float = 1.0
    gamma_a: float = 1.0
    gamma_t: float = 1.0

    def __post_init__(self):
        _floats(self, "", gamma_d=self.gamma_d, gamma_a=self.gamma_a, gamma_t=self.gamma_t)
        gammas = (self.gamma_d, self.gamma_a, self.gamma_t)
        if not all(math.isfinite(g) for g in gammas):
            raise ValueError("objective weights must be finite")
        if min(gammas) < 0:
            raise ValueError("objective weights must be nonnegative")
        if self.gamma_d == self.gamma_a == self.gamma_t == 0:
            raise ValueError("at least one objective weight must be positive")


@dataclass(frozen=True)
class ObjectiveBreakdown:
    imbalance: float
    damaged: float
    time: float
    total: float


@dataclass(frozen=True)
class Solution:
    routes: tuple[Route, ...]
    plans: tuple[LoadingPlan, ...]
    final_operative: dict[int, int]
    final_damaged: dict[int, int]
    route_times: dict[int, float]
    objective: ObjectiveBreakdown

    @property
    def is_empty(self) -> bool:
        return all(not r.visits for r in self.routes)


def _require_numbers(prefix: str, kind: type, **values) -> None:
    """Raise ValueError, as ``{prefix}{name} must be an integer, got {value!r}`` (``a real
    number`` where ``kind`` is ``numbers.Real``, not ``numbers.Integral``), on the first
    value that is not a Python or NumPy number of ``kind``; a bool, though an int, is
    neither a count nor a setting. A real number that no float can hold, such as
    ``10**400``, raises ValueError as ``{prefix}{name} is too large for a float``."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, kind):
            noun = "an integer" if kind is numbers.Integral else "a real number"
            raise ValueError(f"{prefix}{name} must be {noun}, got {value!r}")
        if kind is numbers.Real:
            try:
                float(value)
            except OverflowError:
                raise ValueError(f"{prefix}{name} is too large for a float") from None


def _floats(settings, prefix: str, **values) -> None:
    """Check real settings as ``_require_numbers`` does and store each on the
    frozen ``settings`` as a Python float, so that a NumPy float's precision
    reaches no score or total."""
    _require_numbers(prefix, numbers.Real, **values)
    for name, value in values.items():
        object.__setattr__(settings, name, float(value))


def check_instance(instance: Instance) -> None:
    """Raise ValueError on the first violated instance invariant.

    An instance is immutable, so a pass is remembered on it (outside ``==``)
    and later calls return at once; a failure is not remembered.
    """
    if instance.__dict__.get("_checked"):
        return
    seen: set[int] = set()
    for i, s in enumerate(instance.stations):
        path = f"stations[{i}] (id={s.id})"
        _require_numbers(
            f"{path}: ",
            numbers.Integral,
            id=s.id, capacity=s.capacity, operative=s.operative, damaged=s.damaged, target=s.target,
        )
        _require_numbers(f"{path}: ", numbers.Real, weight=s.weight)
        if s.id == DEPOT:
            raise ValueError(f"{path}: station id 0 is reserved for the depot")
        if s.id in seen:
            raise ValueError(f"{path}: duplicate station id")
        seen.add(s.id)
        if s.capacity <= 0:
            raise ValueError(f"{path}: capacity must be positive")
        if s.operative < 0 or s.damaged < 0 or s.target < 0:
            raise ValueError(f"{path}: inventories and target must be nonnegative")
        if s.operative + s.damaged > s.capacity:
            raise ValueError(f"{path}: operative + damaged exceeds capacity")
        if s.target > s.capacity:
            raise ValueError(f"{path}: target exceeds capacity")
        if not math.isfinite(s.weight) or s.weight < 0:
            raise ValueError(f"{path}: weight must be finite and nonnegative")
    _require_numbers("depot: ", numbers.Integral, operative=instance.depot.operative)
    if instance.depot.capacity is not None:
        _require_numbers("depot: ", numbers.Integral, capacity=instance.depot.capacity)
    if instance.depot.operative < 0:
        raise ValueError("depot: operative stock must be nonnegative")
    if instance.depot.capacity is not None and instance.depot.capacity < instance.depot.operative:
        raise ValueError("depot: capacity below initial stock")
    for j, veh in enumerate(instance.fleet):
        _require_numbers(
            f"vehicles[{j}] (id={veh.id}): ", numbers.Integral, id=veh.id, capacity=veh.capacity
        )
        if veh.capacity <= 0:
            raise ValueError(f"vehicles[{j}] (id={veh.id}): capacity must be positive")
    if len({v.id for v in instance.fleet}) != len(instance.fleet):
        raise ValueError("vehicles: duplicate vehicle id")
    _require_numbers("", numbers.Real, time_budget_min=instance.time_budget)
    if not isinstance(instance.metric, bool):
        raise ValueError(f"metric must be a bool, got {instance.metric!r}")
    if not math.isfinite(instance.time_budget) or instance.time_budget <= 0:
        raise ValueError("time_budget_min: must be finite and positive")

    m = instance.travel.minutes
    n = len(instance.nodes)
    if m.shape != (n, n):
        raise ValueError(f"travel_min: expected {n}x{n} matrix, got {m.shape}")
    bad = ~np.isfinite(m) | (m < 0)
    if bad.any():
        raise ValueError(f"{_first_cell(bad)}: must be finite and nonnegative")
    if np.any(np.diag(m) != 0):
        k = np.flatnonzero(np.diag(m))[0]
        raise ValueError(f"travel_min[{k}][{k}]: diagonal must be zero")
    if instance.metric:
        # t(u,w) <= t(u,v) + t(v,w), enforced only when declared; one v at a time: O(n^2) memory
        one_stop = m[:, :1] + m[:1, :]
        for v in range(1, n):
            np.minimum(one_stop, m[:, v : v + 1] + m[v : v + 1, :], out=one_stop)
        bad = m > one_stop + 1e-9
        if bad.any():
            raise ValueError(f"{_first_cell(bad)}: triangle inequality violated but metric=true")
    object.__setattr__(instance, "_checked", True)


def _first_cell(bad: np.ndarray) -> str:
    """The document path of the first True cell of a travel-matrix mask, row-major."""
    i, j = np.argwhere(bad)[0]
    return f"travel_min[{i}][{j}]"


def _inventories(instance: Instance) -> tuple[dict[int, int], dict[int, int]]:
    """Initial operative and damaged inventories by node, the depot first."""
    operative, damaged = instance._lookup.start
    return operative.copy(), damaged.copy()


def _replay(
    instance: Instance,
    route: Route,
    plan: LoadingPlan,
    operative: dict[int, int],
    damaged: dict[int, int],
):
    """Carry out one route's moves in order on inventories keyed by node (the depot under
    ``DEPOT``); after each yield ``(visit, node, d_op, d_dam, op, dam, minutes)``: the load,
    and the arrival minute, which adds each leg's ``Instance.travel_time`` from 0.0."""
    op = dam = 0
    minutes = 0.0
    for i, (node, (d_op, d_dam)) in enumerate(zip(route.visits, plan.moves)):
        if i:
            minutes += instance.travel_time(route.visits[i - 1], node)
        operative[node] -= d_op
        damaged[node] -= d_dam
        op += d_op
        dam += d_dam
        yield i, node, d_op, d_dam, op, dam, minutes


def evaluate_objective(
    instance: Instance,
    final_operative: dict[int, int],
    final_damaged: dict[int, int],
    route_times: dict[int, float],
    weights: ObjectiveWeights,
) -> ObjectiveBreakdown:
    """Weighted three-term objective: residual imbalance, residual damaged, fleet time.

    The inventories are read by station id, in station order; any other key,
    such as the depot's, is ignored. The imbalance and damaged terms are
    station-weighted and normalized by the initial total deviation
    ``D = sum(w * |dev| + damaged)``; when D is zero both terms are defined as 0.
    A term or a total that is not finite, as huge station weights or gammas
    make it, raises ValueError: no total could be compared with it.
    """
    lookup = instance._lookup
    denom = lookup.deviation
    imb_num = dam_num = 0.0
    for sid, weight, target in lookup.objective_rows:
        p_hat, a_hat = final_operative[sid], final_damaged[sid]
        if p_hat < 0 or a_hat < 0:
            raise ValueError(f"station {sid}: negative final inventory")
        imb_num += weight * abs(target - p_hat)
        dam_num += weight * a_hat
    imbalance = imb_num / denom if denom > 0 else 0.0
    damaged = dam_num / denom if denom > 0 else 0.0
    fleet_size = len(instance.fleet)
    total_time = sum(route_times.values())
    time_term = total_time / (float(instance.time_budget) * fleet_size) if fleet_size else 0.0
    total = imbalance * weights.gamma_d + damaged * weights.gamma_a + time_term * weights.gamma_t
    # the terms are >= 0, so a term that is not finite makes the total so too
    if not math.isfinite(total):
        raise ValueError(
            f"objective is not finite: imbalance {imbalance}, damaged {damaged}, "
            f"time {time_term}, total {total}"
        )
    return ObjectiveBreakdown(imbalance, damaged, time_term, total)


def _solution(
    instance: Instance,
    routes: Sequence[Route],
    plans: Sequence[LoadingPlan],
    operative: dict[int, int],
    damaged: dict[int, int],
    times: dict[int, float],
    weights: ObjectiveWeights,
) -> Solution:
    """The one assembly of a Solution: inventories by station id in station
    order, route times over the whole fleet in fleet order (0.0 for a vehicle
    that ``times`` leaves out), scored by evaluate_objective. Equal routes and
    plans give an equal Solution, to the bit and in key order, whether phase
    one, a walk or a replay carried out their moves."""
    route_times = {v.id: times.get(v.id, 0.0) for v in instance.fleet}
    return Solution(
        routes=tuple(routes),
        plans=tuple(plans),
        final_operative=operative,
        final_damaged=damaged,
        route_times=route_times,
        objective=evaluate_objective(instance, operative, damaged, route_times, weights),
    )


def solution_from_plans(
    instance: Instance,
    routes: Sequence[Route],
    plans: Sequence[LoadingPlan],
    weights: ObjectiveWeights,
) -> Solution:
    """Replay all moves into a Solution with its final station inventories, route
    times and objective; raises ValueError with the first structural fault
    ``validate_solution`` reports. ``_solution`` assembles it, as it does
    phase one's: its total depends only on the routes and plans."""
    faults, sound = _plan_faults(instance, routes, plans)
    if faults:
        raise ValueError(faults[0])
    operative, damaged = _inventories(instance)
    times: dict[int, float] = {}
    for route, plan, _ in sound:
        for *_, minutes in _replay(instance, route, plan, operative, damaged):
            times[route.vehicle_id] = minutes
    del operative[DEPOT], damaged[DEPOT]
    return _solution(instance, routes, plans, operative, damaged, times, weights)


def empty_solution(instance: Instance, weights: ObjectiveWeights) -> Solution:
    """The do-nothing solution: one empty route per vehicle."""
    routes = tuple(Route(v.id) for v in instance.fleet)
    plans = tuple(LoadingPlan(v.id) for v in instance.fleet)
    return solution_from_plans(instance, routes, plans, weights)


def _route_faults(instance: Instance, routes: Sequence[Route]) -> list[list[str]]:
    """Each route's shape faults: a vehicle outside the fleet or with an earlier
    route, a nonempty route not from and back to the depot, a node visited twice
    in a row, unknown nodes. ``validate_solution`` reports them;
    ``solution_from_plans`` and phase two raise the first."""
    lookup = instance._lookup
    seen: set[int] = set()
    out: list[list[str]] = []
    for route in routes:
        tag = f"vehicle {route.vehicle_id}"
        visits = route.visits
        faults: list[str] = []
        out.append(faults)
        if route.vehicle_id not in lookup.fleet:
            faults.append(f"{tag}: not in fleet")
            continue
        if route.vehicle_id in seen:
            faults.append(f"{tag}: multiple routes assigned")
            continue
        seen.add(route.vehicle_id)
        if visits and (visits[0] != DEPOT or visits[-1] != DEPOT):
            faults.append(f"{tag}: route must start and end at the depot")
        for i, (a, b) in enumerate(zip(visits, visits[1:])):
            if a == b:
                faults.append(f"{tag}: visit {i + 1} immediately repeats node {a}")
        unknown = set(visits).difference(lookup.position, (DEPOT,))
        if unknown:
            faults.append(f"{tag}: unknown nodes {sorted(unknown)}")
    return out


def _plan_faults(
    instance: Instance, routes: Sequence[Route], plans: Sequence[LoadingPlan]
) -> tuple[list[str], list[tuple[Route, LoadingPlan, Vehicle]]]:
    """The structural faults of (routes, plans), in ``validate_solution``'s order,
    and the sound ``(route, plan, vehicle)`` triples, whose moves can be replayed."""
    out: list[str] = []
    if len(routes) != len(plans):
        out.append(f"structure: {len(routes)} routes but {len(plans)} plans")
    fleet = instance._lookup.fleet
    sound: list[tuple[Route, LoadingPlan, Vehicle]] = []
    for route, plan, faults in zip(routes, plans, _route_faults(instance, routes)):
        rid = route.vehicle_id
        tag = f"vehicle {rid}"
        if plan.vehicle_id != rid:
            out.append(f"{tag}: paired with plan for vehicle {plan.vehicle_id}")
            continue
        out += faults
        if len(route.visits) != len(plan.moves):
            out.append(f"{tag}: {len(route.visits)} visits but {len(plan.moves)} moves")
        elif not faults:
            sound.append((route, plan, fleet[rid]))
    return out, sound


def validate_solution(
    instance: Instance,
    routes: Sequence[Route],
    plans: Sequence[LoadingPlan],
) -> list[str]:
    """Check feasibility of (routes, plans); returns violations, empty if feasible.

    Station and depot inventories are replayed in canonical event order:
    routes in the given order, visits in route order. Never raises; any
    structural defect is reported as a violation, and a route with one is
    not replayed. Load and time violations come before inventory ones.
    """
    out, sound = _plan_faults(instance, routes, plans)
    p_hat, a_hat = _inventories(instance)
    stock: list[str] = []
    for route, plan, veh in sound:
        tag = f"vehicle {veh.id}"
        op = dam = 0
        t = 0.0
        for i, node, d_op, d_dam, op, dam, t in _replay(instance, route, plan, p_hat, a_hat):
            if node == DEPOT and d_dam > 0:
                out.append(f"{tag}: visit {i}: damaged bikes loaded at the depot")
            if node != DEPOT and d_dam < 0:
                out.append(f"{tag}: visit {i}: damaged bikes delivered to station {node}")
            if op < 0:
                out.append(f"{tag}: visit {i}: operative load below zero ({op})")
            if dam < 0:
                out.append(f"{tag}: visit {i}: damaged load below zero ({dam})")
            if op + dam > veh.capacity:
                out.append(f"{tag}: visit {i}: load {op + dam} exceeds capacity {veh.capacity}")
            if node == DEPOT and p_hat[node] < 0:
                stock.append(f"{tag}: visit {i}: depot operative stock overdrawn ({p_hat[node]})")
            elif node != DEPOT:
                if p_hat[node] < 0:
                    stock.append(f"{tag}: visit {i}: station {node} operative below zero")
                if p_hat[node] > instance.station(node).capacity:
                    stock.append(f"{tag}: visit {i}: station {node} filled above capacity")
                if a_hat[node] < 0:
                    stock.append(f"{tag}: visit {i}: station {node} damaged pickups exceed stock")
        if route.visits and (op != 0 or dam != 0):
            out.append(f"{tag}: not empty at route end (operative={op}, damaged={dam})")
        if t > float(instance.time_budget):
            out.append(f"{tag}: route time {t:g} exceeds budget {instance.time_budget:g}")
    out += stock

    for s in instance.stations:
        lo, hi = min(s.operative, s.target), max(s.operative, s.target)
        p, a = p_hat[s.id], a_hat[s.id]
        if not lo <= p <= hi:
            out.append(f"station {s.id}: final operative {p} overshoots target range [{lo}, {hi}]")
        if a > s.damaged:
            out.append(f"station {s.id}: damaged bikes imported")
        if p + a > s.capacity:
            out.append(f"station {s.id}: final occupancy exceeds capacity {s.capacity}")
    room = instance.depot.capacity
    if room is not None and p_hat[DEPOT] + a_hat[DEPOT] > room:
        out.append(f"depot: final occupancy exceeds capacity {room}")
    return out
