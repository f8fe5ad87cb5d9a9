"""Problem data model, feasibility checks, and objective evaluation.

Nodes are integer ids; the depot is always node 0. All model types are
immutable values and every operation here is a pure function, so an
instance or a solution can be passed around and reused without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

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
    """Travel times in minutes between all node pairs.

    Row/column 0 is the depot; station ids are mapped to matrix positions
    through ``node_index``.
    """

    minutes: np.ndarray
    node_index: Mapping[int, int]

    def __post_init__(self):
        m = np.array(self.minutes, dtype=float)
        m.flags.writeable = False
        object.__setattr__(self, "minutes", m)

    def time(self, u: int, v: int) -> float:
        try:
            return float(self.minutes[self.node_index[u], self.node_index[v]])
        except KeyError:
            raise ValueError(f"unknown node id {u if u not in self.node_index else v}")

    def __eq__(self, other) -> bool:
        """The same nodes and the same time for every pair, whatever the layout."""
        if not isinstance(other, TravelMatrix):
            return NotImplemented
        nodes = list(self.node_index)
        if set(nodes) != set(other.node_index):
            return False
        mine = [self.node_index[n] for n in nodes]
        theirs = [other.node_index[n] for n in nodes]
        return np.array_equal(
            self.minutes[np.ix_(mine, mine)], other.minutes[np.ix_(theirs, theirs)]
        )


class _Lookup(NamedTuple):
    """Travel minutes as Python floats, laid out for phase one's station scans.

    Station-ordered lists follow ``Instance.stations``.
    """

    rows: dict[int, tuple[list[float], float]]  # node -> (minutes to each station, to the depot)
    back: list[float]  # minutes from each station to the depot
    ids: list[int]  # station id at each index in station order
    position: dict[int, int]  # station id -> index in station order
    weight: list[float]


@dataclass(frozen=True)
class Instance:
    stations: tuple[Station, ...]
    depot: Depot
    travel: TravelMatrix
    fleet: tuple[Vehicle, ...]
    time_budget: float
    metric: bool = False

    def station(self, node: int) -> Station:
        try:
            return self._by_id[node]
        except KeyError:
            raise ValueError(f"unknown station id {node}")

    def is_station(self, node: int) -> bool:
        return node in self._by_id

    @property
    def nodes(self) -> tuple[int, ...]:
        return (DEPOT,) + tuple(s.id for s in self.stations)

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {s.id: s for s in self.stations})

    @cached_property
    def _lookup(self) -> _Lookup:
        """Built on first use, not at parse; not a field, so outside ``==``."""
        idx = self.travel.node_index
        nodes = self.nodes
        try:
            order = [idx[n] for n in nodes]
        except KeyError as exc:
            raise ValueError(f"unknown node id {exc.args[0]}") from None
        minutes = self.travel.minutes[np.ix_(order, order)].tolist()
        return _Lookup(
            rows={n: (row[1:], row[0]) for n, row in zip(nodes, minutes)},
            back=[row[0] for row in minutes[1:]],
            ids=[s.id for s in self.stations],
            position={s.id: i for i, s in enumerate(self.stations)},
            weight=[s.weight for s in self.stations],
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
        if min(self.gamma_d, self.gamma_a, self.gamma_t) < 0:
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
class FinalState:
    """Inventories after executing all routes, plus per-vehicle route times."""

    operative: dict[int, int]
    damaged: dict[int, int]
    depot_operative: int
    depot_damaged: int
    route_times: dict[int, float]


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


def route_time(route: Route, travel: TravelMatrix) -> float:
    """Total travel time of the visit sequence; an empty route takes 0."""
    total = 0.0
    for u, v in zip(route.visits, route.visits[1:]):
        total += travel.time(u, v)
    return total


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
    if instance.depot.operative < 0:
        raise ValueError("depot: operative stock must be nonnegative")
    if instance.depot.capacity is not None and instance.depot.capacity < instance.depot.operative:
        raise ValueError("depot: capacity below initial stock")
    for j, veh in enumerate(instance.fleet):
        if veh.capacity <= 0:
            raise ValueError(f"vehicles[{j}] (id={veh.id}): capacity must be positive")
    if len({v.id for v in instance.fleet}) != len(instance.fleet):
        raise ValueError("vehicles: duplicate vehicle id")
    if not math.isfinite(instance.time_budget) or instance.time_budget <= 0:
        raise ValueError("time_budget_min: must be finite and positive")

    nodes = instance.nodes
    idx = instance.travel.node_index
    missing = [n for n in nodes if n not in idx]
    if missing:
        raise ValueError(f"travel_min: missing nodes {missing}")
    m = instance.travel.minutes
    n = len(nodes)
    if m.shape != (n, n):
        raise ValueError(f"travel_min: expected {n}x{n} matrix, got {m.shape}")
    if not np.all(np.isfinite(m)) or np.any(m < 0):
        raise ValueError("travel_min: entries must be finite and nonnegative")
    if np.any(np.diag(m) != 0):
        raise ValueError("travel_min: diagonal must be zero")
    if instance.metric:
        # t(u,w) <= t(u,v) + t(v,w) for all triples, enforced only when declared
        one_stop = (m[:, :, None] + m[None, :, :]).min(axis=1)
        if np.any(m > one_stop + 1e-9):
            raise ValueError("travel_min: triangle inequality violated but metric=true")
    object.__setattr__(instance, "_checked", True)


def apply_solution(
    instance: Instance,
    routes: Sequence[Route],
    plans: Sequence[LoadingPlan],
) -> FinalState:
    """Replay all moves and return the resulting inventories and route times."""
    if len(routes) != len(plans):
        raise ValueError("routes and plans differ in length")
    operative = {s.id: s.operative for s in instance.stations}
    damaged = {s.id: s.damaged for s in instance.stations}
    depot_op = instance.depot.operative
    depot_dam = 0
    times: dict[int, float] = {v.id: 0.0 for v in instance.fleet}
    for route, plan in zip(routes, plans):
        if route.vehicle_id != plan.vehicle_id:
            raise ValueError(f"route/plan vehicle mismatch: {route.vehicle_id} vs {plan.vehicle_id}")
        if len(route.visits) != len(plan.moves):
            raise ValueError(f"vehicle {route.vehicle_id}: plan length differs from route length")
        for node, (d_op, d_dam) in zip(route.visits, plan.moves):
            if node == DEPOT:
                depot_op -= d_op
                depot_dam -= d_dam
            elif instance.is_station(node):
                operative[node] -= d_op
                damaged[node] -= d_dam
            else:
                raise ValueError(f"vehicle {route.vehicle_id}: visit to unknown node {node}")
        times[route.vehicle_id] = route_time(route, instance.travel)
    return FinalState(operative, damaged, depot_op, depot_dam, times)


def evaluate_objective(
    instance: Instance,
    final_state: FinalState,
    weights: ObjectiveWeights,
) -> ObjectiveBreakdown:
    """Weighted three-term objective: residual imbalance, residual damaged, fleet time.

    The imbalance and damaged terms are station-weighted and normalized by
    the initial total deviation ``D = sum(w * |dev| + damaged)``; when D is
    zero both terms are defined as 0.
    """
    denom = 0.0
    imb_num = 0.0
    dam_num = 0.0
    for s in instance.stations:
        p_hat = final_state.operative[s.id]
        a_hat = final_state.damaged[s.id]
        if p_hat < 0 or a_hat < 0:
            raise ValueError(f"station {s.id}: negative final inventory")
        denom += s.weight * abs(s.target - s.operative) + s.damaged
        imb_num += s.weight * abs(s.target - p_hat)
        dam_num += s.weight * a_hat
    imbalance = imb_num / denom if denom > 0 else 0.0
    damaged = dam_num / denom if denom > 0 else 0.0
    fleet_size = len(instance.fleet)
    total_time = sum(final_state.route_times.values())
    time_term = total_time / (instance.time_budget * fleet_size) if fleet_size else 0.0
    total = imbalance * weights.gamma_d + damaged * weights.gamma_a + time_term * weights.gamma_t
    return ObjectiveBreakdown(imbalance, damaged, time_term, total)


def solution_from_plans(
    instance: Instance,
    routes: Sequence[Route],
    plans: Sequence[LoadingPlan],
    weights: ObjectiveWeights,
) -> Solution:
    """Assemble a Solution with derived inventories, times, and objective."""
    state = apply_solution(instance, routes, plans)
    return Solution(
        routes=tuple(routes),
        plans=tuple(plans),
        final_operative=state.operative,
        final_damaged=state.damaged,
        route_times=state.route_times,
        objective=evaluate_objective(instance, state, weights),
    )


def empty_solution(instance: Instance, weights: ObjectiveWeights) -> Solution:
    """The do-nothing solution: one empty route per vehicle."""
    routes = tuple(Route(v.id) for v in instance.fleet)
    plans = tuple(LoadingPlan(v.id) for v in instance.fleet)
    return solution_from_plans(instance, routes, plans, weights)


def validate_solution(
    instance: Instance,
    routes: Sequence[Route],
    plans: Sequence[LoadingPlan],
) -> list[str]:
    """Check feasibility of (routes, plans); returns violations, empty if feasible.

    Station and depot inventories are replayed in canonical event order:
    routes in the given order, visits in route order. Never raises; any
    structural defect is reported as a violation.
    """
    out: list[str] = []
    if len(routes) != len(plans):
        out.append(f"structure: {len(routes)} routes but {len(plans)} plans")
    fleet = {v.id: v for v in instance.fleet}
    seen_vehicles: set[int] = set()
    simulatable: list[tuple[Route, LoadingPlan, Vehicle]] = []

    for route, plan in zip(routes, plans):
        rid = route.vehicle_id
        tag = f"vehicle {rid}"
        if plan.vehicle_id != rid:
            out.append(f"{tag}: paired with plan for vehicle {plan.vehicle_id}")
            continue
        if rid not in fleet:
            out.append(f"{tag}: not in fleet")
            continue
        if rid in seen_vehicles:
            out.append(f"{tag}: multiple routes assigned")
            continue
        seen_vehicles.add(rid)
        if len(route.visits) != len(plan.moves):
            out.append(f"{tag}: {len(route.visits)} visits but {len(plan.moves)} moves")
            continue
        if route.visits:
            if route.visits[0] != DEPOT or route.visits[-1] != DEPOT:
                out.append(f"{tag}: route must start and end at the depot")
            for i, (a, b) in enumerate(zip(route.visits, route.visits[1:])):
                if a == b:
                    out.append(f"{tag}: visit {i + 1} immediately repeats node {a}")
        unknown = [n for n in route.visits if n != DEPOT and not instance.is_station(n)]
        if unknown:
            out.append(f"{tag}: unknown nodes {sorted(set(unknown))}")
            continue
        simulatable.append((route, plan, fleet[rid]))

    # Per-vehicle load and time limits.
    for route, plan, veh in simulatable:
        tag = f"vehicle {veh.id}"
        op = dam = 0
        for i, (node, (d_op, d_dam)) in enumerate(zip(route.visits, plan.moves)):
            if node == DEPOT and d_dam > 0:
                out.append(f"{tag}: visit {i}: damaged bikes loaded at the depot")
            if node != DEPOT and d_dam < 0:
                out.append(f"{tag}: visit {i}: damaged bikes delivered to station {node}")
            op += d_op
            dam += d_dam
            if op < 0:
                out.append(f"{tag}: visit {i}: operative load below zero ({op})")
            if dam < 0:
                out.append(f"{tag}: visit {i}: damaged load below zero ({dam})")
            if op + dam > veh.capacity:
                out.append(f"{tag}: visit {i}: load {op + dam} exceeds capacity {veh.capacity}")
        if route.visits and (op != 0 or dam != 0):
            out.append(f"{tag}: not empty at route end (operative={op}, damaged={dam})")
        t = route_time(route, instance.travel)
        if t > instance.time_budget:
            out.append(f"{tag}: route time {t:g} exceeds budget {instance.time_budget:g}")

    # Station and depot inventories, replayed in canonical order.
    p_hat = {s.id: s.operative for s in instance.stations}
    a_hat = {s.id: s.damaged for s in instance.stations}
    depot_op = instance.depot.operative
    depot_dam = 0
    for route, plan, veh in simulatable:
        tag = f"vehicle {veh.id}"
        for i, (node, (d_op, d_dam)) in enumerate(zip(route.visits, plan.moves)):
            if node == DEPOT:
                depot_op -= d_op
                depot_dam -= d_dam
                if depot_op < 0:
                    out.append(f"{tag}: visit {i}: depot operative stock overdrawn ({depot_op})")
            else:
                s = instance.station(node)
                p_hat[node] -= d_op
                a_hat[node] -= d_dam
                if p_hat[node] < 0:
                    out.append(f"{tag}: visit {i}: station {node} operative below zero")
                if p_hat[node] > s.capacity:
                    out.append(f"{tag}: visit {i}: station {node} filled above capacity")
                if a_hat[node] < 0:
                    out.append(f"{tag}: visit {i}: station {node} damaged pickups exceed stock")

    for s in instance.stations:
        lo, hi = min(s.operative, s.target), max(s.operative, s.target)
        if not lo <= p_hat[s.id] <= hi:
            out.append(
                f"station {s.id}: final operative {p_hat[s.id]} overshoots "
                f"target range [{lo}, {hi}]"
            )
        if a_hat[s.id] > s.damaged:
            out.append(f"station {s.id}: damaged bikes imported")
        if p_hat[s.id] + a_hat[s.id] > s.capacity:
            out.append(f"station {s.id}: final occupancy exceeds capacity {s.capacity}")
    if instance.depot.capacity is not None and depot_op + depot_dam > instance.depot.capacity:
        out.append(f"depot: final occupancy exceeds capacity {instance.depot.capacity}")
    return out
