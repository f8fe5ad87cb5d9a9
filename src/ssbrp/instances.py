"""Instance/solution documents and seeded instance generators.

Documents are plain JSON-compatible dicts so fixtures stay human-diffable.
Parsing validates everything up front and reports the offending field path;
writing is the exact inverse, so parse(write(x)) reproduces x bit-exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import (
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
    check_instance,
    solution_from_plans,
    validate_solution,
)

FORMAT_VERSION = 1


class DocumentError(ValueError):
    """A malformed or invalid instance/solution document."""


def _get(doc, key, path, kind=None):
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: expected an object")
    if key not in doc:
        raise DocumentError(f"{path}{key}: missing")
    value = doc[key]
    if kind is not None:
        # bool is an int subclass; only accept it where bool is asked for
        ok = isinstance(value, bool) if kind is bool else (
            not isinstance(value, bool) and isinstance(value, kind)
        )
        if not ok:
            raise DocumentError(f"{path}{key}: wrong type")
    return value


def _int(doc, key, path):
    return _get(doc, key, path, int)


def _number(doc, key, path):
    value = float(_get(doc, key, path, (int, float)))
    if not math.isfinite(value):
        raise DocumentError(f"{path}{key}: must be a finite number")
    return value


def parse_instance(document: dict) -> Instance:
    """Build a validated Instance from a document; errors carry field paths."""
    version = _int(document, "format_version", "")
    if version != FORMAT_VERSION:
        raise DocumentError(f"format_version: unsupported version {version}")
    metric = _get(document, "metric", "", bool)
    time_budget = _number(document, "time_budget_min", "")
    depot_doc = _get(document, "depot", "", dict)
    depot_capacity = None
    if "capacity" in depot_doc:
        depot_capacity = _int(depot_doc, "capacity", "depot.")
    depot = Depot(_int(depot_doc, "operative", "depot."), depot_capacity)

    stations_doc = _get(document, "stations", "", list)
    stations = []
    for i, sdoc in enumerate(stations_doc):
        path = f"stations[{i}]."
        weight = 1.0
        if isinstance(sdoc, dict) and "weight" in sdoc:
            weight = _number(sdoc, "weight", path)
        stations.append(
            Station(
                id=_int(sdoc, "id", path),
                capacity=_int(sdoc, "capacity", path),
                operative=_int(sdoc, "operative", path),
                damaged=_int(sdoc, "damaged", path),
                target=_int(sdoc, "target", path),
                weight=weight,
            )
        )

    vehicles_doc = _get(document, "vehicles", "", list)
    fleet = []
    for i, vdoc in enumerate(vehicles_doc):
        path = f"vehicles[{i}]."
        fleet.append(Vehicle(id=_int(vdoc, "id", path), capacity=_int(vdoc, "capacity", path)))

    matrix_doc = _get(document, "travel_min", "", list)
    n = len(stations) + 1
    if len(matrix_doc) != n:
        raise DocumentError(f"travel_min: expected {n} rows, got {len(matrix_doc)}")
    for i, row in enumerate(matrix_doc):
        if not isinstance(row, list) or len(row) != n:
            raise DocumentError(f"travel_min[{i}]: expected a row of {n} numbers")
        for j, cell in enumerate(row):
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                raise DocumentError(f"travel_min[{i}][{j}]: wrong type")
    node_index = {DEPOT: 0}
    for pos, s in enumerate(stations, start=1):
        node_index[s.id] = pos
    travel = TravelMatrix(np.array(matrix_doc, dtype=float), node_index)

    instance = Instance(
        stations=tuple(stations),
        depot=depot,
        travel=travel,
        fleet=tuple(fleet),
        time_budget=time_budget,
        metric=metric,
    )
    check_instance(instance)
    return instance


def _plain_number(x: float):
    return int(x) if float(x).is_integer() else float(x)


def write_instance(instance: Instance) -> dict:
    """Serialize an Instance to its canonical document."""
    idx = instance.travel.node_index
    order = [DEPOT] + [s.id for s in instance.stations]
    m = instance.travel.minutes
    matrix = [
        [_plain_number(m[idx[u], idx[v]]) for v in order]
        for u in order
    ]
    depot_doc: dict = {"operative": instance.depot.operative}
    if instance.depot.capacity is not None:
        depot_doc["capacity"] = instance.depot.capacity
    return {
        "format_version": FORMAT_VERSION,
        "metric": instance.metric,
        "time_budget_min": _plain_number(instance.time_budget),
        "depot": depot_doc,
        "stations": [
            {
                "id": s.id,
                "capacity": s.capacity,
                "operative": s.operative,
                "damaged": s.damaged,
                "target": s.target,
                "weight": float(s.weight),
            }
            for s in instance.stations
        ],
        "vehicles": [{"id": v.id, "capacity": v.capacity} for v in instance.fleet],
        "travel_min": matrix,
    }


def write_solution(
    solution: Solution,
    *,
    seed: int | None = None,
    params: dict | None = None,
) -> dict:
    """Serialize a Solution, optionally stamping the run's seed and parameters."""
    doc: dict = {
        "routes": [
            {
                "vehicle": route.vehicle_id,
                "visits": list(route.visits),
                "moves": [
                    {"operative": dx, "damaged": dy} for dx, dy in plan.moves
                ],
            }
            for route, plan in zip(solution.routes, solution.plans)
        ],
        "objective": {
            "imbalance": solution.objective.imbalance,
            "damaged": solution.objective.damaged,
            "time": solution.objective.time,
            "total": solution.objective.total,
        },
    }
    if seed is not None:
        doc["seed"] = seed
    if params is not None:
        doc["params"] = dict(params)
    return doc


def parse_solution(
    document: dict,
    instance: Instance,
    weights: ObjectiveWeights | None = None,
) -> Solution:
    """Rebuild a Solution from a document, revalidating against the instance.

    The objective is recomputed, not trusted; weights default to the gammas
    stored in the document's params (1.0 each when absent).
    """
    routes_doc = _get(document, "routes", "", list)
    routes = []
    plans = []
    for i, rdoc in enumerate(routes_doc):
        path = f"routes[{i}]."
        vehicle_id = _int(rdoc, "vehicle", path)
        visits = _get(rdoc, "visits", path, list)
        moves_doc = _get(rdoc, "moves", path, list)
        for j, v in enumerate(visits):
            if isinstance(v, bool) or not isinstance(v, int):
                raise DocumentError(f"{path}visits[{j}]: wrong type")
        moves = []
        for j, mdoc in enumerate(moves_doc):
            mpath = f"{path}moves[{j}]."
            moves.append((_int(mdoc, "operative", mpath), _int(mdoc, "damaged", mpath)))
        routes.append(Route(vehicle_id, tuple(visits)))
        plans.append(LoadingPlan(vehicle_id, tuple(moves)))

    if weights is None:
        params = document.get("params") or {}
        weights = ObjectiveWeights(
            gamma_d=float(params.get("gamma_d", 1.0)),
            gamma_a=float(params.get("gamma_a", 1.0)),
            gamma_t=float(params.get("gamma_t", 1.0)),
        )
    violations = validate_solution(instance, routes, plans)
    if violations:
        raise DocumentError("infeasible solution document: " + "; ".join(violations))
    return solution_from_plans(instance, routes, plans, weights)


class Family(enum.Enum):
    PALMA = "palma"
    WIEN = "wien"


_FAMILY_DEFAULTS = {
    # stations, vehicles, vehicle capacity, time budget (min), depot stock
    Family.PALMA: (28, 3, 20, 240.0, 10),
    Family.WIEN: (30, 3, 20, 480.0, 0),
}


@dataclass(frozen=True)
class GeneratorConfig:
    """Sampling recipe for an instance family; None fields take family defaults."""

    family: Family = Family.PALMA
    stations: int | None = None
    vehicles: int | None = None
    vehicle_capacity: int | None = None
    time_budget_min: float | None = None
    depot_stock: int | None = None
    damaged_fraction: float = 0.1
    seed: int = 0

    def resolved(self) -> tuple[int, int, int, float, int]:
        d_stations, d_vehicles, d_cap, d_budget, d_stock = _FAMILY_DEFAULTS[self.family]
        values = (
            self.stations if self.stations is not None else d_stations,
            self.vehicles if self.vehicles is not None else d_vehicles,
            self.vehicle_capacity if self.vehicle_capacity is not None else d_cap,
            self.time_budget_min if self.time_budget_min is not None else d_budget,
            self.depot_stock if self.depot_stock is not None else d_stock,
        )
        stations, vehicles, capacity, budget, stock = values
        if stations < 1:
            raise ValueError("stations must be at least 1")
        if vehicles < 1:
            raise ValueError("vehicles must be at least 1")
        if capacity < 1:
            raise ValueError("vehicle capacity must be at least 1")
        if budget <= 0:
            raise ValueError("time budget must be positive")
        if stock < 0:
            raise ValueError("depot stock must be nonnegative")
        if not 0 <= self.damaged_fraction <= 1:
            raise ValueError("damaged fraction must lie in [0, 1]")
        return values


_AREA_KM = 20.0
_MIN_PER_KM = 3.0  # 20 km/h service speed
_CAPACITY_RANGE = (10, 30)


def generate_instance(config: GeneratorConfig) -> Instance:
    """Sample a reproducible instance. Same config, same instance, always.

    Stations live on a 20x20 km square with the depot at the center; travel
    times are Euclidean minutes rounded up, so the triangle inequality is
    preserved and the metric flag is set. Station coordinates are redrawn
    until a depot round trip fits the time budget. Damaged bikes replace
    operative ones: each sampled operative bike flips independently with
    probability damaged_fraction, which makes the damaged total monotone in
    the fraction at a fixed seed.
    """
    n_stations, n_vehicles, capacity, budget, stock = config.resolved()
    rng = np.random.default_rng(config.seed)
    center = _AREA_KM / 2.0
    coords = [(center, center)]
    stations = []
    for sid in range(1, n_stations + 1):
        for _ in range(1000):
            x, y = rng.uniform(0.0, _AREA_KM, size=2)
            minutes = math.ceil(math.hypot(x - center, y - center) * _MIN_PER_KM)
            if 2 * minutes <= budget:
                break
        else:
            raise ValueError("time budget too small for any station round trip")
        coords.append((x, y))
        cap = int(rng.integers(_CAPACITY_RANGE[0], _CAPACITY_RANGE[1] + 1))
        target = int(rng.integers(2, cap - 1))
        p_raw = int(rng.integers(0, cap + 1))
        damaged = int(np.count_nonzero(rng.random(p_raw) < config.damaged_fraction))
        stations.append(
            Station(
                id=sid,
                capacity=cap,
                operative=p_raw - damaged,
                damaged=damaged,
                target=target,
                weight=1.0,
            )
        )

    n = n_stations + 1
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist = math.hypot(coords[i][0] - coords[j][0], coords[i][1] - coords[j][1])
            matrix[i, j] = matrix[j, i] = math.ceil(dist * _MIN_PER_KM)
    node_index = {DEPOT: 0}
    node_index.update({s.id: pos for pos, s in enumerate(stations, start=1)})

    instance = Instance(
        stations=tuple(stations),
        depot=Depot(operative=stock),
        travel=TravelMatrix(matrix, node_index),
        fleet=tuple(Vehicle(id=i, capacity=capacity) for i in range(1, n_vehicles + 1)),
        time_budget=float(budget),
        metric=True,
    )
    check_instance(instance)
    return instance
