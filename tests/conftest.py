"""Shared builders for small hand-made instances, and checks of phase two's models."""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import strategies as st

from ssbrp.model import Depot, Instance, Station, TravelMatrix, Vehicle


def as_candidates(ratios):
    """A scan result for select_next: each key of ``ratios`` scored with its
    value. A key is a move ``(node, beta, alpha)``, or a bare node, which
    moves nothing: select_next returns ``(node, 0, 0)`` for it."""
    return [
        (*move, r) if isinstance(move, tuple) else (move, 0, 0, r) for move, r in ratios.items()
    ]


def make_instance(
    stations,
    fleet=((1, 20),),
    stock=0,
    time_budget=1000.0,
    travel=10.0,
    depot_capacity=None,
    metric=False,
):
    """Build an Instance from light tuples.

    stations: iterable of (id, capacity, operative, damaged, target[, weight]).
    fleet: iterable of (vehicle_id, capacity).
    travel: either a uniform off-diagonal minute count or a full matrix.
    """
    built = []
    for row in stations:
        sid, cap, p, a, q = row[:5]
        w = row[5] if len(row) > 5 else 1.0
        built.append(Station(sid, cap, p, a, q, w))
    n = len(built) + 1
    if np.isscalar(travel):
        matrix = np.full((n, n), float(travel))
        np.fill_diagonal(matrix, 0.0)
    else:
        matrix = np.asarray(travel, dtype=float)
    return Instance(
        stations=tuple(built),
        depot=Depot(stock, depot_capacity),
        travel=TravelMatrix(matrix),
        fleet=tuple(Vehicle(vid, cap) for vid, cap in fleet),
        time_budget=float(time_budget),
        metric=metric,
    )


def negative_zeros(model):
    """The number of -0.0 entries in each array of a loading model that has any.

    They compare equal to 0.0 but change the bytes of the golden digest."""
    counts = {}
    for name in ("row_value", "c", "b_ub", "b_eq", "lower", "upper"):
        array = getattr(model, name)
        count = int(np.count_nonzero(np.signbit(array[array == 0])))
        if count:
            counts[name] = count
    return counts


def reweighted(instance):
    """The same instance with unequal station weights, so weighting matters."""
    stations = tuple(
        dataclasses.replace(s, weight=0.5 + 0.25 * (s.id % 5)) for s in instance.stations
    )
    return dataclasses.replace(instance, stations=stations)


@st.composite
def random_instances(draw, max_stations=6):
    """A valid instance: unique ids, float minutes and weights; when flagged
    metric, the matrix is its shortest-path closure."""
    ids = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=max_stations, unique=True))
    stations = []
    for sid in ids:
        capacity = draw(st.integers(1, 40))
        operative = draw(st.integers(0, capacity))
        damaged = draw(st.integers(0, capacity - operative))
        target = draw(st.integers(0, capacity))
        weight = draw(st.floats(0, 1e6, allow_nan=False, allow_infinity=False))
        stations.append(Station(sid, capacity, operative, damaged, target, weight))
    n = len(ids) + 1
    minutes = st.floats(0, 1e4, allow_nan=False, allow_infinity=False)
    matrix = np.array([[0.0 if a == b else draw(minutes) for b in range(n)] for a in range(n)])
    metric = draw(st.booleans())
    if metric:
        for k in range(n):
            matrix = np.minimum(matrix, matrix[:, k : k + 1] + matrix[k : k + 1, :])
    stock = draw(st.integers(0, 50))
    depot_capacity = draw(st.none() | st.integers(stock, stock + 50))
    vehicle_ids = draw(st.lists(st.integers(1, 10**6), max_size=4, unique=True))
    return Instance(
        stations=tuple(stations),
        depot=Depot(stock, depot_capacity),
        travel=TravelMatrix(matrix),
        fleet=tuple(Vehicle(vid, draw(st.integers(1, 30))) for vid in vehicle_ids),
        time_budget=draw(st.floats(1e-3, 1e5, allow_nan=False, allow_infinity=False)),
        metric=metric,
    )
