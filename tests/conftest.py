"""Shared builders for small hand-made instances."""

from __future__ import annotations

import dataclasses

import numpy as np

from ssbrp.model import Depot, Instance, Station, TravelMatrix, Vehicle


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
    node_index = {0: 0}
    node_index.update({s.id: i + 1 for i, s in enumerate(built)})
    return Instance(
        stations=tuple(built),
        depot=Depot(stock, depot_capacity),
        travel=TravelMatrix(matrix, node_index),
        fleet=tuple(Vehicle(vid, cap) for vid, cap in fleet),
        time_budget=float(time_budget),
        metric=metric,
    )


def reweighted(instance):
    """The same instance with unequal station weights, so weighting matters."""
    stations = tuple(
        dataclasses.replace(s, weight=0.5 + 0.25 * (s.id % 5)) for s in instance.stations
    )
    return dataclasses.replace(instance, stations=stations)
