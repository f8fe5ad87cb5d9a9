import json

import numpy as np
import pytest

from conftest import make_instance
from ssbrp.instances import (
    DocumentError,
    Family,
    GeneratorConfig,
    generate_instance,
    parse_instance,
    parse_solution,
    write_instance,
    write_solution,
)
from ssbrp.loading import reoptimize_solution
from ssbrp.model import LoadingPlan, ObjectiveWeights, Route, solution_from_plans


def _minimal_doc():
    return {
        "format_version": 1,
        "metric": False,
        "time_budget_min": 120,
        "depot": {"operative": 4},
        "stations": [
            {"id": 1, "capacity": 10, "operative": 7, "damaged": 1, "target": 5},
            {"id": 2, "capacity": 8, "operative": 2, "damaged": 0, "target": 6, "weight": 2.5},
        ],
        "vehicles": [{"id": 1, "capacity": 12}],
        "travel_min": [[0, 5, 7], [5, 0, 3], [7, 3, 0]],
    }


def test_parse_minimal_document():
    inst = parse_instance(_minimal_doc())
    assert [s.id for s in inst.stations] == [1, 2]
    assert inst.station(1).imbalance == 2
    assert inst.station(2).weight == 2.5
    assert inst.station(1).weight == 1.0
    assert inst.depot.operative == 4
    assert inst.depot.capacity is None
    assert inst.travel.time(1, 2) == 3.0
    assert inst.time_budget == 120.0
    assert inst.metric is False
    assert inst.fleet[0].capacity == 12


def test_parse_accepts_depot_capacity():
    doc = _minimal_doc()
    doc["depot"]["capacity"] = 30
    assert parse_instance(doc).depot.capacity == 30


def test_parse_rejects_bad_documents():
    doc = _minimal_doc()
    del doc["time_budget_min"]
    with pytest.raises(DocumentError, match="time_budget_min: missing"):
        parse_instance(doc)

    doc = _minimal_doc()
    doc["format_version"] = 99
    with pytest.raises(DocumentError, match="unsupported version"):
        parse_instance(doc)

    doc = _minimal_doc()
    doc["metric"] = 1  # an int is not a flag
    with pytest.raises(DocumentError, match="metric: wrong type"):
        parse_instance(doc)

    doc = _minimal_doc()
    doc["stations"][0]["operative"] = 6.5
    with pytest.raises(DocumentError, match=r"stations\[0\].operative: wrong type"):
        parse_instance(doc)

    doc = _minimal_doc()
    doc["stations"][1] = "oops"
    with pytest.raises(DocumentError, match=r"stations\[1\]"):
        parse_instance(doc)

    doc = _minimal_doc()
    doc["travel_min"] = doc["travel_min"][:2]
    with pytest.raises(DocumentError, match="expected 3 rows"):
        parse_instance(doc)

    doc = _minimal_doc()
    doc["travel_min"][1][2] = True
    with pytest.raises(DocumentError, match=r"travel_min\[1\]\[2\]"):
        parse_instance(doc)

    doc = _minimal_doc()
    doc["vehicles"][0].pop("capacity")
    with pytest.raises(DocumentError, match=r"vehicles\[0\].capacity: missing"):
        parse_instance(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_parse_rejects_non_finite_numbers(bad):
    doc = _minimal_doc()
    doc["time_budget_min"] = bad
    with pytest.raises(DocumentError, match="time_budget_min: must be a finite number"):
        parse_instance(doc)

    doc = _minimal_doc()
    doc["stations"][1]["weight"] = bad
    with pytest.raises(DocumentError, match=r"stations\[1\].weight: must be a finite number"):
        parse_instance(doc)


def test_parse_runs_semantic_validation():
    doc = _minimal_doc()
    doc["stations"][0]["damaged"] = 9  # 7 + 9 bikes in 10 docks
    with pytest.raises(ValueError, match="capacity"):
        parse_instance(doc)


def test_instance_round_trip_through_documents():
    inst = generate_instance(GeneratorConfig(family=Family.WIEN, seed=5))
    doc = write_instance(inst)
    json.dumps(doc)  # canonical form is JSON-serializable as-is
    again = parse_instance(doc)
    assert again == inst
    assert write_instance(again) == doc


def test_travel_entries_written_as_integers_when_integral():
    inst = generate_instance(GeneratorConfig(seed=3))
    doc = write_instance(inst)
    assert all(isinstance(c, int) for row in doc["travel_min"] for c in row)
    doc2 = write_instance(parse_instance(doc))
    assert doc2 == doc


def test_generator_family_defaults():
    palma = generate_instance(GeneratorConfig(family=Family.PALMA, seed=1))
    assert len(palma.stations) == 28
    assert len(palma.fleet) == 3
    assert all(v.capacity == 20 for v in palma.fleet)
    assert palma.time_budget == 240.0
    assert palma.depot.operative == 10
    assert palma.metric is True

    wien = generate_instance(GeneratorConfig(family=Family.WIEN, seed=1))
    assert len(wien.stations) == 30
    assert wien.time_budget == 480.0
    assert wien.depot.operative == 0


def test_generator_overrides_and_validation():
    inst = generate_instance(
        GeneratorConfig(family=Family.WIEN, stations=7, vehicles=2, vehicle_capacity=9,
                        time_budget_min=60.0, depot_stock=5, seed=2)
    )
    assert len(inst.stations) == 7
    assert len(inst.fleet) == 2
    assert inst.fleet[0].capacity == 9
    assert inst.depot.operative == 5
    for bad in (
        GeneratorConfig(stations=0),
        GeneratorConfig(vehicles=0),
        GeneratorConfig(vehicle_capacity=0),
        GeneratorConfig(time_budget_min=0.0),
        GeneratorConfig(depot_stock=-1),
        GeneratorConfig(damaged_fraction=1.5),
    ):
        with pytest.raises(ValueError):
            generate_instance(bad)


def test_generator_is_deterministic_and_seed_sensitive():
    a = generate_instance(GeneratorConfig(seed=11))
    b = generate_instance(GeneratorConfig(seed=11))
    c = generate_instance(GeneratorConfig(seed=12))
    assert a == b
    assert a != c


def test_generator_damaged_fraction_behavior():
    nothing = generate_instance(GeneratorConfig(seed=4, damaged_fraction=0.0))
    assert all(s.damaged == 0 for s in nothing.stations)
    everything = generate_instance(GeneratorConfig(seed=4, damaged_fraction=1.0))
    assert all(s.operative == 0 for s in everything.stations)
    low = generate_instance(GeneratorConfig(seed=4, damaged_fraction=0.05))
    high = generate_instance(GeneratorConfig(seed=4, damaged_fraction=0.4))
    assert all(
        lo.damaged <= hi.damaged and lo.damaged + lo.operative == hi.damaged + hi.operative
        for lo, hi in zip(low.stations, high.stations)
    )
    assert sum(s.damaged for s in high.stations) > sum(s.damaged for s in low.stations)


def test_generator_keeps_stations_reachable():
    inst = generate_instance(GeneratorConfig(time_budget_min=26.0, seed=8))
    for s in inst.stations:
        assert 2 * inst.travel.time(0, s.id) <= inst.time_budget
    with pytest.raises(ValueError, match="time budget too small"):
        generate_instance(GeneratorConfig(time_budget_min=1.0, seed=8))


def test_generator_station_stat_ranges():
    inst = generate_instance(GeneratorConfig(seed=9))
    for s in inst.stations:
        assert 10 <= s.capacity <= 30
        assert 2 <= s.target <= s.capacity - 2
        assert 0 <= s.operative + s.damaged <= s.capacity
        assert s.weight == 1.0


def test_solution_round_trip():
    inst = make_instance([(1, 10, 7, 1, 5), (2, 10, 3, 0, 5)], fleet=((1, 4),))
    weights = ObjectiveWeights()
    routes = [Route(1, (0, 1, 2, 0))]
    plans = [LoadingPlan(1, ((0, 0), (2, 1), (-2, 0), (0, -1)))]
    sol = reoptimize_solution(inst, solution_from_plans(inst, routes, plans, weights), weights)
    doc = write_solution(sol, seed=42, params={"gamma_d": 1.0, "gamma_a": 1.0, "gamma_t": 1.0})
    json.dumps(doc)
    assert doc["seed"] == 42
    again = parse_solution(doc, inst)
    assert again == sol
    assert again.objective == sol.objective


def test_solution_document_omits_optional_stamps():
    inst = make_instance([(1, 10, 7, 0, 5)])
    sol = solution_from_plans(inst, [Route(1)], [LoadingPlan(1)], ObjectiveWeights())
    doc = write_solution(sol)
    assert "seed" not in doc and "params" not in doc
    assert parse_solution(doc, inst).is_empty


def test_parse_solution_uses_stored_gammas():
    inst = make_instance([(1, 10, 7, 0, 5), (2, 10, 3, 0, 5)], fleet=((1, 4),))
    routes = [Route(1, (0, 1, 2, 0))]
    plans = [LoadingPlan(1, ((0, 0), (2, 0), (-2, 0), (0, 0)))]
    base = solution_from_plans(inst, routes, plans, ObjectiveWeights(gamma_t=0.0))
    doc = write_solution(base, params={"gamma_d": 1.0, "gamma_a": 1.0, "gamma_t": 0.0})
    parsed = parse_solution(doc, inst)
    assert parsed.objective == base.objective
    assert parsed.objective.total == 0.0
    heavier = parse_solution(doc, inst, weights=ObjectiveWeights())
    assert heavier.objective.total > 0.0


def test_parse_solution_rejects_infeasible_documents():
    inst = make_instance([(1, 10, 7, 0, 5)], fleet=((1, 4),))
    doc = {
        "routes": [
            {
                "vehicle": 1,
                "visits": [0, 1, 0],
                "moves": [
                    {"operative": 0, "damaged": 0},
                    {"operative": 9, "damaged": 0},  # overloads the vehicle
                    {"operative": -9, "damaged": 0},
                ],
            }
        ],
        "objective": {"imbalance": 0, "damaged": 0, "time": 0, "total": 0},
    }
    with pytest.raises(DocumentError, match="exceeds capacity"):
        parse_solution(doc, inst)

    doc["routes"][0]["moves"][1]["operative"] = "two"
    with pytest.raises(DocumentError, match=r"routes\[0\].moves\[1\].operative"):
        parse_solution(doc, inst)
