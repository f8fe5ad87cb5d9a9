import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, random_instances
from ssbrp.construction import ConstructionParams, construct_solution
from ssbrp.instances import Family, GeneratorConfig, generate_instance
from ssbrp.model import (
    DEPOT,
    Depot,
    Instance,
    LoadingPlan,
    ObjectiveWeights,
    Route,
    Station,
    TravelMatrix,
    Vehicle,
    _plan_faults,
    _route_faults,
    check_instance,
    empty_solution,
    evaluate_objective,
    solution_from_plans,
    validate_solution,
)
from ssbrp.search import RunConfig


def _instance(entries):
    """An instance whose stations 1..n-1 sit at matrix positions 1..n-1."""
    stations = [(sid, 10, 5, 0, 3) for sid in range(1, len(entries))]
    return make_instance(stations, travel=np.array(entries, dtype=float))


def test_travel_time_reads_the_matrix_in_node_order():
    minutes = np.array([[0.0, 4.0, 7.5], [3.0, 0.0, 1.0], [2.0, 6.0, 0.0]])
    inst = make_instance([(9, 10, 5, 0, 3), (5, 10, 5, 0, 3)], travel=minutes)
    assert inst.nodes == (DEPOT, 9, 5)
    for i, u in enumerate(inst.nodes):
        for j, v in enumerate(inst.nodes):
            assert inst.travel_time(u, v) == minutes[i, j]
    assert inst.travel_time(DEPOT, 5) == 7.5
    assert inst.travel_time(5, DEPOT) == 2.0
    assert inst.travel_time(9, 5) == 1.0
    for u, v in ((7, 5), (9, 7), (7, DEPOT), (DEPOT, 7)):
        with pytest.raises(ValueError, match="unknown node id 7"):
            inst.travel_time(u, v)


def test_station_looks_up_by_id():
    inst = make_instance([(9, 10, 5, 0, 3), (5, 12, 4, 1, 6)])
    assert inst.station(9) is inst.stations[0]
    assert inst.station(5) is inst.stations[1]
    for node in (7, DEPOT):
        with pytest.raises(ValueError, match=f"^unknown station id {node}$"):
            inst.station(node)


def test_travel_matrix_equality_is_array_equality():
    minutes = np.array([[0.0, 4.0, 7.5], [3.0, 0.0, 1.0], [2.0, 6.0, 0.0]])
    travel = TravelMatrix(minutes)
    assert travel == TravelMatrix(minutes.copy())
    assert travel != TravelMatrix(minutes[np.ix_([0, 2, 1], [0, 2, 1])])
    assert travel != TravelMatrix(minutes[:2, :2])
    with pytest.raises(ValueError, match="read-only"):
        travel.minutes[0, 1] = 5.0


def test_equal_travel_matrices_hash_equal():
    minutes = np.array([[0.0, 4.0], [3.0, 0.0]])
    signed = TravelMatrix(minutes * np.array([[1.0, 1.0], [1.0, -1.0]]))  # a -0.0 cell
    assert signed.minutes[1, 1] == 0.0 and np.signbit(signed.minutes[1, 1])
    assert signed == TravelMatrix(minutes)
    assert hash(signed) == hash(TravelMatrix(minutes))
    # so a frozen Instance, which holds one, hashes as its fields do
    instance = generate_instance(GeneratorConfig(seed=1))
    assert {instance: 1}[generate_instance(GeneratorConfig(seed=1))] == 1


def _timed(instance, visits):
    """The time ``solution_from_plans`` records for vehicle 1's route, moving nothing."""
    plans = [LoadingPlan(1, ((0, 0),) * len(visits))]
    return _replayed(instance, [Route(1, visits)], plans).route_times[1]


def test_route_time_empty_route_is_zero():
    assert _timed(_instance([[0, 10], [12, 0]]), ()) == 0


def test_route_time_sums_arcs():
    assert _timed(_instance([[0, 10], [12, 0]]), (0, 1, 0)) == 22


def test_route_time_two_stations():
    inst = _instance([[0, 10, 99], [99, 0, 5], [12, 99, 0]])
    assert _timed(inst, (0, 1, 2, 0)) == 27


def test_route_time_unknown_node():
    with pytest.raises(ValueError, match=re.escape("vehicle 1: unknown nodes [7]")):
        _timed(_instance([[0, 10], [12, 0]]), (0, 7, 0))


def test_route_time_additive_under_concatenation():
    rng = np.random.default_rng(5)
    m = rng.integers(1, 30, size=(4, 4)).astype(float)
    np.fill_diagonal(m, 0)
    inst = _instance(m)
    left = (0, 1, 0)
    right = (0, 2, 3, 0)
    assert _timed(inst, left + right[1:]) == _timed(inst, left) + _timed(inst, right)


def _replayed(instance, routes, plans):
    return solution_from_plans(instance, routes, plans, ObjectiveWeights())


def test_apply_solution_identity_without_routes():
    inst = make_instance([(1, 10, 5, 1, 3)])
    sol = _replayed(inst, [], [])
    assert sol.final_operative == {1: 5}
    assert sol.final_damaged == {1: 1}


def test_apply_solution_bookkeeping():
    inst = make_instance([(1, 10, 5, 1, 3)], fleet=((1, 20),), stock=4)
    routes = [Route(1, (0, 1, 0))]
    plans = [LoadingPlan(1, ((0, 0), (2, 1), (-2, -1)))]
    sol = _replayed(inst, routes, plans)
    assert sol.final_operative == {1: 3}
    assert sol.final_damaged == {1: 0}


def test_apply_solution_multiple_visits_to_same_station():
    inst = make_instance([(1, 10, 5, 0, 3), (2, 10, 2, 0, 4)])
    routes = [Route(1, (0, 1, 2, 1, 0))]
    plans = [LoadingPlan(1, ((0, 0), (2, 0), (0, 0), (-1, 0), (-1, 0)))]
    sol = _replayed(inst, routes, plans)
    assert sol.final_operative[1] == 5 - 2 + 1


def test_apply_solution_misaligned_plan_rejected():
    inst = make_instance([(1, 10, 5, 0, 3)])
    with pytest.raises(ValueError, match="vehicle 1: 3 visits but 1 moves"):
        _replayed(inst, [Route(1, (0, 1, 0))], [LoadingPlan(1, ((0, 0),))])


def test_apply_solution_unknown_node():
    inst = make_instance([(1, 10, 5, 0, 3)])
    with pytest.raises(ValueError, match=r"vehicle 1: unknown nodes \[9\]"):
        _replayed(inst, [Route(1, (0, 9, 0))], [LoadingPlan(1, ((0, 0), (0, 0), (0, 0)))])


def _fleet_probe():
    """Two vehicles with a 240-minute budget; station 1 is 30 minutes from the
    depot each way, station 2 is 16."""
    return generate_instance(GeneratorConfig(family=Family.PALMA, stations=4, vehicles=2, seed=3))


def _idle(route):
    return LoadingPlan(route.vehicle_id, ((0, 0),) * len(route.visits))


def test_apply_solution_rejects_a_second_route_of_a_vehicle():
    # the 32-minute route once overwrote the 60-minute one: a time term of
    # 32/480 instead of 92/480
    inst = _fleet_probe()
    routes = [Route(1, (0, 1, 0)), Route(1, (0, 2, 0))]
    plans = [_idle(r) for r in routes]
    assert validate_solution(inst, routes, plans) == ["vehicle 1: multiple routes assigned"]
    with pytest.raises(ValueError, match="vehicle 1: multiple routes assigned"):
        _replayed(inst, routes, plans)


def test_apply_solution_rejects_a_vehicle_outside_the_fleet():
    # the route of vehicle 7 once added its 60 minutes to the time term
    inst = _fleet_probe()
    routes = [Route(7, (0, 1, 0))]
    plans = [_idle(r) for r in routes]
    assert validate_solution(inst, routes, plans) == ["vehicle 7: not in fleet"]
    with pytest.raises(ValueError, match="vehicle 7: not in fleet"):
        _replayed(inst, routes, plans)


def test_objective_zero_when_nothing_to_do():
    inst = make_instance([(1, 10, 3, 0, 3), (2, 8, 4, 0, 4)])
    sol = empty_solution(inst, ObjectiveWeights())
    assert sol.objective.total == 0.0


def test_objective_do_nothing_is_exactly_one():
    inst = make_instance([(1, 10, 5, 1, 3), (2, 8, 1, 2, 4)], fleet=((1, 20), (2, 20)))
    sol = empty_solution(inst, ObjectiveWeights())
    assert sol.objective.total == 1.0


def test_objective_hand_evaluated_breakdown():
    # one station w=2 fully fixed, route time 60 of T=120 with one vehicle
    inst = make_instance([(1, 10, 5, 1, 3, 2.0)], fleet=((1, 20),), time_budget=120.0)
    sol = _replayed(inst, [Route(1, (0, 1, 0))], [LoadingPlan(1, ((0, 0), (2, 1), (-2, -1)))])
    breakdown = evaluate_objective(
        inst, sol.final_operative, sol.final_damaged, {1: 60.0}, ObjectiveWeights()
    )
    assert breakdown.imbalance == 0.0
    assert breakdown.damaged == 0.0
    assert breakdown.time == 0.5
    assert breakdown.total == 0.5


def test_objective_denominator_is_plain_sum():
    inst = make_instance([(1, 10, 5, 1, 3, 2.0)])
    breakdown = _replayed(inst, [], []).objective
    # D = w*|dev| + damaged = 2*2 + 1 = 5; the damaged count is not weighted in D
    assert breakdown.imbalance == pytest.approx(4 / 5)
    assert breakdown.damaged == pytest.approx(2 / 5)


def test_objective_unused_vehicles_count_in_time_divisor():
    inst = make_instance([(1, 10, 5, 0, 3)], fleet=((1, 20), (2, 20)), time_budget=100.0)
    routes = [Route(1, (0, 1, 0)), Route(2)]
    plans = [LoadingPlan(1, ((0, 0), (2, 0), (-2, 0))), LoadingPlan(2)]
    breakdown = _replayed(inst, routes, plans).objective
    assert breakdown.time == pytest.approx(20 / (100.0 * 2))


def test_objective_zero_fleet_time_term():
    inst = make_instance([(1, 10, 5, 0, 3)], fleet=())
    breakdown = _replayed(inst, [], []).objective
    assert breakdown.time == 0.0


def test_objective_negative_final_counts_rejected():
    inst = make_instance([(1, 10, 5, 0, 3)])
    with pytest.raises(ValueError, match="station 1: negative final inventory"):
        _replayed(inst, [Route(1, (0, 1, 0))], [LoadingPlan(1, ((0, 0), (6, 0), (-6, 0)))])


def test_objective_weights_validated():
    with pytest.raises(ValueError):
        ObjectiveWeights(-0.1, 1, 1)
    with pytest.raises(ValueError):
        ObjectiveWeights(0, 0, 0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("gamma", ["gamma_d", "gamma_a", "gamma_t"])
def test_objective_weights_must_be_finite(gamma, bad):
    with pytest.raises(ValueError, match="objective weights must be finite"):
        ObjectiveWeights(**{gamma: bad})


def test_total_combines_terms_with_weights():
    inst = make_instance([(1, 10, 5, 1, 3)], fleet=((1, 20),), time_budget=100.0)
    routes = [Route(1, (0, 1, 0))]
    plans = [LoadingPlan(1, ((0, 0), (1, 1), (-1, -1)))]
    weights = ObjectiveWeights(2.0, 0.5, 3.0)
    sol = solution_from_plans(inst, routes, plans, weights)
    o = sol.objective
    assert o.total == pytest.approx(2.0 * o.imbalance + 0.5 * o.damaged + 3.0 * o.time, rel=1e-12)


def test_permuting_vehicle_order_keeps_objective():
    inst = make_instance([(1, 10, 5, 0, 3), (2, 10, 1, 2, 3)], fleet=((1, 5), (2, 5)))
    routes = [Route(1, (0, 1, 0)), Route(2, (0, 2, 0))]
    plans = [
        LoadingPlan(1, ((0, 0), (2, 0), (-2, 0))),
        LoadingPlan(2, ((0, 0), (0, 2), (0, -2))),
    ]
    forward = solution_from_plans(inst, routes, plans, ObjectiveWeights())
    backward = solution_from_plans(inst, routes[::-1], plans[::-1], ObjectiveWeights())
    assert forward.objective == backward.objective


def test_check_instance_rejects_bad_data():
    good = make_instance([(1, 10, 5, 1, 3)])
    check_instance(good)

    with pytest.raises(ValueError, match="capacity"):
        check_instance(make_instance([(1, 10, 8, 3, 3)]))
    with pytest.raises(ValueError, match="reserved"):
        check_instance(make_instance([(0, 10, 5, 0, 3)]))
    with pytest.raises(ValueError, match="duplicate"):
        check_instance(make_instance([(1, 10, 5, 0, 3), (1, 10, 5, 0, 3)]))
    with pytest.raises(ValueError, match="target"):
        check_instance(make_instance([(1, 10, 5, 0, 11)]))
    with pytest.raises(ValueError, match="time_budget"):
        # a copy of a checked instance is checked anew
        check_instance(dataclasses.replace(good, time_budget=0.0))
    with pytest.raises(ValueError, match="vehicle"):
        check_instance(make_instance([(1, 10, 5, 0, 3)], fleet=((1, 5), (1, 5))))

    # each field rule, with its message and field path
    for instance, message in [
        (make_instance([(1, 0, 0, 0, 0)]), "stations[0] (id=1): capacity must be positive"),
        (make_instance([(1, 10, 5, 0, 3), (2, -1, 0, 0, 0)]),
         "stations[1] (id=2): capacity must be positive"),
        (make_instance([(1, 10, -1, 0, 3)]),
         "stations[0] (id=1): inventories and target must be nonnegative"),
        (make_instance([(1, 10, 5, -2, 3)]),
         "stations[0] (id=1): inventories and target must be nonnegative"),
        (make_instance([(1, 10, 5, 0, -1)]),
         "stations[0] (id=1): inventories and target must be nonnegative"),
        (make_instance([(1, 10, 5, 0, 3)], stock=-1),
         "depot: operative stock must be nonnegative"),
        (make_instance([(1, 10, 5, 0, 3)], stock=5, depot_capacity=4),
         "depot: capacity below initial stock"),
        (make_instance([(1, 10, 5, 0, 3)], fleet=((1, 5), (7, 0))),
         "vehicles[1] (id=7): capacity must be positive"),
        # a count that is not an integer once passed, and run() died in phase one
        (make_instance([(1.5, 10, 5, 0, 3)]),
         "stations[0] (id=1.5): id must be an integer, got 1.5"),
        (make_instance([(1, 10.0, 5, 0, 3)]),
         "stations[0] (id=1): capacity must be an integer, got 10.0"),
        (make_instance([(1, 10, 5, 0, 3), (2, 10, True, 0, 3)]),
         "stations[1] (id=2): operative must be an integer, got True"),
        (make_instance([(1, 10, 5, 0.5, 3)]),
         "stations[0] (id=1): damaged must be an integer, got 0.5"),
        (make_instance([(1, 10, 5, 0, 2.5)]),
         "stations[0] (id=1): target must be an integer, got 2.5"),
        (make_instance([(1, 10, 5, 0, 3)], stock=2.5),
         "depot: operative must be an integer, got 2.5"),
        (make_instance([(1, 10, 5, 0, 3)], stock=2, depot_capacity=4.0),
         "depot: capacity must be an integer, got 4.0"),
        (make_instance([(1, 10, 5, 0, 3)], fleet=((1, 5), (2.0, 5))),
         "vehicles[1] (id=2.0): id must be an integer, got 2.0"),
        (make_instance([(1, 10, 5, 0, 3)], fleet=((1, 2.5),)),
         "vehicles[0] (id=1): capacity must be an integer, got 2.5"),
        (make_instance([(1, 10, 5, 0, 3)], fleet=((1, False),)),
         "vehicles[0] (id=1): capacity must be an integer, got False"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_instance(instance)


def test_check_instance_accepts_numpy_integer_counts():
    i = np.int64
    stations = [(i(1), i(10), i(5), i(1), i(3))]
    fleet = ((np.int32(1), i(5)),)
    instance = make_instance(stations, fleet=fleet, stock=i(2), depot_capacity=i(9))
    check_instance(instance)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ConstructionParams(theta=True, mu=True), "theta must be a real number, got True"),
        (lambda: ConstructionParams(mu="1.5"), "mu must be a real number, got '1.5'"),
        (lambda: ObjectiveWeights(True, False, False), "gamma_d must be a real number, got True"),
        (lambda: ObjectiveWeights(1.0, 1.0, "0"), "gamma_t must be a real number, got '0'"),
        (lambda: RunConfig(wall_clock_cap=True), "wall_clock_cap must be a real number, got True"),
        (lambda: RunConfig(wall_clock_cap="5"), "wall_clock_cap must be a real number, got '5'"),
        (lambda: GeneratorConfig(damaged_fraction=True).resolved(),
         "damaged_fraction must be a real number, got True"),
        (lambda: GeneratorConfig(time_budget_min="60").resolved(),
         "time_budget_min must be a real number, got '60'"),
        (lambda: check_instance(make_instance([(1, 10, 5, 0, 3, True)])),
         "stations[0] (id=1): weight must be a real number, got True"),
        (lambda: check_instance(make_instance([(1, 10, 5, 0, 3, "1")])),
         "stations[0] (id=1): weight must be a real number, got '1'"),
        (lambda: check_instance(
            dataclasses.replace(make_instance([(1, 10, 5, 0, 3)]), time_budget=True)
        ),
         "time_budget_min must be a real number, got True"),
    ],
    ids=[
        "theta-bool", "mu-str", "gamma_d-bool", "gamma_t-str", "wall_clock_cap-bool",
        "wall_clock_cap-str", "damaged_fraction-bool", "time_budget_min-str", "weight-bool",
        "weight-str", "time_budget-bool",
    ],
)
def test_real_settings_reject_bools_and_non_numbers(make, message):
    # a bool once passed as 1 or 0, and a string raised a bare TypeError from
    # a comparison or from math.isfinite
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


_HUGE = 10**400  # an int that no float can hold


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ObjectiveWeights(_HUGE, 1, 1), "gamma_d is too large for a float"),
        (lambda: ConstructionParams(mu=_HUGE), "mu is too large for a float"),
        (lambda: RunConfig(wall_clock_cap=_HUGE), "wall_clock_cap is too large for a float"),
        (lambda: GeneratorConfig(time_budget_min=_HUGE).resolved(),
         "time_budget_min is too large for a float"),
        (lambda: check_instance(make_instance([(1, 10, 5, 0, 3, _HUGE)])),
         "stations[0] (id=1): weight is too large for a float"),
        (lambda: check_instance(
            dataclasses.replace(make_instance([(1, 10, 5, 0, 3)]), time_budget=_HUGE)
        ),
         "time_budget_min is too large for a float"),
    ],
    ids=["gamma_d", "mu", "wall_clock_cap", "generator-time_budget_min", "weight", "time_budget"],
)
def test_real_settings_reject_ints_too_large_for_a_float(make, message):
    # such an int raised OverflowError where it was compared with a float, or
    # was accepted and overflowed later, as mu did in the scan's depot score
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_check_instance_rejects_non_finite_numbers(bad):
    with pytest.raises(ValueError, match="time_budget_min: must be finite"):
        check_instance(make_instance([(1, 10, 5, 0, 3)], time_budget=bad))
    with pytest.raises(ValueError, match=r"stations\[1\] \(id=2\): weight must be finite"):
        check_instance(make_instance([(1, 10, 5, 0, 3), (2, 10, 5, 0, 3, bad)]))


def test_check_instance_rejects_bad_matrix():
    bad_diag = make_instance([(1, 10, 5, 0, 3)], travel=np.array([[1.0, 5.0], [5.0, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        check_instance(bad_diag)
    negative = make_instance([(1, 10, 5, 0, 3)], travel=np.array([[0.0, -1.0], [5.0, 0.0]]))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        check_instance(negative)
    # the first offending cell in row-major document order is named
    stations = [(1, 10, 5, 0, 3), (2, 10, 5, 0, 3), (3, 10, 5, 0, 3)]
    for cells, message in (
        ({(2, 3): -1.0, (3, 0): -2.0}, r"^travel_min\[2\]\[3\]: must be finite and nonnegative$"),
        ({(3, 1): np.inf, (1, 1): 4.0}, r"^travel_min\[3\]\[1\]: must be finite and nonnegative$"),
        ({(0, 2): np.nan}, r"^travel_min\[0\]\[2\]: must be finite and nonnegative$"),
        ({(3, 3): 2.0, (1, 1): 4.0}, r"^travel_min\[1\]\[1\]: diagonal must be zero$"),
    ):
        m = np.full((4, 4), 5.0)
        np.fill_diagonal(m, 0.0)
        for cell, value in cells.items():
            m[cell] = value
        with pytest.raises(ValueError, match=message):
            check_instance(make_instance(stations, travel=m))
    wrong_shape = Instance(
        stations=(Station(1, 10, 5, 0, 3), Station(2, 10, 5, 0, 3)),
        depot=Depot(0),
        travel=TravelMatrix(np.zeros((2, 2))),
        fleet=(Vehicle(1, 5),),
        time_budget=100.0,
    )
    with pytest.raises(ValueError, match="matrix"):
        check_instance(wrong_shape)


def test_check_instance_metric_flag():
    # direct arc longer than the two-hop path breaks the declared metric
    m = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])
    stations = [(1, 10, 5, 0, 3), (2, 10, 5, 0, 3)]
    with pytest.raises(ValueError, match="triangle"):
        check_instance(make_instance(stations, travel=m, metric=True))
    check_instance(make_instance(stations, travel=m, metric=False))
    # the only shorter path from the depot to station 1 runs through the last node
    m = np.array([[0, 9, 9, 1], [9, 0, 9, 1], [9, 9, 0, 9], [1, 1, 9, 0]], dtype=float)
    stations.append((3, 10, 5, 0, 3))
    with pytest.raises(ValueError, match="triangle"):
        check_instance(make_instance(stations, travel=m, metric=True))
    # the first violated cell in row-major document order is named
    with pytest.raises(
        ValueError, match=r"^travel_min\[0\]\[1\]: triangle inequality violated but metric=true$"
    ):
        check_instance(make_instance(stations, travel=m, metric=True))
    m = np.full((4, 4), 5.0)
    np.fill_diagonal(m, 0.0)
    m[3, 0] = m[2, 3] = 20.0  # both longer than a stop at station 1
    with pytest.raises(
        ValueError, match=r"^travel_min\[2\]\[3\]: triangle inequality violated but metric=true$"
    ):
        check_instance(make_instance(stations, travel=m, metric=True))


def test_triangle_check_memory_grows_with_the_matrix_not_its_cube():
    # 201 nodes: one sum over all triples at once took 62 MiB
    inst = generate_instance(GeneratorConfig(family=Family.WIEN, stations=200, seed=0))
    assert inst.metric
    tracemalloc.start()
    try:
        check_instance(dataclasses.replace(inst))  # a copy is checked anew
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    m = inst.travel.minutes.copy()
    m[5, 150] = 2 * m.max() + 1  # longer than any path through a third node
    with pytest.raises(ValueError, match="triangle"):
        check_instance(dataclasses.replace(inst, travel=TravelMatrix(m)))


def test_validate_empty_solution():
    inst = make_instance([(1, 10, 5, 0, 3)])
    assert validate_solution(inst, [Route(1)], [LoadingPlan(1)]) == []


def test_validate_vehicle_capacity_breach():
    inst = make_instance([(1, 30, 25, 0, 3)], fleet=((1, 20),))
    routes = [Route(1, (0, 1, 0))]
    plans = [LoadingPlan(1, ((0, 0), (21, 0), (-21, 0)))]
    violations = validate_solution(inst, routes, plans)
    assert any("exceeds capacity 20" in v for v in violations)


def test_validate_time_budget_breach():
    inst = make_instance([(1, 10, 5, 0, 3)], time_budget=240.0, travel=120.5)
    routes = [Route(1, (0, 1, 0))]
    plans = [LoadingPlan(1, ((0, 0), (2, 0), (-2, 0)))]
    violations = validate_solution(inst, routes, plans)
    assert any("exceeds budget" in v for v in violations)


def test_validate_structure_rules():
    inst = make_instance([(1, 10, 5, 0, 3)], fleet=((1, 5), (2, 5)))
    cases = {
        "must start and end": ([Route(1, (1, 0))], [LoadingPlan(1, ((1, 0), (-1, 0)))]),
        "immediately repeats": (
            [Route(1, (0, 1, 1, 0))],
            [LoadingPlan(1, ((0, 0), (1, 0), (0, 0), (-1, 0)))],
        ),
        "unknown nodes": ([Route(1, (0, 9, 0))], [LoadingPlan(1, ((0, 0), (0, 0), (0, 0)))]),
        "not in fleet": ([Route(7, (0, 1, 0))], [LoadingPlan(7, ((0, 0), (1, 0), (-1, 0)))]),
        "multiple routes": (
            [Route(1), Route(1)],
            [LoadingPlan(1), LoadingPlan(1)],
        ),
        "visits but": ([Route(1, (0, 1, 0))], [LoadingPlan(1, ((0, 0),))]),
        "paired with plan": ([Route(1)], [LoadingPlan(2)]),
    }
    for needle, (routes, plans) in cases.items():
        violations = validate_solution(inst, routes, plans)
        assert any(needle in v for v in violations), (needle, violations)


def test_validate_damaged_direction_rules():
    inst = make_instance([(1, 10, 5, 2, 5)], stock=5)
    to_station = [LoadingPlan(1, ((0, 0), (0, -1), (0, 1)))]
    violations = validate_solution(inst, [Route(1, (0, 1, 0))], to_station)
    assert any("delivered to station" in v for v in violations)
    from_depot = [LoadingPlan(1, ((0, 1), (0, 0), (0, -1)))]
    violations = validate_solution(inst, [Route(1, (0, 1, 0))], from_depot)
    assert any("loaded at the depot" in v for v in violations)


def test_validate_depot_stock_and_vehicle_emptiness():
    inst = make_instance([(1, 10, 2, 0, 6)], stock=1)
    routes = [Route(1, (0, 1, 0))]
    overdraw = [LoadingPlan(1, ((3, 0), (-3, 0), (0, 0)))]
    violations = validate_solution(inst, routes, overdraw)
    assert any("stock overdrawn" in v for v in violations)
    keeps_bikes = [LoadingPlan(1, ((1, 0), (0, 0), (0, 0)))]
    violations = validate_solution(inst, routes, keeps_bikes)
    assert any("not empty at route end" in v for v in violations)


def test_validate_station_running_and_final_bounds():
    inst = make_instance([(1, 10, 5, 0, 3)], stock=10)
    routes = [Route(1, (0, 1, 0))]
    overpick = [LoadingPlan(1, ((0, 0), (6, 0), (-6, 0)))]
    assert any("below zero" in v for v in validate_solution(inst, routes, overpick))
    overshoot = [LoadingPlan(1, ((4, 0), (-4, 0), (0, 0)))]
    assert any("overshoots" in v for v in validate_solution(inst, routes, overshoot))


def test_validate_occupancy_and_damaged_stock():
    # deficit station whose docks are nearly full of damaged bikes
    inst = make_instance([(1, 5, 0, 4, 5)], stock=5, fleet=((1, 10),))
    routes = [Route(1, (0, 1, 0))]
    fills_past_docks = [LoadingPlan(1, ((3, 0), (-3, 0), (0, 0)))]
    violations = validate_solution(inst, routes, fills_past_docks)
    assert any("occupancy exceeds capacity" in v for v in violations)
    balanced_fill = [LoadingPlan(1, ((3, 0), (-3, 3), (0, -3)))]
    assert validate_solution(inst, routes, balanced_fill) == []
    overpick_damaged = [LoadingPlan(1, ((0, 0), (0, 5), (0, -5)))]
    violations = validate_solution(inst, routes, overpick_damaged)
    assert any("damaged pickups exceed stock" in v for v in violations)


def test_validate_depot_capacity_when_present():
    inst = make_instance([(1, 10, 6, 2, 2)], stock=0, depot_capacity=5, fleet=((1, 10),))
    routes = [Route(1, (0, 1, 0))]
    plans = [LoadingPlan(1, ((0, 0), (4, 2), (-4, -2)))]
    violations = validate_solution(inst, routes, plans)
    assert any("depot: final occupancy" in v for v in violations)


def test_validate_never_raises_on_garbage():
    inst = make_instance([(1, 10, 5, 0, 3)])
    violations = validate_solution(
        inst,
        [Route(3, (0, 99)), Route(1, (5,))],
        [LoadingPlan(3, ((0, 0),)), LoadingPlan(1, ((1, 1),))],
    )
    assert violations  # reported, not raised


@st.composite
def _routes_and_plans(draw, instance):
    """Routes and plans of any shape over known and unknown nodes and vehicles."""
    nodes = st.sampled_from(list(instance.nodes) + [-1, 10**7])
    vehicles = st.sampled_from([v.id for v in instance.fleet] + [0, -5])
    moves = st.tuples(st.integers(-50, 50), st.integers(-50, 50))
    visits = st.lists(nodes, max_size=6).map(tuple)
    routes = draw(st.lists(st.builds(Route, vehicles, visits), max_size=4))
    plans = []
    for route in routes:
        length = len(route.visits) if draw(st.booleans()) else draw(st.integers(0, 7))
        vehicle = route.vehicle_id if draw(st.booleans()) else draw(vehicles)
        plan_moves = draw(st.lists(moves, min_size=length, max_size=length))
        plans.append(LoadingPlan(vehicle, tuple(plan_moves)))
    if draw(st.booleans()):
        plans = plans[: draw(st.integers(0, len(plans)))]
    return routes, plans


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_never_raises_on_random_routes_and_plans(data):
    instance = data.draw(random_instances(max_stations=4))
    routes, plans = data.draw(_routes_and_plans(instance))
    violations = validate_solution(instance, routes, plans)
    assert isinstance(violations, list)
    assert all(isinstance(v, str) for v in violations)


def _reference_time(instance, route):
    """A route's minutes: its legs read off the travel matrix by ``Instance.nodes``
    position, added in visit order from 0.0."""
    at = {node: k for k, node in enumerate(instance.nodes)}
    minutes = instance.travel.minutes.tolist()
    total = 0.0
    for u, v in zip(route.visits, route.visits[1:]):
        total += minutes[at[u]][at[v]]
    return total


def _reference_validate(instance, routes, plans):
    """``validate_solution`` as it was before the one replay: a load loop, then
    an inventory loop, each over the moves."""
    out = []
    if len(routes) != len(plans):
        out.append(f"structure: {len(routes)} routes but {len(plans)} plans")
    fleet = {v.id: v for v in instance.fleet}
    simulatable = []

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
            simulatable.append((route, plan, fleet[rid]))

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
        t = _reference_time(instance, route)
        if t > instance.time_budget:
            out.append(f"{tag}: route time {t:g} exceeds budget {instance.time_budget:g}")

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


def _reference_apply(instance, routes, plans):
    """The replay of moves into final station inventories and route times as it
    was before it shared ``validate_solution``'s structural checks: it checked
    neither the fleet nor the route shape."""
    if len(routes) != len(plans):
        raise ValueError("routes and plans differ in length")
    operative = {s.id: s.operative for s in instance.stations}
    damaged = {s.id: s.damaged for s in instance.stations}
    times = {v.id: 0.0 for v in instance.fleet}
    for route, plan in zip(routes, plans):
        if route.vehicle_id != plan.vehicle_id:
            raise ValueError(f"route/plan vehicle mismatch: {route.vehicle_id} vs {plan.vehicle_id}")
        if len(route.visits) != len(plan.moves):
            raise ValueError(f"vehicle {route.vehicle_id}: plan length differs from route length")
        for node, (d_op, d_dam) in zip(route.visits, plan.moves):
            if node == DEPOT:
                continue
            if node in instance.nodes:
                operative[node] -= d_op
                damaged[node] -= d_dam
            else:
                raise ValueError(f"vehicle {route.vehicle_id}: visit to unknown node {node}")
        times[route.vehicle_id] = _reference_time(instance, route)
    return operative, damaged, times


def _check_against_reference(instance, routes, plans):
    """The same messages in the same order as the reference; ``solution_from_plans``
    raises wherever the reference does, with ``validate_solution``'s first
    message, and otherwise replays the reference's inventories and route times,
    in the same key order. A sound replay that leaves a station below zero raises
    the objective's message for the first such station."""
    violations = validate_solution(instance, routes, plans)
    assert violations == _reference_validate(instance, routes, plans)
    try:
        expected = _reference_apply(instance, routes, plans)
    except ValueError:
        expected = None
    structural = _plan_faults(instance, routes, plans)[0]
    negative = [
        f"station {s.id}: negative final inventory"
        for s in instance.stations
        if expected and min(expected[0][s.id], expected[1][s.id]) < 0
    ]
    try:
        got = solution_from_plans(instance, routes, plans, ObjectiveWeights())
    except ValueError as exc:
        assert str(exc) == (violations[0] if structural else negative[0])
        return
    assert not structural and not negative
    replayed = (got.final_operative, got.final_damaged, got.route_times)
    assert replayed == expected
    for mine, theirs in zip(replayed, expected):
        assert list(mine) == list(theirs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_replay_matches_reference_on_random_routes_and_plans(data):
    instance = data.draw(random_instances(max_stations=4))
    _check_against_reference(instance, *data.draw(_routes_and_plans(instance)))


@settings(max_examples=200, deadline=None)
@given(random_instances(max_stations=5), st.integers(0, 2**32 - 1), st.data())
def test_replay_matches_reference_on_perturbed_constructions(instance, seed, data):
    # sound routes whose shifted moves break load, stock and final-state rules
    sol = construct_solution(instance, ConstructionParams(), np.random.default_rng(seed))
    shift = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    plans = []
    for plan in sol.plans:
        shifts = data.draw(st.lists(shift, min_size=len(plan.moves), max_size=len(plan.moves)))
        moves = tuple((op + a, dam + b) for (op, dam), (a, b) in zip(plan.moves, shifts))
        plans.append(LoadingPlan(plan.vehicle_id, moves))
    _check_against_reference(instance, sol.routes, plans)
