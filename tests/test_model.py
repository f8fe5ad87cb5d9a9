import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, random_instances
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
    apply_solution,
    check_instance,
    empty_solution,
    evaluate_objective,
    route_time,
    solution_from_plans,
    validate_solution,
)


def _travel(entries):
    n = len(entries)
    return TravelMatrix(np.array(entries, dtype=float), {i: i for i in range(n)})


def test_travel_matrix_equality_ignores_layout():
    minutes = np.array([[0.0, 4.0, 7.5], [3.0, 0.0, 1.0], [2.0, 6.0, 0.0]])
    a = TravelMatrix(minutes, {0: 0, 5: 1, 9: 2})
    # the same times with stations 5 and 9 swapped in the matrix
    b = TravelMatrix(minutes[np.ix_([0, 2, 1], [0, 2, 1])], {0: 0, 9: 1, 5: 2})
    assert a == b
    assert a != TravelMatrix(minutes, {0: 0, 9: 1, 5: 2})
    assert a != TravelMatrix(minutes, {0: 0, 5: 1, 8: 2})


def test_route_time_empty_route_is_zero():
    travel = _travel([[0, 10], [12, 0]])
    assert route_time(Route(1), travel) == 0


def test_route_time_sums_arcs():
    travel = _travel([[0, 10], [12, 0]])
    assert route_time(Route(1, (0, 1, 0)), travel) == 22


def test_route_time_two_stations():
    travel = _travel([[0, 10, 99], [99, 0, 5], [12, 99, 0]])
    assert route_time(Route(1, (0, 1, 2, 0)), travel) == 27


def test_route_time_unknown_node():
    travel = _travel([[0, 10], [12, 0]])
    with pytest.raises(ValueError):
        route_time(Route(1, (0, 7, 0)), travel)


def test_route_time_additive_under_concatenation():
    rng = np.random.default_rng(5)
    m = rng.integers(1, 30, size=(4, 4)).astype(float)
    np.fill_diagonal(m, 0)
    travel = TravelMatrix(m, {i: i for i in range(4)})
    left = (0, 1, 2)
    right = (2, 3, 0)
    whole = Route(1, left + right[1:])
    assert route_time(whole, travel) == route_time(Route(1, left), travel) + route_time(
        Route(1, right), travel
    )


def test_apply_solution_identity_without_routes():
    inst = make_instance([(1, 10, 5, 1, 3)])
    state = apply_solution(inst, [], [])
    assert state.operative == {1: 5}
    assert state.damaged == {1: 1}
    assert state.depot_operative == inst.depot.operative


def test_apply_solution_bookkeeping():
    inst = make_instance([(1, 10, 5, 1, 3)], fleet=((1, 20),), stock=4)
    routes = [Route(1, (0, 1, 0))]
    plans = [LoadingPlan(1, ((0, 0), (2, 1), (-2, -1)))]
    state = apply_solution(inst, routes, plans)
    assert state.operative[1] == 3
    assert state.damaged[1] == 0
    assert state.depot_operative == 4 + 2
    assert state.depot_damaged == 1


def test_apply_solution_multiple_visits_to_same_station():
    inst = make_instance([(1, 10, 5, 0, 3), (2, 10, 2, 0, 4)])
    routes = [Route(1, (0, 1, 2, 1, 0))]
    plans = [LoadingPlan(1, ((0, 0), (2, 0), (0, 0), (-1, 0), (-1, 0)))]
    state = apply_solution(inst, routes, plans)
    assert state.operative[1] == 5 - 2 + 1


def test_apply_solution_misaligned_plan_rejected():
    inst = make_instance([(1, 10, 5, 0, 3)])
    with pytest.raises(ValueError):
        apply_solution(inst, [Route(1, (0, 1, 0))], [LoadingPlan(1, ((0, 0),))])


def test_apply_solution_unknown_node():
    inst = make_instance([(1, 10, 5, 0, 3)])
    with pytest.raises(ValueError):
        apply_solution(inst, [Route(1, (0, 9, 0))], [LoadingPlan(1, ((0, 0), (0, 0), (0, 0)))])


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
    state = apply_solution(
        inst, [Route(1, (0, 1, 0))], [LoadingPlan(1, ((0, 0), (2, 1), (-2, -1)))]
    )
    state.route_times[1] = 60.0
    breakdown = evaluate_objective(inst, state, ObjectiveWeights())
    assert breakdown.imbalance == 0.0
    assert breakdown.damaged == 0.0
    assert breakdown.time == 0.5
    assert breakdown.total == 0.5


def test_objective_denominator_is_plain_sum():
    inst = make_instance([(1, 10, 5, 1, 3, 2.0)])
    state = apply_solution(inst, [], [])
    breakdown = evaluate_objective(inst, state, ObjectiveWeights())
    # D = w*|dev| + damaged = 2*2 + 1 = 5; the damaged count is not weighted in D
    assert breakdown.imbalance == pytest.approx(4 / 5)
    assert breakdown.damaged == pytest.approx(2 / 5)


def test_objective_unused_vehicles_count_in_time_divisor():
    inst = make_instance([(1, 10, 5, 0, 3)], fleet=((1, 20), (2, 20)), time_budget=100.0)
    routes = [Route(1, (0, 1, 0)), Route(2)]
    plans = [LoadingPlan(1, ((0, 0), (2, 0), (-2, 0))), LoadingPlan(2)]
    state = apply_solution(inst, routes, plans)
    breakdown = evaluate_objective(inst, state, ObjectiveWeights())
    assert breakdown.time == pytest.approx(20 / (100.0 * 2))


def test_objective_zero_fleet_time_term():
    inst = make_instance([(1, 10, 5, 0, 3)], fleet=())
    state = apply_solution(inst, [], [])
    breakdown = evaluate_objective(inst, state, ObjectiveWeights())
    assert breakdown.time == 0.0


def test_objective_negative_final_counts_rejected():
    inst = make_instance([(1, 10, 5, 0, 3)])
    state = apply_solution(
        inst, [Route(1, (0, 1, 0))], [LoadingPlan(1, ((0, 0), (6, 0), (-6, 0)))]
    )
    with pytest.raises(ValueError):
        evaluate_objective(inst, state, ObjectiveWeights())


def test_objective_weights_validated():
    with pytest.raises(ValueError):
        ObjectiveWeights(-0.1, 1, 1)
    with pytest.raises(ValueError):
        ObjectiveWeights(0, 0, 0)


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
    wrong_shape = Instance(
        stations=(Station(1, 10, 5, 0, 3), Station(2, 10, 5, 0, 3)),
        depot=Depot(0),
        travel=TravelMatrix(np.zeros((2, 2)), {0: 0, 1: 1, 2: 1}),
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
