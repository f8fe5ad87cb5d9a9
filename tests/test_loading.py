import dataclasses
import math
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_instance, negative_zeros, random_instances, reweighted
from oracle import brute_force_loading
from quality import fleet_mixed, workloads
from ssbrp import construction, loading
from ssbrp.construction import ConstructionParams, _reload, _walk, construct_solution
from ssbrp.instances import Family, GeneratorConfig, generate_instance
from ssbrp.loading import (
    LoadingModel,
    build_model,
    loading_bound,
    reoptimize_solution,
    solve_exact,
)
from ssbrp.model import (
    DEPOT,
    LoadingPlan,
    ObjectiveWeights,
    Route,
    empty_solution,
    evaluate_objective,
    solution_from_plans,
    validate_solution,
)


def _depot_draw(route, plan):
    """The depot stock a plan draws: its largest running depot take, at least 0."""
    take = peak = 0
    for node, (x, _) in zip(route.visits, plan.moves):
        if node == DEPOT:
            take += x
            peak = max(peak, take)
    return peak


def _residual_cost(instance, routes, result, weights=ObjectiveWeights()):
    """Re-derive the objective from the moves alone, bypassing the solver."""
    sol = solution_from_plans(instance, routes, result.plans, weights)
    total = 0.0
    for s in instance.stations:
        total += s.weight * (
            weights.gamma_d * abs(s.target - sol.final_operative[s.id])
            + weights.gamma_a * sol.final_damaged[s.id]
        )
    return total


@st.composite
def _models(draw):
    """An instance and routes of any shape the route check accepts, the
    depot-only (0,) and depot and station visits repeated later in the route
    included, plus objective weights. Back-to-back repeats are collapsed."""
    n = draw(st.integers(1, 4))
    stations = []
    for sid in range(1, n + 1):
        cap = draw(st.integers(1, 12))
        p = draw(st.integers(0, cap))
        a = draw(st.integers(0, cap - p))
        q = draw(st.integers(0, cap))
        stations.append((sid, cap, p, a, q, draw(st.sampled_from([0.0, 1.0, 2.5]))))
    fleet = tuple((vid, draw(st.integers(1, 9))) for vid in range(1, draw(st.integers(1, 3)) + 1))
    routes = []
    for vid, _ in fleet:
        visits = [DEPOT]
        for node in draw(st.lists(st.integers(0, n), max_size=7)):
            if node != visits[-1]:
                visits.append(node)
        if len(visits) > 1:
            if visits[-1] != DEPOT:
                visits.append(DEPOT)
        else:
            visits = draw(st.sampled_from([(), (DEPOT,)]))
        routes.append(Route(vid, tuple(visits)))
    stock = draw(st.integers(0, 6))
    depot_capacity = draw(st.none() | st.integers(stock, stock + 6))
    gammas = st.sampled_from([0.5, 1.0, 3.0])
    weights = ObjectiveWeights(draw(gammas), draw(gammas), 1.0)
    inst = make_instance(stations, fleet=fleet, stock=stock, depot_capacity=depot_capacity)
    return inst, routes, weights


def _expected_variables(inst, routes):
    """(name, kind, vehicle, visit, node, lower, upper) of each column, by the
    domain rules: depot moves within capacity, station moves toward the
    target and within the residuals, one depot allotment per routed vehicle."""
    capacity = {v.id: v.capacity for v in inst.fleet}
    out = []
    for route in routes:
        if not route.visits:
            continue
        vid = route.vehicle_id
        k = capacity[vid]
        for i, node in enumerate(route.visits, start=1):
            if node == DEPOT:
                out.append((f"x[{vid},{i}]", "x", vid, i, node, -k, k))
                out.append((f"y[{vid},{i}]", "y", vid, i, node, -k, 0))
                continue
            s = inst.station(node)
            if s.imbalance > 0:
                out.append((f"x[{vid},{i}]", "x", vid, i, node, 0, min(k, s.imbalance)))
            elif s.imbalance < 0:
                out.append((f"x[{vid},{i}]", "x", vid, i, node, max(-k, s.imbalance), 0))
            if s.damaged > 0:
                out.append((f"y[{vid},{i}]", "y", vid, i, node, 0, min(k, s.damaged)))
        out.append((f"w0[{vid}]", "w0", vid, 0, -1, 0, inst.depot.operative))
    return out


@settings(max_examples=150, deadline=None)
@given(_models())
def test_model_columns_and_highs_input(case):
    inst, routes, weights = case
    model = build_model(inst, routes, weights)
    expected = _expected_variables(inst, routes)
    assert model.columns == [col[1:5] for col in expected]
    assert model.lower.tolist() == [col[5] for col in expected]
    assert model.upper.tolist() == [col[6] for col in expected]
    assert model.branched.dtype == bool
    assert model.branched.tolist() == [col[1] != "w0" for col in expected]
    assert _bounds(model) == [f"{lo} <= {name} <= {hi}" for name, *_, lo, hi in expected]
    if model.n_vars == 0:
        return
    # the matrix HiGHS holds is the stacked dense rows, compressed by column,
    # with the inequality rows unbounded below
    lp = loading._relaxation(model).getLp()
    matrix = lp.a_matrix_
    expected = scipy.sparse.csc_array(np.vstack((model.a_ub, model.a_eq)))
    assert (lp.num_col_, lp.num_row_) == (model.n_vars, len(model.b_ub) + len(model.b_eq))
    assert matrix.format_ == loading.highs.MatrixFormat.kColwise
    assert matrix.start_ == expected.indptr.tolist()
    assert matrix.index_ == expected.indices.tolist()
    assert matrix.value_ == expected.data.tolist()
    assert lp.row_lower_ == [-math.inf] * len(model.b_ub) + model.b_eq.tolist()
    assert lp.row_upper_ == model.b_ub.tolist() + model.b_eq.tolist()
    assert (lp.col_lower_, lp.col_upper_) == (model.lower.tolist(), model.upper.tolist())
    assert np.asarray(lp.col_cost_).tolist() == model.c.tolist()


def _bounds(model):
    """The lines of the `bounds` section of the model's text form."""
    lines = model.dump().splitlines()
    return lines[lines.index("bounds") + 1 :]


def _names(model):
    """The column names, in column order, as the text form gives them."""
    return [line.split(" <= ")[1] for line in _bounds(model)]


def _reference_matrix(inst, model):
    """The dense constraint matrix, built from the model's columns alone,
    apart from its rows.

    Per route block, the loads after each visit are prefix sums of the x and
    y incidence of its visits: capacity, operative and damaged rows for every
    proper prefix, then a depot-allotment row per depot visit. The total rows
    follow in station order, then the equality rows route by route. Returns
    the matrix and its number of inequality rows."""
    n = model.n_vars
    station_cols = {}  # station -> its x and y columns, in column order
    for j, (kind, _, _, node) in enumerate(model.columns):
        if kind != "w0" and node != DEPOT:
            station_cols.setdefault(node, ([], []))[kind == "y"].append(j)
    w0_cols = [j for j, (kind, *_) in enumerate(model.columns) if kind == "w0"]
    ub, eq = [], []
    first = 0  # the route's first column
    for route, w0 in zip([r for r in model.routes if r.visits], w0_cols):
        nv, width = len(route.visits), w0 - first
        depots = [i for i, node in enumerate(route.visits) if node == DEPOT]
        inc = np.zeros((nv, 2, width), dtype=int)  # [visit, x or y, column]
        at = [2 * (visit - 1) + (kind == "y") for kind, _, visit, _ in model.columns[first:w0]]
        inc.reshape(2 * nv, width)[at, np.arange(width)] = 1
        x, y = inc.cumsum(axis=0).transpose(1, 0, 2)
        block = np.zeros((3 * (nv - 1) + len(depots), n))
        block[0 : 3 * (nv - 1) : 3, first:w0] = x[:-1] + y[:-1]
        block[1 : 3 * (nv - 1) : 3, first:w0] = -x[:-1]
        block[2 : 3 * (nv - 1) : 3, first:w0] = -y[:-1]
        block[3 * (nv - 1) :, first:w0] = inc[depots, 0].cumsum(axis=0)
        block[3 * (nv - 1) :, w0] = -1
        ub.append(block)
        block = np.zeros((1 + len(depots), n))
        block[0, first:w0] = x[-1]
        block[1:, first:w0] = y[depots]
        eq.append(block)
        first = w0 + 1
    totals = [(w0_cols, 1)] if w0_cols else []  # (columns, coefficient)
    for s in inst.stations:
        if s.id in station_cols:
            xs, ys = station_cols[s.id]
            totals += [(xs, 1 if s.imbalance > 0 else -1)] if s.imbalance else []
            totals += [(ys, 1)] if ys else []
            totals += [(xs + ys, -1)] if s.imbalance < 0 else []
    if inst.depot.capacity is not None and station_cols:
        totals.append(([j for xs, ys in station_cols.values() for j in xs + ys], 1))
    block = np.zeros((len(totals), n))
    for row, (cols, coef) in zip(block, totals):
        row[cols] = coef
    ub.append(block)
    n_ub = sum(len(block) for block in ub)
    return np.vstack(ub + eq), n_ub


def _check_rows_against_reference(inst, routes, weights):
    model = build_model(inst, routes, weights)
    reference, n_ub = _reference_matrix(inst, model)
    assert len(model.b_ub) == n_ub
    # the types HiGHS takes, so that passing the rows copies nothing
    assert [model.row_start.dtype, model.row_index.dtype] == [np.int32, np.int32]
    assert model.row_value.dtype == np.float64
    assert np.array_equal(model.a_ub, reference[:n_ub])
    assert np.array_equal(model.a_eq, reference[n_ub:])
    if model.n_vars:
        matrix = loading._relaxation(model).getLp().a_matrix_
        expected = scipy.sparse.csc_array(reference)
        assert matrix.format_ == loading.highs.MatrixFormat.kColwise
        assert matrix.start_ == expected.indptr.tolist()
        assert matrix.index_ == expected.indices.tolist()
        assert matrix.value_ == expected.data.tolist()


@settings(max_examples=150, deadline=None)
@given(_models())
def test_rows_match_the_dense_reference(case):
    _check_rows_against_reference(*case)


def test_rows_match_the_dense_reference_on_branching_cases():
    for case in _seeded_branching_cases(16, 100):
        _check_rows_against_reference(*case)


def test_phase_two_allocates_no_dense_matrix():
    # a constructed route set on the 90-station wien instance: about 500 rows,
    # 180 columns and 7,000 nonzeros. Solving it allocates less than a dense
    # float64 matrix of its rows alone would take
    inst = generate_instance(GeneratorConfig(family=Family.WIEN, stations=90, seed=1))
    routes = construct_solution(inst, ConstructionParams(), np.random.default_rng(0)).routes
    tracemalloc.start()
    try:
        model = build_model(inst, routes)
        solve_exact(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (len(model.b_ub) + len(model.b_eq)) * model.n_vars * 8


def test_check_assignment_checks_every_row():
    # surplus station 1, one vehicle: x at visit 2 is the pickup, w0 the allotment
    inst = make_instance([(1, 10, 7, 0, 5)], fleet=((1, 4),), stock=2)
    model = build_model(inst, [Route(1, (0, 1, 0))])
    names = _names(model)
    values = np.zeros(model.n_vars)
    loading._check_assignment(model, values)
    unallotted = values.copy()  # a bike taken at the depot and returned, none allotted
    unallotted[names.index("x[1,1]")] = 1
    unallotted[names.index("x[1,3]")] = -1
    assert np.count_nonzero(model.a_ub @ unallotted > model.b_ub) == 1
    assert np.array_equal(model.a_eq @ unallotted, model.b_eq)
    with pytest.raises(RuntimeError, match="inequality"):
        loading._check_assignment(model, unallotted)
    over_allotted = values.copy()  # an allotment above the depot stock, its upper bound
    over_allotted[names.index("w0[1]")] = 3
    assert model.upper[names.index("w0[1]")] == 2
    with pytest.raises(RuntimeError, match="column bound"):
        loading._check_assignment(model, over_allotted)
    kept_on_board = values.copy()  # a pickup that is never dropped
    kept_on_board[names.index("x[1,2]")] = 1
    assert np.all(model.a_ub @ kept_on_board <= model.b_ub)
    assert np.count_nonzero(model.a_eq @ kept_on_board != model.b_eq) == 1
    with pytest.raises(RuntimeError, match="equality"):
        loading._check_assignment(model, kept_on_board)


def _hand_built(b_ub, b_eq):
    """Two columns x, y in [0, 5] and five rows: x + y <= b_ub[0], an empty row
    <= b_ub[1], y <= b_ub[2]; x - y = b_eq[0], and an empty row = b_eq[1] last."""
    return LoadingModel(
        (), [("x", 1, 1, 1), ("y", 1, 1, 1)], np.zeros(2), np.full(2, 5.0),
        np.ones(2, dtype=bool), np.zeros(2), 0.0,
        np.array([0, 2, 2, 3, 5, 5], dtype=np.int32), np.array([0, 1, 1, 0, 1], dtype=np.int32),
        np.array([1.0, 1.0, 1.0, 1.0, -1.0]), np.array(b_ub, dtype=float),
        np.array(b_eq, dtype=float),
    )


def test_check_assignment_sums_empty_rows_to_zero():
    # build_model makes no empty row, but the check holds on any model: an
    # empty row sums to 0, not to the next row's first entry
    model = _hand_built([3, 0, 2], [0, 0])
    loading._check_assignment(model, np.array([1.0, 1.0]))
    with pytest.raises(RuntimeError, match="inequality"):
        loading._check_assignment(model, np.array([2.0, 2.0]))  # x + y = 4 > 3
    with pytest.raises(RuntimeError, match="equality"):
        loading._check_assignment(model, np.array([1.0, 0.0]))  # x - y = 1
    with pytest.raises(RuntimeError, match="inequality"):
        loading._check_assignment(_hand_built([3, -1, 2], [0, 0]), np.array([1.0, 1.0]))
    with pytest.raises(RuntimeError, match="equality"):
        loading._check_assignment(_hand_built([3, 0, 2], [0, 1]), np.array([1.0, 1.0]))


def _assignment(model, entries):
    """An assignment of the model's columns by name; the rest are 0."""
    names = _names(model)
    values = np.zeros(model.n_vars)
    for name, value in entries.items():
        values[names.index(name)] = value
    return values


def test_plans_draw_minimal_stock():
    # deficit station 1: take 3 at the depot, deliver 2, return 1; the rule
    # takes only the 2 delivered, returns none and draws 2 of the stock of 3
    inst = make_instance([(1, 10, 3, 0, 5)], fleet=((1, 5),), stock=3)
    route = Route(1, (0, 1, 0))
    model = build_model(inst, [route])
    given = _assignment(model, {"x[1,1]": 3, "x[1,2]": -2, "x[1,3]": -1, "w0[1]": 3})
    loading._check_assignment(model, given)
    (plan,) = loading._plans(model, given)
    assert plan == LoadingPlan(1, ((2, 0), (-2, 0), (0, 0)))
    assert _depot_draw(route, plan) == 2


@pytest.mark.parametrize(
    "stations, visits",
    [
        # taking only, the last depot visit would drop 4 bikes, past its bound of 2
        ([(1, 10, 7, 0, 5), (2, 10, 7, 0, 5)], (0, 1, 0, 2, 0)),
        # taking only, the vehicle would carry 4 bikes from station 2 to 3
        ([(1, 10, 7, 0, 5), (2, 10, 7, 0, 5), (3, 10, 3, 0, 5)], (0, 1, 0, 2, 3, 0)),
    ],
    ids=["bound", "load-row"],
)
def test_plans_drop_mid_route_only_where_capacity_forces_it(stations, visits):
    # surplus stations 1 and 2, capacity 2: the vehicle must drop its 2 bikes at
    # the mid-route depot visit to pick up at station 2
    inst = make_instance(stations, fleet=((1, 2),))
    model = build_model(inst, [Route(1, visits)])
    given = _assignment(model, {"x[1,2]": 2, "x[1,3]": -2, "x[1,4]": 2, "x[1,5]": -2})
    loading._check_assignment(model, given)
    (plan,) = loading._plans(model, given)
    moves = ((0, 0), (2, 0), (-2, 0), (2, 0), (-2, 0), (0, 0))[: len(visits)]
    assert plan == LoadingPlan(1, moves)  # the depot moves stay, w0 = 0


def test_plans_drop_only_the_forced_bikes():
    # vehicle 3 of a wien-90 leaf (instance seed 1), shrunk: it picks up 14 at
    # station 73, and HiGHS's leaf drops 10 of them at the depot. Picking up 7
    # and 1 damaged at station 49 forces a drop of 2 only; the other 8 ride on,
    # and the last depot visit takes them back
    inst = make_instance(
        [(49, 16, 15, 1, 8), (73, 26, 20, 0, 6), (74, 20, 4, 0, 15)], fleet=((3, 20),)
    )
    route = Route(3, (0, 73, 0, 49, 74, 0))
    model = build_model(inst, [route])
    station = {"x[3,2]": 14, "x[3,4]": 7, "y[3,4]": 1, "x[3,5]": -11, "y[3,6]": -1}
    given = _assignment(model, {**station, "x[3,3]": -10})
    loading._check_assignment(model, given)
    (plan,) = loading._plans(model, given)
    assert plan == LoadingPlan(3, ((0, 0), (14, 0), (-2, 0), (7, 1), (-11, 0), (-8, -1)))
    assert _depot_draw(route, plan) == 0


@settings(max_examples=150, deadline=None)
@given(_models())
def test_depot_moves_follow_from_station_moves(case):
    inst, routes, weights = case
    model = build_model(inst, routes, weights)
    rule = loading._plans
    leaves = []  # the rounded LP leaf solve_exact keeps, as it hands it to the rule

    def recorded(model, values):
        leaves.append(values)
        return rule(model, values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(loading, "_plans", recorded)
        result = solve_exact(model)
    (values,) = leaves
    plans = rule(model, values)
    assert plans == result.plans
    assert validate_solution(inst, routes, plans) == []
    by_vehicle = {plan.vehicle_id: plan for plan in plans}
    for (kind, vid, visit, node), value in zip(model.columns, values.tolist()):
        if kind != "w0" and node != DEPOT:  # station moves stay as the leaf has them
            assert by_vehicle[vid].moves[visit - 1][kind == "y"] == value
    for route, plan in zip(model.routes, plans):
        # w0, the stock a route draws, is the peak of its cumulative depot takes:
        # its largest net delivery from the station moves
        flow = need = 0
        for node, (x, _) in zip(route.visits, plan.moves):
            if node != DEPOT:
                flow += x
                need = max(need, -flow)
        assert _depot_draw(route, plan) == need
    # the rule reads no depot column of the leaf
    depot = [j for j, (kind, *_, node) in enumerate(model.columns) if kind == "w0" or node == DEPOT]
    zeroed = values.copy()
    zeroed[depot] = 0
    assert rule(model, zeroed) == plans


def test_build_model_no_routes():
    inst = make_instance([(1, 10, 7, 2, 4), (2, 10, 1, 0, 3)])
    model = build_model(inst, [Route(1, ())])
    assert model.n_vars == 0
    assert model.constant == 3 + 2 + 2
    result = solve_exact(model)
    assert result.objective_value == 7


def test_build_model_single_surplus_route():
    inst = make_instance([(1, 10, 7, 0, 5)], fleet=((1, 2),), stock=4)
    model = build_model(inst, [Route(1, (0, 1, 0))])
    names = _names(model)
    assert names == ["x[1,1]", "y[1,1]", "x[1,2]", "x[1,3]", "y[1,3]", "w0[1]"]
    bounds = dict(zip(names, zip(model.lower.tolist(), model.upper.tolist())))
    assert bounds["x[1,1]"] == (-2, 2)
    assert bounds["y[1,1]"] == (-2, 0)
    assert bounds["x[1,2]"] == (0, 2)
    assert bounds["w0[1]"] == (0, 4)
    # every operative bike picked up is dropped again by route end
    total_x = [row for row in model.a_eq if row[names.index("x[1,2]")] == 1]
    assert any(
        row[names.index("x[1,1]")] == 1 and row[names.index("x[1,3]")] == 1
        for row in total_x
    )
    assert model.constant == 2


def test_build_model_balanced_station_has_no_operative_variable():
    inst = make_instance([(1, 10, 5, 3, 5)], fleet=((1, 4),))
    model = build_model(inst, [Route(1, (0, 1, 0))])
    station_cols = [j for j, col in enumerate(model.columns) if col[3] == 1]
    assert [model.columns[j][0] for j in station_cols] == ["y"]
    assert (model.lower[station_cols[0]], model.upper[station_cols[0]]) == (0, 3)


def test_build_model_shared_station_row():
    inst = make_instance([(1, 10, 9, 0, 5)], fleet=((1, 3), (2, 3)))
    routes = [Route(1, (0, 1, 0)), Route(2, (0, 1, 0))]
    model = build_model(inst, routes)
    cols = [j for j, col in enumerate(model.columns) if col[3] == 1 and col[0] == "x"]
    assert len(cols) == 2
    shared = [
        (row, rhs)
        for row, rhs in zip(model.a_ub, model.b_ub)
        if all(row[c] == 1 for c in cols)
    ]
    assert any(rhs == 4 for _, rhs in shared)
    result = solve_exact(model)
    assert result.objective_value == 0
    picked = {plan.vehicle_id: plan.moves[1][0] for plan in result.plans}
    assert sum(picked.values()) == 4
    assert all(0 <= x <= 3 for x in picked.values())


@pytest.mark.parametrize("phase_two", [build_model, brute_force_loading])
@pytest.mark.parametrize(
    "routes, message",
    [
        ([Route(9, (0, 1, 0))], "vehicle 9: not in fleet"),
        ([Route(1, (0, 1, 0)), Route(1)], "vehicle 1: multiple routes assigned"),
        ([Route(1, (0, 8, 0))], "vehicle 1: unknown nodes [8]"),
        ([Route(1, (1, 0))], "vehicle 1: route must start and end at the depot"),
        ([Route(1, (0, 1))], "vehicle 1: route must start and end at the depot"),
        ([Route(1, (0, 1, 1, 0))], "vehicle 1: visit 2 immediately repeats node 1"),
        ([Route(1, (0, 0))], "vehicle 1: visit 1 immediately repeats node 0"),
    ],
    ids=[
        "unknown-vehicle",
        "second-route",
        "unknown-node",
        "no-start",
        "no-end",
        "repeat-station",
        "repeat-depot",
    ],
)
def test_route_check_rejects(phase_two, routes, message):
    # phase two raises the first fault validate_solution reports; the accepted
    # shapes are drawn by _models
    inst = make_instance([(1, 10, 7, 0, 5)])
    with pytest.raises(ValueError, match=re.escape(message)):
        phase_two(inst, routes)
    plans = [LoadingPlan(r.vehicle_id, ((0, 0),) * len(r.visits)) for r in routes]
    assert message in validate_solution(inst, routes, plans)


def test_dump_grammar():
    inst = make_instance([(1, 10, 7, 2, 5)], fleet=((1, 3),), stock=2)
    model = build_model(inst, [Route(1, (0, 1, 0))])
    text = model.dump()
    lines = text.strip().split("\n")
    assert lines[0].startswith("min ")
    assert lines[1] == "s.t."
    bounds_at = lines.index("bounds")
    constraints = lines[2:bounds_at]
    assert len(constraints) == len(model.a_ub) + len(model.a_eq)
    for line in constraints:
        assert (" <= " in line) != (" = " in line)
    bounds = lines[bounds_at + 1 :]
    assert len(bounds) == model.n_vars
    for line, lower, upper in zip(bounds, model.lower, model.upper):
        lo, _, hi = line.split(" <= ")
        assert float(lo) == lower and float(hi) == upper
    assert "x[1,2]" in text and "y[1,2]" in text and "w0[1]" in text


def test_solve_exact_moves_surplus_to_deficit():
    inst = make_instance([(1, 10, 7, 0, 5), (2, 10, 3, 0, 5)], fleet=((1, 2),))
    routes = [Route(1, (0, 1, 2, 0))]
    result = solve_exact(build_model(inst, routes))
    assert result.objective_value == 0
    assert result.plans == (LoadingPlan(1, ((0, 0), (2, 0), (-2, 0), (0, 0))),)
    assert _depot_draw(routes[0], result.plans[0]) == 0


def test_solve_exact_draws_on_depot_stock():
    inst = make_instance([(1, 10, 3, 0, 5)], fleet=((1, 5),), stock=3)
    routes = [Route(1, (0, 1, 0))]
    result = solve_exact(build_model(inst, routes))
    assert result.objective_value == 0
    assert result.plans == (LoadingPlan(1, ((2, 0), (-2, 0), (0, 0))),)
    assert _depot_draw(routes[0], result.plans[0]) == 2


def test_solve_exact_without_stock_leaves_deficit():
    inst = make_instance([(1, 10, 3, 0, 5)], fleet=((1, 5),))
    routes = [Route(1, (0, 1, 0))]
    result = solve_exact(build_model(inst, routes))
    assert result.objective_value == 2
    assert result.plans == (LoadingPlan(1, ((0, 0), (0, 0), (0, 0))),)
    assert _depot_draw(routes[0], result.plans[0]) == 0


def test_solve_exact_forces_damaged_room_at_full_deficit_station():
    # filling this station to its target only fits if damaged bikes leave too:
    # target 8 plus 3 damaged would overflow the 10 docks
    inst = make_instance([(1, 10, 2, 3, 8)], fleet=((1, 6),), stock=7)
    routes = [Route(1, (0, 1, 0))]
    result = solve_exact(build_model(inst, routes))
    assert result.objective_value == 0
    x, y = result.plans[0].moves[1]
    assert x == -6
    assert y == 3
    assert validate_solution(inst, routes, result.plans) == []
    oracle = brute_force_loading(inst, routes)
    assert oracle.objective_value == result.objective_value


@pytest.mark.parametrize(
    "routes",
    [
        [Route(1, (0, 1, 2, 0)), Route(2)],
        [Route(2), Route(3, (0,)), Route(1, (0, 2, 0, 1, 0))],
        [Route(1), Route(3)],
        [],
    ],
    ids=["empty-last", "empty-first", "all-empty", "none"],
)
def test_both_solvers_return_one_plan_per_route(routes):
    inst = make_instance([(1, 10, 7, 0, 5), (2, 10, 3, 1, 5)], fleet=((1, 2), (2, 3), (3, 2)))
    exact = solve_exact(build_model(inst, routes))
    oracle = brute_force_loading(inst, routes)
    shape = [(r.vehicle_id, len(r.visits)) for r in routes]
    for result in (exact, oracle):
        assert [(p.vehicle_id, len(p.moves)) for p in result.plans] == shape
        assert validate_solution(inst, routes, result.plans) == []
    assert exact.objective_value == oracle.objective_value


def test_brute_force_guard_rails():
    inst = make_instance([(1, 10, 7, 0, 5)], fleet=((1, 7),))
    with pytest.raises(ValueError, match="guard rail"):
        brute_force_loading(inst, [Route(1, (0, 1, 0))])
    inst = make_instance([(1, 20, 12, 0, 5)], fleet=((1, 4),))
    with pytest.raises(ValueError, match="guard rail"):
        brute_force_loading(inst, [Route(1, (0, 1, 0))])
    inst = make_instance([(1, 10, 7, 0, 5)], fleet=((1, 4),))
    big = Route(1, (0,) + (1, 0) * 6)
    with pytest.raises(ValueError, match="guard rail"):
        brute_force_loading(inst, [big])


def _random_case(rng, weighted):
    n = int(rng.integers(1, 4))
    stations = []
    for sid in range(1, n + 1):
        a = int(rng.integers(0, 4))
        d = int(rng.integers(-4, 5))
        q = int(rng.integers(0, 5))
        p = q + d
        if p < 0:
            q, p = q - p, 0
        cap = p + a + int(rng.integers(0, 4))
        cap = max(cap, q)
        w = float(rng.integers(1, 5)) if weighted else 1.0
        stations.append((sid, cap, p, a, q, w))
    n_veh = int(rng.integers(1, 3))
    fleet = tuple((i + 1, int(rng.integers(2, 5))) for i in range(n_veh))
    inst = make_instance(stations, fleet=fleet, stock=int(rng.integers(0, 5)))
    routes = []
    remaining = 10 - 2 * n_veh
    for vid, _ in fleet:
        inner_len = int(rng.integers(0, min(3, remaining) + 1))
        remaining -= inner_len
        inner = [int(rng.integers(0, n + 1)) for _ in range(inner_len)]
        visits = [0]
        for node in inner:
            if node != visits[-1]:
                visits.append(node)
        if len(visits) == 1:
            # all picks collapsed into the depot: an unused vehicle
            routes.append(Route(vid))
            continue
        if visits[-1] != 0:
            visits.append(0)
        routes.append(Route(vid, tuple(visits)))
    return inst, routes


def _check_case(inst, routes, weights=ObjectiveWeights()):
    exact = solve_exact(build_model(inst, routes, weights))
    oracle = brute_force_loading(inst, routes, weights)
    assert exact.objective_value == oracle.objective_value, routes
    assert _residual_cost(inst, routes, exact, weights) == exact.objective_value
    assert validate_solution(inst, routes, exact.plans) == []
    assert validate_solution(inst, routes, oracle.plans) == []


def _check_against_brute_force(seed, trials, weighted):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        _check_case(*_random_case(rng, weighted))


def test_solver_matches_brute_force():
    _check_against_brute_force(4242, 40, weighted=False)


def test_solver_matches_weighted_brute_force():
    # station weights 1-4
    _check_against_brute_force(777, 15, weighted=True)


def _short_routes(draw, fleet, n):
    """One route per vehicle over stations 1..n, at most 6 visits, or empty."""
    routes = []
    for vid, _ in fleet:
        visits = [DEPOT]
        for node in draw(st.lists(st.integers(0, n), max_size=4)):
            if node != visits[-1]:
                visits.append(node)
        if visits[-1] != DEPOT:
            visits.append(DEPOT)
        routes.append(Route(vid, tuple(visits) if len(visits) > 1 else ()))
    return routes


@st.composite
def _guarded_cases(draw):
    """An instance (depot capacity optional) and routes inside the oracle's
    guard rails (at most 6 visits a vehicle), and objective weights; gammas
    are dyadic, so sums stay exact."""
    n = draw(st.integers(1, 3))
    stations = []
    for sid in range(1, n + 1):
        q = draw(st.integers(0, 6))
        p = draw(st.integers(max(0, q - 4), q + 4))
        a = draw(st.integers(0, 3))
        cap = draw(st.integers(max(p + a, q), max(p + a, q) + 3))
        stations.append((sid, cap, p, a, q, draw(st.sampled_from([1.0, 0.5, 2.0, 3.0]))))
    fleet = tuple((vid, draw(st.integers(1, 5))) for vid in range(1, draw(st.integers(1, 2)) + 1))
    routes = _short_routes(draw, fleet, n)
    gammas = st.sampled_from([0.0, 0.5, 1.0, 2.0, 10.0])
    weights = ObjectiveWeights(draw(gammas), draw(gammas), 1.0)
    stock = draw(st.integers(0, 5))
    depot_capacity = draw(st.none() | st.integers(stock, stock + 3))
    inst = make_instance(stations, fleet=fleet, stock=stock, depot_capacity=depot_capacity)
    return inst, routes, weights


@settings(max_examples=200, deadline=None)
@given(_guarded_cases())
def test_solver_matches_brute_force_on_random_cases(case):
    _check_case(*case)


def _count_lps(monkeypatch):
    """Record each per-node LP of solve_exact, at the boundary the benchmark traces."""
    calls = []
    solve = loading.linprog

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(loading, "linprog", counted)
    return calls


def test_fractional_root_is_branched_and_matches_brute_force(monkeypatch):
    inst = make_instance([(1, 9, 8, 1, 3), (6, 11, 7, 1, 11), (9, 9, 8, 1, 8)], fleet=((1, 4),))
    routes = [Route(1, (0, 9, 1, 6, 1, 0))]
    calls = _count_lps(monkeypatch)
    _check_case(inst, routes)
    # the root LP is fractional: nodes are re-solved after bound changes
    assert len(calls) > 1


# more fleet-mixed solves whose root LP is fractional (instance seed 1,
# construction rng [seed, 1], vehicles built in fleet order), shrunk into
# the oracle's guard rails while the root stayed fractional: stations,
# fleet and routes; depot stock 0
_FRACTIONAL_ROOTS = {
    "seed82": (
        [(2, 3, 2, 1, 0), (4, 7, 3, 4, 0), (6, 5, 0, 0, 5)],
        ((1, 5),),
        [(1, (0, 2, 4, 6, 4, 0))],
    ),
    "seed104": (
        [(1, 6, 5, 1, 0), (6, 4, 0, 1, 4), (12, 1, 0, 1, 0)],
        ((1, 4),),
        [(1, (0, 12, 1, 6, 1, 0))],
    ),
    "seed185": (
        [(4, 7, 3, 4, 0), (5, 2, 0, 2, 2), (6, 4, 0, 1, 4), (14, 4, 3, 1, 0)],
        ((2, 6), (3, 2)),
        [(2, (0, 14, 4, 5, 6, 4, 0)), (3, (0, 4, 0))],
    ),
    "seed161": (
        [(5, 4, 0, 4, 1), (6, 1, 0, 1, 1), (14, 8, 3, 5, 0)],
        ((2, 5), (3, 5)),
        [(2, (0, 6, 0, 14, 5, 0, 14, 0)), (3, (0, 14, 0))],
    ),
}


@pytest.mark.parametrize("name", sorted(_FRACTIONAL_ROOTS))
def test_shrunk_fractional_roots_match_brute_force(monkeypatch, name):
    stations, fleet, routes = _FRACTIONAL_ROOTS[name]
    inst = make_instance(stations, fleet=fleet)
    calls = _count_lps(monkeypatch)
    _check_case(inst, [Route(vid, visits) for vid, visits in routes])
    assert len(calls) > 1


def test_root_integral_solve_takes_one_lp(monkeypatch):
    inst = make_instance([(1, 10, 8, 0, 5), (2, 10, 2, 0, 5)], fleet=((1, 5),))
    model = build_model(inst, [Route(1, (0, 1, 2, 0))])
    calls = _count_lps(monkeypatch)
    for solves in (1, 2, 3):
        assert solve_exact(model).objective_value == 0
        assert len(calls) == solves


def test_a_solve_checks_only_the_leaf_it_keeps(monkeypatch):
    # each of these solves branches, and some reach more than one integral
    # leaf; only the one kept gets its depot moves set and its rows checked
    check = loading._check_assignment
    checked = []

    def counted(model, values):
        checked.append(values)
        check(model, values)

    monkeypatch.setattr(loading, "_check_assignment", counted)
    for model in _fractional_root_models():
        checked.clear()
        solve_exact(model)
        assert len(checked) == 1


def test_node_limit_stops_only_a_solve_that_branches(monkeypatch):
    monkeypatch.setattr(loading, "_NODE_LIMIT", 1)
    for model in _fractional_root_models():
        with pytest.raises(RuntimeError, match="^branch-and-bound node limit exceeded$"):
            solve_exact(model)
    # a root-integral solve takes one node, so the limit leaves it alone
    inst = make_instance([(1, 10, 8, 0, 5), (2, 10, 2, 0, 5)], fleet=((1, 5),))
    assert solve_exact(build_model(inst, [Route(1, (0, 1, 2, 0))])).objective_value == 0


def _branching_case(draw_int):
    """An instance and routes inside the oracle's guard rails whose root LP is
    fractional in about 1 case of 16. Vehicle 1, of capacity k, visits a
    station holding damaged bikes, a surplus of about k, a deficit of at least
    k whose docks fill only as its damaged bikes leave, and the surplus again;
    a mid-route depot visit and a second visit to the first station may be
    inserted. Vehicle 2, of a capacity drawn on its own, may visit one or two
    stations, each from the depot. ``draw_int(lo, hi)`` draws an integer in
    [lo, hi]."""
    k = draw_int(2, 5)
    surplus, deficit = draw_int(k - 1, k + 1), draw_int(k, 6)
    first_p, first_a, surplus_a, deficit_a = (draw_int(lo, 2) for lo in (0, 1, 0, 0))
    stations = [
        (1, first_p + first_a, first_p, first_a, 0),
        (2, surplus + surplus_a, surplus, surplus_a, 0),
        (3, deficit + draw_int(0, 1), 0, deficit_a, deficit),
    ]
    visits = [DEPOT, 1, 2, 3, 2]
    if draw_int(0, 1):
        visits.insert(draw_int(2, 4), DEPOT)
    if draw_int(0, 1):
        visits.insert(draw_int(1, len(visits)), 1)
    visits.append(DEPOT)
    visits = [node for i, node in enumerate(visits) if i == 0 or node != visits[i - 1]]
    fleet = [(1, k)]
    routes = [Route(1, tuple(visits))]
    if draw_int(0, 1):
        fleet.append((2, draw_int(2, 6)))
        second = (DEPOT, draw_int(1, 3), DEPOT, draw_int(1, 3), DEPOT)
        routes.append(Route(2, second if len(visits) <= 7 and draw_int(0, 1) else second[:3]))
    inst = make_instance(stations, fleet=tuple(fleet), stock=draw_int(0, 1))
    return inst, routes, ObjectiveWeights()


@st.composite
def _branching_cases(draw):
    return _branching_case(lambda lo, hi: draw(st.integers(lo, hi)))


def _seeded_branching_cases(seed, n):
    rng = np.random.default_rng(seed)
    return [_branching_case(lambda lo, hi: int(rng.integers(lo, hi + 1))) for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(_branching_cases())
def test_solver_matches_brute_force_on_branching_cases(case):
    _check_case(*case)


def test_seeded_branching_cases_take_more_than_one_lp(monkeypatch):
    calls = _count_lps(monkeypatch)
    lps = []
    for case in _seeded_branching_cases(16, 30):
        before = len(calls)
        _check_case(*case)
        lps.append(len(calls) - before)
    # a fractional root branches, so its solve takes two more LPs at least
    assert sum(n >= 3 for n in lps) >= 3


# seeded branching cases whose optimum is not an integer: a node bound
# rounded up as if it were would prune the optimal branch
@pytest.mark.parametrize(
    "seed, gamma_d, gamma_a",
    [(6, 0.75, 0.75), (41, 0.75, 1.0), (53, 0.75, 0.75), (53, 0.75, 1.0), (53, 1.0, 1.5)],
)
def test_fractional_optimum_cases_match_brute_force(seed, gamma_d, gamma_a):
    inst, routes, _ = _seeded_branching_cases(seed, 1)[0]
    _check_case(inst, routes, ObjectiveWeights(gamma_d, gamma_a, 1.0))


def test_branching_cases_take_at_most_354_lps(monkeypatch):
    # A cap on B&B work: 354 LPs over these 304 solves, counted by wrapping
    # loading.linprog as _count_lps does. Code that also rounded each node
    # bound up where the objective was integral took the same 354. The
    # benchmark's workloads hardly branch, so this is the one check that
    # B&B does no extra work. About 0.2-0.3 s.
    cases = [
        (make_instance(stations, fleet=fleet), [Route(vid, visits) for vid, visits in routes])
        for stations, fleet, routes in _FRACTIONAL_ROOTS.values()
    ]
    cases += [(inst, routes) for inst, routes, _ in _seeded_branching_cases(16, 300)]
    calls = _count_lps(monkeypatch)
    for inst, routes in cases:
        solve_exact(build_model(inst, routes))
    assert len(cases) == 304
    assert len(calls) <= 354


def test_bound_prune_caps_fleet_mixed_lps(monkeypatch):
    # None of the 304 solves above prunes a node on its LP bound. These four
    # fleet-mixed constructions (instance seed, rng [seed, i]) do: they take
    # 16 LPs, and 66 if nodes are pruned only when HiGHS proves them
    # infeasible. Of the 4,800 with instance seeds 1-6, seeds 0-39 and i 1-20,
    # built largest vehicle first, 7 have a fractional root and 4 prune on the
    # bound at all.
    cases = []
    for instance_seed, seed, i in [(3, 3, 12), (4, 20, 8), (4, 23, 9), (5, 6, 18)]:
        inst = fleet_mixed(instance_seed)
        built = construct_solution(inst, ConstructionParams(), np.random.default_rng([seed, i]))
        cases.append((inst, built.routes))
    calls = _count_lps(monkeypatch)
    for inst, routes in cases:
        solve_exact(build_model(inst, routes))
    assert len(calls) <= 16


@contextmanager
def _fresh_solver_per_solve():
    """Within: ``_relaxation`` makes a new HiGHS instance at every solve."""
    relaxation = loading._relaxation

    def fresh(model):
        loading._solvers = threading.local()
        return relaxation(model)

    saved = loading._solvers
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(loading, "_relaxation", fresh)
        try:
            yield
        finally:
            loading._solvers = saved


def _fractional_root_models():
    """The models of ``_FRACTIONAL_ROOTS``, each of whose solves branches."""
    return [
        build_model(
            make_instance(stations, fleet=fleet),
            [Route(vid, visits) for vid, visits in routes],
        )
        for stations, fleet, routes in _FRACTIONAL_ROOTS.values()
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_models() | _branching_cases(), min_size=1, max_size=5),
    st.data(),
)
def test_thread_solver_matches_a_fresh_solver_per_solve(cases, data):
    models = [build_model(*case) for case in cases]
    with _fresh_solver_per_solve():
        expected = [solve_exact(model) for model in models]
    # a solve that fails after a B&B node has been re-solved, then the rest
    broken = data.draw(st.sampled_from(_fractional_root_models()))
    at = data.draw(st.integers(0, len(models) - 1))
    results = [solve_exact(model) for model in models[:at]]
    solve = loading.linprog
    lps = []

    def failing(*args):
        lps.append(solve(*args))
        if len(lps) == 2:
            raise RuntimeError("injected LP failure")
        return lps[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(loading, "linprog", failing)
        with pytest.raises(RuntimeError, match="injected"):
            solve_exact(broken)
    results += [solve_exact(model) for model in models[at:]]
    assert results == expected


def test_threads_solve_with_their_own_solvers():
    models = _fractional_root_models() + [
        build_model(*case) for case in _seeded_branching_cases(16, 30)
    ]
    expected = [solve_exact(model) for model in models]
    workers = 4  # more threads than cores
    start = threading.Barrier(workers, timeout=30)

    def solve_all():
        start.wait()
        return [solve_exact(model) for model in models]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between nearly every bytecode
    try:
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(solve_all) for _ in range(workers)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    assert results == [expected] * workers


@pytest.mark.parametrize(
    "status, message",
    [("kSolveError", "HiGHS model status kSolveError"), ("kInfeasible", "infeasible")],
)
def test_lp_failure_raises(monkeypatch, status, message):
    # only a proven-infeasible LP prunes a node; an infeasible root leaves no plan
    failed = getattr(loading.highs.HighsModelStatus, status)
    monkeypatch.setattr(loading, "linprog", lambda lp, lower, upper: (failed, math.nan, None))
    inst = make_instance([(1, 10, 8, 0, 5), (2, 10, 2, 0, 5)], fleet=((1, 5),))
    model = build_model(inst, [Route(1, (0, 1, 2, 0))])
    with pytest.raises(RuntimeError, match=message):
        solve_exact(model)


def test_assignment_respects_domains_and_stock():
    inst = make_instance(
        [(1, 12, 9, 2, 4), (2, 12, 1, 1, 6), (3, 12, 4, 3, 4)],
        fleet=((1, 4), (2, 3)),
        stock=3,
    )
    routes = [Route(1, (0, 1, 2, 0, 3, 0)), Route(2, (0, 3, 2, 0))]
    result = solve_exact(build_model(inst, routes))
    assert sum(_depot_draw(route, plan) for route, plan in zip(routes, result.plans)) <= 3
    assert validate_solution(inst, routes, result.plans) == []
    for route, plan in zip(routes, result.plans):
        for node, (x, y) in zip(route.visits, plan.moves):
            if node == 0:
                assert y <= 0
                continue
            s = inst.station(node)
            assert y >= 0
            if s.imbalance > 0:
                assert x >= 0
            elif s.imbalance < 0:
                assert x <= 0
            else:
                assert x == 0


def test_reoptimize_improves_myopic_plan():
    inst = make_instance(
        [(1, 10, 5, 1, 5), (2, 10, 7, 0, 5), (3, 10, 3, 0, 5)],
        fleet=((1, 2),),
    )
    routes = [Route(1, (0, 1, 2, 3, 0))]
    myopic = [LoadingPlan(1, ((0, 0), (0, 1), (1, 0), (-1, 0), (0, -1)))]
    weights = ObjectiveWeights()
    before = solution_from_plans(inst, routes, myopic, weights)
    assert validate_solution(inst, routes, myopic) == []
    after = reoptimize_solution(inst, before, weights)
    assert after.objective.imbalance + after.objective.damaged < (
        before.objective.imbalance + before.objective.damaged
    )
    assert after.plans[0].moves == ((0, 0), (0, 0), (2, 0), (-2, 0), (0, 0))
    oracle = brute_force_loading(inst, routes)
    assert oracle.objective_value == 1


def test_reoptimize_is_idempotent():
    inst = make_instance(
        [(1, 12, 9, 1, 4), (2, 12, 2, 2, 8), (3, 12, 6, 1, 6)],
        fleet=((1, 6), (2, 4)),
        stock=4,
    )
    sol = construct_solution(inst, ConstructionParams(), np.random.default_rng(5))
    once = reoptimize_solution(inst, sol)
    twice = reoptimize_solution(inst, once)
    assert once == twice


def test_reoptimize_keeps_empty_solution_empty():
    inst = make_instance([(1, 10, 7, 1, 5)])
    weights = ObjectiveWeights()
    sol = empty_solution(inst, weights)
    again = reoptimize_solution(inst, sol, weights)
    assert again.is_empty
    assert again == sol


def test_reoptimize_never_worsens_and_keeps_times():
    rng = np.random.default_rng(31)
    for trial in range(25):
        n = int(rng.integers(2, 6))
        stations = []
        for sid in range(1, n + 1):
            cap = int(rng.integers(4, 10))
            p = int(rng.integers(0, cap + 1))
            a = int(rng.integers(0, cap - p + 1))
            q = int(rng.integers(0, cap + 1))
            stations.append((sid, cap, p, a, q))
        m = rng.integers(1, 12, size=(n + 1, n + 1)).astype(float)
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0)
        inst = make_instance(
            stations,
            fleet=tuple((i + 1, int(rng.integers(3, 9))) for i in range(int(rng.integers(1, 3)))),
            stock=int(rng.integers(0, 6)),
            time_budget=float(rng.integers(40, 160)),
            travel=m,
        )
        before = construct_solution(inst, ConstructionParams(), np.random.default_rng(trial))
        after = reoptimize_solution(inst, before)
        assert (
            after.objective.imbalance + after.objective.damaged
            <= before.objective.imbalance + before.objective.damaged + 1e-12
        )
        assert after.objective.time == before.objective.time
        assert after.route_times == before.route_times
        assert [r.visits for r in after.routes] == [r.visits for r in before.routes]
        assert validate_solution(inst, after.routes, after.plans) == []


_GAMMAS = [(1, 1, 1), (10, 1, 1), (1, 0, 1), (0, 1, 1), (1, 10, 1), (0.5, 3, 0), (2.5, 0.25, 4)]


def test_reoptimize_never_worsens_weighted_residuals():
    # phase two minimizes the same gamma- and station-weighted residuals the
    # objective reports; the 1e-12 allows a tie whose two terms round apart
    inst = reweighted(generate_instance(GeneratorConfig(family=Family.PALMA, seed=1)))
    for seed in range(50):
        for gammas in (_GAMMAS[0], _GAMMAS[1 + seed % (len(_GAMMAS) - 1)]):
            weights = ObjectiveWeights(*gammas)
            rng = np.random.default_rng(seed)
            before = construct_solution(inst, ConstructionParams(), rng, weights)
            after = reoptimize_solution(inst, before, weights)
            g_d, g_a, _ = gammas
            assert (
                g_d * after.objective.imbalance + g_a * after.objective.damaged
                <= g_d * before.objective.imbalance + g_a * before.objective.damaged + 1e-12
            ), (seed, gammas)
            assert after.objective.total <= before.objective.total + 1e-12, (seed, gammas)


@st.composite
def _bound_cases(draw):
    """A random instance with some station weights set to 0, objective
    weights from {0, 0.5, 1, 10} (not all 0), and a construction seed."""
    inst = draw(random_instances())
    zeroed = draw(st.lists(st.booleans(), min_size=len(inst.stations), max_size=len(inst.stations)))
    stations = tuple(
        dataclasses.replace(s, weight=0.0) if zero else s
        for s, zero in zip(inst.stations, zeroed)
    )
    gamma = st.sampled_from([0.0, 0.5, 1.0, 10.0])
    gammas = draw(st.tuples(gamma, gamma, gamma).filter(any))
    seed = draw(st.integers(0, 2**32 - 1))
    return dataclasses.replace(inst, stations=stations), ObjectiveWeights(*gammas), seed


@settings(max_examples=150, deadline=None)
@given(_bound_cases())
def test_loading_bound_never_exceeds_reoptimized_total(case):
    inst, weights, seed = case
    built = construct_solution(inst, ConstructionParams(), np.random.default_rng(seed), weights)
    bound = loading_bound(inst, built, weights)
    after = reoptimize_solution(inst, built, weights)
    assert bound.total <= after.objective.total
    assert bound.time == after.objective.time
    assert bound.imbalance <= after.objective.imbalance
    assert bound.damaged <= after.objective.damaged


@settings(max_examples=150, deadline=None)
@given(_bound_cases())
def test_constructed_plan_meeting_the_bound_is_optimal(case):
    # run() returns such a plan without phase two, which would reach its
    # total to the bit, unless a gamma-weighted station weight sits below
    # HiGHS's 1e-7 dual tolerance and the LP leaves a residual there: in
    # 6000 draws of this strategy, 61 of the 5667 cases that met the bound
    # did, each with such a weight of 6e-8 or less
    inst, weights, seed = case
    built = construct_solution(inst, ConstructionParams(), np.random.default_rng(seed), weights)
    if built.objective.total > loading_bound(inst, built, weights).total:
        return
    after = reoptimize_solution(inst, built, weights)
    costs = [g * s.weight for s in inst.stations for g in (weights.gamma_d, weights.gamma_a)]
    if all(c == 0 or c >= 1e-6 for c in costs):
        assert after.objective.total == built.objective.total


def _check_walk_repeats_phase_one(inst, built):
    # _walk walks fixed routes with build_route's move rule inline; in build
    # order, from the whole depot stock and with no quota, it must move what
    # phase one moved at every visit and time each route as phase one timed
    # it, and its Solution keys the route times in fleet order, as phase
    # one's does, so the objective is the built one to the bit
    order = inst._lookup.build_order
    routes = [built.routes[j] for j in order]
    walked = _walk(inst, routes, ObjectiveWeights())
    for plan, j in zip(walked.plans, order, strict=True):
        assert plan == built.plans[j], plan.vehicle_id
    assert [(vid, t.hex()) for vid, t in walked.route_times.items()] == [
        (vid, t.hex()) for vid, t in built.route_times.items()
    ]
    assert list(walked.route_times) == [v.id for v in inst.fleet]
    assert walked.final_operative == built.final_operative
    assert walked.final_damaged == built.final_damaged
    assert [x.hex() for x in dataclasses.astuple(walked.objective)] == [
        x.hex() for x in dataclasses.astuple(built.objective)
    ]


@settings(max_examples=150, deadline=None)
@given(random_instances(), st.integers(0, 2**32 - 1))
def test_walk_without_quota_repeats_phase_one(inst, seed):
    built = construct_solution(inst, ConstructionParams(), np.random.default_rng(seed))
    _check_walk_repeats_phase_one(inst, built)


@pytest.mark.parametrize(
    "name, seeds",
    [("palma-28", range(1, 41)), ("wien-90", range(1, 11)), ("fleet-mixed", range(1, 41))],
)
def test_walk_without_quota_repeats_phase_one_on_the_workloads(name, seeds):
    inst = workloads()[name]
    for i in seeds:
        _check_walk_repeats_phase_one(
            inst, construct_solution(inst, ConstructionParams(), np.random.default_rng([5, i]))
        )


@st.composite
def _walk_cases(draw):
    """A random instance, a construction's routes, and a walk order of some
    of them: a subset in fleet order, or a reorder of them all."""
    inst = draw(random_instances())
    built = construct_solution(
        inst, ConstructionParams(), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    )
    routes = list(built.routes)
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=len(routes), max_size=len(routes)))
        return inst, [r for r, kept in zip(routes, keep) if kept]
    return inst, draw(st.permutations(routes))


@settings(max_examples=200, deadline=None)
@given(_walk_cases())
def test_walk_of_any_fixed_routes_is_feasible_and_replays_to_itself(case):
    # items to come trim, reorder and recombine built routes and walk them
    # again: any such walk must be feasible and read off what a replay gives,
    # the route times of the whole fleet in fleet order and the total included
    inst, routes = case
    weights = ObjectiveWeights()
    walked = _walk(inst, routes, weights)
    assert validate_solution(inst, walked.routes, walked.plans) == []
    replayed = solution_from_plans(inst, walked.routes, walked.plans, weights)
    for name in ("final_operative", "final_damaged"):
        got, want = getattr(walked, name), getattr(replayed, name)
        assert list(got.items()) == list(want.items()), name
    assert [(vid, t.hex()) for vid, t in walked.route_times.items()] == [
        (vid, t.hex()) for vid, t in replayed.route_times.items()
    ]
    assert walked.objective.total.hex() == replayed.objective.total.hex()


@st.composite
def _reload_cases(draw):
    """A bound case (random instance, zero station weights, gammas, seed),
    or fleet-mixed at an instance seed of 1-20 under unit weights."""
    if draw(st.booleans()):
        return draw(_bound_cases())
    seed = draw(st.integers(0, 2**32 - 1))
    return fleet_mixed(draw(st.integers(1, 20))), ObjectiveWeights(), seed


@settings(max_examples=200, deadline=None)
@given(_reload_cases())
def test_reload_is_feasible_and_optimal_where_it_meets_the_bound(case):
    # run() keeps a reload that meets the bound without phase two; phase two
    # would reach the same total to the bit, under the tolerance caveat of
    # test_constructed_plan_meeting_the_bound_is_optimal
    inst, weights, seed = case
    built = construct_solution(inst, ConstructionParams(), np.random.default_rng(seed), weights)
    reloaded = _reload(inst, built, weights)
    if reloaded is built:
        # no depot stock: nothing was walked
        assert not inst.depot.operative
        return
    assert validate_solution(inst, reloaded.routes, reloaded.plans) == []
    assert (reloaded.routes, reloaded.route_times) == (built.routes, built.route_times)
    # the reload reads its Solution off the walk's state; a replay of its
    # plans gives the same inventories and route times, in the same key order
    replayed = solution_from_plans(inst, reloaded.routes, reloaded.plans, weights)
    for name in ("final_operative", "final_damaged", "route_times"):
        got, want = getattr(reloaded, name), getattr(replayed, name)
        assert list(got.items()) == list(want.items()), name
    assert reloaded.objective.total.hex() == replayed.objective.total.hex()
    if reloaded.objective.total > loading_bound(inst, built, weights).total:
        return
    after = reoptimize_solution(inst, built, weights)
    costs = [g * s.weight for s in inst.stations for g in (weights.gamma_d, weights.gamma_a)]
    if all(c == 0 or c >= 1e-6 for c in costs):
        assert after.objective.total.hex() == reloaded.objective.total.hex()


def test_reload_walks_only_with_depot_stock_and_returns_the_quota_walk(monkeypatch):
    walks = []

    def recorded(instance, routes, weights, quota=None):
        walks.append((list(quota), walk(instance, routes, weights, quota)))
        return walks[-1][1]

    walk = construction._walk
    monkeypatch.setattr(construction, "_walk", recorded)
    inst = fleet_mixed(1)
    built = construct_solution(inst, ConstructionParams(), np.random.default_rng(1))
    # fleet-mixed is built out of fleet order; without stock nothing is
    # walked, and the built solution is the reload
    stockless = dataclasses.replace(inst, depot=dataclasses.replace(inst.depot, operative=0))
    assert _reload(stockless, built) is built
    assert walks == []
    reloaded = _reload(inst, built)
    # the first walk draws no stock under an all-zero quota; the second is
    # capped at the deficits that the first left
    (first_quota, first), (second_quota, second) = walks
    assert first_quota == [0] * len(inst.stations)
    assert second_quota == [max(s.target - first.final_operative[s.id], 0) for s in inst.stations]
    assert reloaded is second


def test_reload_meets_the_bound_on_palma_route_sets_that_need_phase_two():
    inst = workloads()["palma-28"]
    need = met = 0
    for i in range(1, 106):
        built = construct_solution(inst, ConstructionParams(), np.random.default_rng([5, i]))
        bound = loading_bound(inst, built).total
        if built.objective.total <= bound:
            continue
        need += 1
        reloaded = _reload(inst, built)
        if reloaded.objective.total <= bound:
            met += 1
            after = reoptimize_solution(inst, built)
            assert reloaded.objective.total.hex() == after.objective.total.hex(), i
    assert (need, met) == (35, 16)


@st.composite
def _short_supply_cases(draw):
    """Routes inside the oracle's guard rails whose visited deficits exceed the
    depot stock plus the visited surplus, and objective weights. Station
    weights are all integers or all from {0.1, 0.3}, so equal non-integer
    weights occur."""
    n = draw(st.integers(2, 4))
    weight = st.sampled_from([1.0, 2.0, 3.0] if draw(st.booleans()) else [0.1, 0.3])
    stations = []
    for sid in range(1, n + 1):
        d = draw(st.integers(-6, 2))
        q = draw(st.integers(max(0, -d), 6))
        p = q + d
        a = draw(st.integers(0, 2))
        cap = draw(st.integers(max(p + a, q), max(p + a, q) + 2))
        stations.append((sid, cap, p, a, q, draw(weight)))
    fleet = tuple((vid, draw(st.integers(1, 6))) for vid in range(1, draw(st.integers(1, 2)) + 1))
    routes = _short_routes(draw, fleet, n)
    stock = draw(st.integers(0, 3))
    visited = {node for route in routes for node in route.visits}
    imbalances = [p - q for sid, _, p, _, q, _ in stations if sid in visited]
    assume(-sum(d for d in imbalances if d < 0) > stock + sum(d for d in imbalances if d > 0))
    gammas = st.sampled_from([0.0, 0.5, 1.0, 10.0])
    weights = ObjectiveWeights(draw(gammas), draw(gammas), 1.0)
    depot_capacity = draw(st.none() | st.integers(stock, stock + 3))
    inst = make_instance(stations, fleet=fleet, stock=stock, depot_capacity=depot_capacity)
    return inst, routes, weights


def _oracle_solution(inst, routes, weights=ObjectiveWeights()):
    plans = brute_force_loading(inst, routes, weights).plans
    return solution_from_plans(inst, routes, plans, weights)


@settings(max_examples=200, deadline=None)
@given(_short_supply_cases())
def test_loading_bound_holds_when_supply_binds(case):
    inst, routes, weights = case
    optimum = _oracle_solution(inst, routes, weights)
    bound = loading_bound(inst, optimum, weights)
    assert bound.total <= optimum.objective.total
    assert bound.total <= reoptimize_solution(inst, optimum, weights).objective.total


def _short_supply(weights):
    """Surplus 2, deficits 3 and 2, depot stock 1: one route visits all three
    stations and can deliver 3 of the 5 bikes short."""
    w1, w2, w3 = weights
    stations = [(1, 10, 5, 0, 3, w1), (2, 10, 1, 0, 4, w2), (3, 10, 0, 0, 2, w3)]
    return make_instance(stations, fleet=((1, 6),), stock=1), [Route(1, (0, 1, 2, 3, 0))]


def test_loading_bound_meets_optimum_when_supply_binds():
    # the shortfall of 2 stays at station 2, the lighter deficit station,
    # where the optimal plan leaves it too
    inst, routes = _short_supply((1.0, 1.0, 2.0))
    optimum = _oracle_solution(inst, routes)
    bound = loading_bound(inst, optimum)
    assert optimum.final_operative == {1: 3, 2: 2, 3: 2}
    assert bound.imbalance == 2 / 9
    assert bound == optimum.objective == reoptimize_solution(inst, optimum).objective


def test_loading_bound_places_no_shortfall_unless_sums_are_exact(monkeypatch):
    # deficits 3 and 5 of weight 0.1 against a depot stock of 2: the optimum
    # leaves residuals 1 and 5, and 0.1 * 1 + 0.1 * 5 rounds to 0.6, but a
    # shortfall of 3 and 3 would give 0.1 * 3 + 0.1 * 3 = 0.6000000000000001
    inst = make_instance([(1, 5, 0, 0, 3, 0.1), (2, 7, 0, 0, 5, 0.1)], fleet=((1, 6),), stock=2)
    routes = [Route(1, (0, 1, 2, 0))]
    optimum = _oracle_solution(inst, routes)
    bound = loading_bound(inst, optimum)
    assert bound.imbalance == 0
    assert bound.total < optimum.objective.total
    monkeypatch.setitem(inst.__dict__, "_lookup", inst._lookup._replace(exact_sums=True))
    assert loading_bound(inst, optimum).total > optimum.objective.total
    monkeypatch.undo()
    # integer weights, but a weighted imbalance sum of 2**53
    inst, routes = _short_supply((1.0, 1.0, 2.0**52))
    assert loading_bound(inst, _oracle_solution(inst, routes)).imbalance == 0


def _sorting_bound(instance, solution, weights=ObjectiveWeights()):
    """``loading_bound`` as first written: ``min`` on every deficit visit, and a
    shortfall placed by sorting every station by weight on each call."""
    imbalance = {s.id: s.imbalance for s in instance.stations}
    visited, useful, matched = set(), set(), 0
    for route in solution.routes:
        visited.update(route.visits)
        pool, seen, waiting = 0, set(), []
        for node in route.visits:
            d = imbalance.get(node, 0)
            if d > 0:
                if node not in seen:
                    seen.add(node)
                    waiting.append(node)
                    pool += d
            elif d < 0:
                take = min(pool, -d)
                pool -= take
                matched += take
                useful.update(waiting)
                waiting.clear()
    visited.discard(DEPOT)
    supply = instance.depot.operative + min(matched, sum(imbalance[s] for s in useful))
    shortfall = -supply - sum(imbalance[n] for n in visited if imbalance[n] < 0)
    operative = {s.id: s.operative for s in instance.stations}
    damaged = {s.id: s.damaged for s in instance.stations}
    for sid in visited:
        operative[sid] = instance.station(sid).target
        damaged[sid] = 0
    if shortfall > 0 and instance._lookup.exact_sums:
        deficits = sorted(
            (s for s in instance.stations if s.id in visited and s.imbalance < 0),
            key=lambda s: s.weight,
        )
        for s in deficits:
            left = min(shortfall, -s.imbalance)
            operative[s.id] -= left
            shortfall -= left
            if not shortfall:
                break
    return evaluate_objective(instance, operative, damaged, solution.route_times, weights)


def _hex(breakdown):
    return [getattr(breakdown, f).hex() for f in ("imbalance", "damaged", "time", "total")]


@settings(max_examples=150, deadline=None)
@given(_bound_cases())
def test_loading_bound_matches_the_sorting_bound(case):
    inst, weights, seed = case
    built = construct_solution(inst, ConstructionParams(), np.random.default_rng(seed), weights)
    assert _hex(loading_bound(inst, built, weights)) == _hex(_sorting_bound(inst, built, weights))


@settings(max_examples=200, deadline=None)
@given(_short_supply_cases())
def test_loading_bound_matches_the_sorting_bound_when_supply_binds(case):
    inst, routes, weights = case
    idle = [LoadingPlan(r.vehicle_id, ((0, 0),) * len(r.visits)) for r in routes]
    built = solution_from_plans(inst, routes, idle, weights)
    assert _hex(loading_bound(inst, built, weights)) == _hex(_sorting_bound(inst, built, weights))


def test_loading_bound_splits_a_shortfall_in_station_order_among_equal_weights(monkeypatch):
    # deficits 1 (weight 1), then 2 and 3 (weight 2) at stations 5 and 3, which
    # come in that station order and the other visit order; stock 1 leaves a
    # shortfall of 5: 1 at station 4, 2 at station 5 and the last 2 at station 3
    stations = [(5, 10, 0, 0, 2, 2.0), (3, 10, 0, 0, 3, 2.0), (4, 10, 0, 0, 1, 1.0)]
    inst = make_instance(stations, fleet=((1, 6),), stock=1)
    routes = [Route(1, (0, 3, 4, 5, 0))]
    optimum = _oracle_solution(inst, routes)
    finals = []
    real = loading.evaluate_objective

    def spy(instance, operative, damaged, times, weights):
        finals.append({sid: operative[sid] for sid in (5, 3, 4)})
        return real(instance, operative, damaged, times, weights)

    monkeypatch.setattr(loading, "evaluate_objective", spy)
    bound = loading_bound(inst, optimum)
    assert finals == [{5: 0, 3: 1, 4: 0}]
    assert _hex(bound) == _hex(_sorting_bound(inst, optimum))
    assert bound.total <= optimum.objective.total


@st.composite
def _ordered_cases(draw):
    """Routes inside the oracle's guard rails whose visit order limits what
    pickups can deliver. Stations 1 and 2 have a surplus, 3 and 4 a deficit.
    Each route may revisit a deficit station with another deficit and a second
    pickup in between, meet a surplus after its last deficit, and stop at the
    depot mid-route; two routes share stations. Station weights are all
    integers or all from {0.1, 0.3}; the depot stock is small, so pickups
    decide the supply. No station holds damaged bikes, which keeps the oracle
    fast on long routes."""
    n = draw(st.integers(4, 5))
    weight = st.sampled_from([1.0, 2.0, 3.0] if draw(st.booleans()) else [0.1, 0.3])
    stations = []
    for sid in range(1, n + 1):
        sign = {1: (1, 6), 2: (1, 6), 3: (-6, -1), 4: (-6, -1)}.get(sid, (-6, 6))
        d = draw(st.integers(*sign))
        q = draw(st.integers(max(0, -d), 6 - max(0, d)))
        p = q + d
        cap = draw(st.integers(max(p, q), max(p, q) + 2))
        stations.append((sid, cap, p, 0, q, draw(weight)))
    surplus = [sid for sid, _, p, _, q, _ in stations if p > q]
    deficits = [sid for sid, _, p, _, q, _ in stations if p < q]
    fleet = tuple((vid, draw(st.integers(1, 6))) for vid in range(1, draw(st.integers(1, 2)) + 1))
    left = 12  # visits in all, the oracle's guard rail
    routes = []
    for vid, _ in fleet:
        nodes = draw(st.lists(st.integers(0, n), max_size=2))
        if draw(st.booleans()):
            x, y = draw(st.permutations(deficits))[:2]
            a, b = draw(st.permutations(surplus))[:2]
            nodes += [a, x, y, b, x]
        if draw(st.booleans()):
            nodes.append(draw(st.sampled_from(surplus)))
        if draw(st.booleans()):
            nodes.insert(draw(st.integers(0, len(nodes))), DEPOT)
        visits = [DEPOT]
        for node in nodes[: max(0, left - 2)]:
            if node != visits[-1]:
                visits.append(node)
        if visits[-1] != DEPOT:
            visits.append(DEPOT)
        routes.append(Route(vid, tuple(visits) if len(visits) > 1 else ()))
        left -= len(routes[-1].visits)
    stock = draw(st.integers(0, 2))
    gammas = st.sampled_from([0.0, 0.5, 1.0, 10.0])
    weights = ObjectiveWeights(draw(gammas), draw(gammas), 1.0)
    depot_capacity = draw(st.none() | st.integers(stock, stock + 3))
    inst = make_instance(stations, fleet=fleet, stock=stock, depot_capacity=depot_capacity)
    return inst, routes, weights


@settings(max_examples=500, deadline=None)
@given(_ordered_cases())
def test_loading_bound_holds_on_order_sensitive_routes(case):
    inst, routes, weights = case
    solution = _oracle_solution(inst, routes, weights)
    optimum = solution.objective
    bound = loading_bound(inst, solution, weights)
    assert bound.imbalance <= optimum.imbalance
    assert bound.damaged <= optimum.damaged
    assert bound.time == optimum.time
    assert bound.total <= optimum.total


# (stations, fleet, routes), depot stock 0: (id, capacity, operative, damaged, target)
_ORDERED_ROUTES = {
    # a(+4) X(-5) Y(-4) b(+5) X: each visit to X may take its whole deficit,
    # as a plan may pass X by, serve Y from a, then serve X from b; the
    # optimum serves everything
    "deficit-revisited": (
        [(1, 10, 4, 0, 0), (2, 10, 0, 0, 5), (3, 10, 0, 0, 4), (4, 10, 5, 0, 0)],
        ((1, 5),),
        [Route(1, (0, 1, 2, 3, 4, 2, 0))],
    ),
    # X(-5) a(+5): a's surplus comes after the route's only deficit, so X stays 5 short
    "surplus-after-deficit": (
        [(1, 10, 0, 0, 5), (2, 10, 5, 0, 0)], ((1, 5),), [Route(1, (0, 1, 2, 0))]
    ),
    # a(+2) X(-2) a Y(-2), and c(+5) Z(-1): a's surplus counts once on its
    # route however often it is met, and c's surplus of 5 is useful but its
    # route delivers only 1, so 2 stay short
    "surplus-revisited": (
        [(1, 10, 2, 0, 0), (2, 10, 0, 0, 2), (3, 10, 0, 0, 2), (4, 10, 5, 0, 0), (5, 10, 0, 0, 1)],
        ((1, 5), (2, 5)),
        [Route(1, (0, 1, 2, 1, 3, 0)), Route(2, (0, 4, 5, 0))],
    ),
    # a(+3) X(-3), and a Y(-3): both routes meet a before a deficit, but its
    # surplus of 3 counts once, so 3 stay short
    "surplus-shared": (
        [(1, 10, 3, 0, 0), (2, 10, 0, 0, 3), (3, 10, 0, 0, 3)],
        ((1, 3), (2, 3)),
        [Route(1, (0, 1, 2, 0)), Route(2, (0, 1, 3, 0))],
    ),
}


@pytest.mark.parametrize("name", sorted(_ORDERED_ROUTES))
def test_loading_bound_meets_the_optimum_on_order_sensitive_routes(name):
    stations, fleet, routes = _ORDERED_ROUTES[name]
    inst = make_instance(stations, fleet=fleet)
    optimum = _oracle_solution(inst, routes)
    assert loading_bound(inst, optimum) == optimum.objective


def test_full_depot_takes_no_bikes_in():
    # every bike removed from a station ends at the depot, which has room for 1
    inst = make_instance(
        [(1, 10, 2, 3, 2), (2, 10, 9, 0, 5)], fleet=((1, 4), (2, 3)), stock=5, depot_capacity=6
    )
    for seed in range(20):
        sol = construct_solution(inst, ConstructionParams(), np.random.default_rng(seed))
        assert validate_solution(inst, sol.routes, sol.plans) == [], seed
        after = reoptimize_solution(inst, sol)
        assert validate_solution(inst, after.routes, after.plans) == [], seed
        removed = sum(s.operative - after.final_operative[s.id] for s in inst.stations)
        removed += sum(s.damaged - after.final_damaged[s.id] for s in inst.stations)
        assert removed <= 1
    routes = [Route(1, (0, 1, 2, 0)), Route(2, (0, 2, 1, 0))]
    _check_case(inst, routes)


def test_reoptimize_keeps_total_when_gammas_differ():
    # with gamma_d = 10, trading a damaged bike for a bike of imbalance costs
    # the total; phase two once did it, from 3.4707 to 3.5169, on this case
    inst = generate_instance(GeneratorConfig(family=Family.PALMA, seed=1))
    weights = ObjectiveWeights(10, 1, 1)
    before = construct_solution(inst, ConstructionParams(), np.random.default_rng([38, 1]), weights)
    after = reoptimize_solution(inst, before, weights)
    assert before.objective.total == pytest.approx(3.4707, abs=1e-4)
    assert after.objective.total <= before.objective.total
    assert after.objective.imbalance <= before.objective.imbalance
    assert validate_solution(inst, after.routes, after.plans) == []


def test_solver_prefers_heavy_station_when_weighted():
    inst = make_instance(
        [(1, 10, 6, 0, 4, 5.0), (2, 10, 6, 0, 4, 1.0)],
        fleet=((1, 2),),
    )
    routes = [Route(1, (0, 1, 2, 0))]
    result = solve_exact(build_model(inst, routes))
    # both stations hold surplus 2 but the vehicle has room for only one
    # station's worth; the weight decides which residual survives
    assert result.plans[0].moves[1] == (2, 0)
    assert result.plans[0].moves[2] == (0, 0)
    assert result.objective_value == 5.0 * 0 + 1.0 * 2


def test_mid_route_depot_swap():
    # k=2 vehicle must shuttle: surplus 4 cannot all travel at once
    inst = make_instance([(1, 10, 9, 0, 5), (2, 10, 1, 0, 5)], fleet=((1, 2),))
    routes = [Route(1, (0, 1, 2, 0, 1, 2, 0))]
    result = solve_exact(build_model(inst, routes))
    assert result.objective_value == 0
    oracle = brute_force_loading(inst, routes)
    assert oracle.objective_value == 0


@pytest.mark.parametrize(
    "stations, visits, moves",
    [
        # surplus 3 and 2 damaged at station -1; capacity 4 takes 3 and 1
        (
            [(-1, 10, 8, 2, 5), (2, 10, 1, 0, 4)],
            (0, -1, 0, 2, 0),
            ((0, 0), (3, 1), (0, -1), (-3, 0), (0, 0)),
        ),
        # deficit 3 and 2 damaged at station -1, filled from station 2
        (
            [(2, 10, 8, 0, 5), (-1, 10, 1, 2, 4)],
            (0, 2, 0, -1, 0),
            ((0, 0), (3, 0), (0, 0), (-3, 2), (0, -2)),
        ),
    ],
    ids=["surplus", "deficit"],
)
def test_station_id_minus_one_is_not_an_allotment(stations, visits, moves):
    # the w0 columns carry node -1 too: only their kind tells them apart
    inst = make_instance(stations, fleet=((1, 4), (2, 3)))
    routes = [Route(2), Route(1, visits)]
    model = build_model(inst, routes)
    assert [col for col in model.columns if col[3] == -1] == [
        ("x", 1, visits.index(-1) + 1, -1),
        ("y", 1, visits.index(-1) + 1, -1),
        ("w0", 1, 0, -1),
    ]
    exact = solve_exact(model)
    oracle = brute_force_loading(inst, routes)
    assert exact == oracle
    assert exact.plans == (LoadingPlan(2), LoadingPlan(1, moves))
    assert validate_solution(inst, routes, exact.plans) == []


@settings(max_examples=150, deadline=None)
@given(_models())
def test_model_arrays_hold_no_negative_zero(case):
    inst, routes, weights = case
    assert negative_zeros(build_model(inst, routes, weights)) == {}
