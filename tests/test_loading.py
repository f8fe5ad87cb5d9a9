import dataclasses
import math
import re
import types

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, random_instances, reweighted
from ssbrp import loading
from ssbrp.construction import ConstructionParams, construct_solution
from ssbrp.instances import Family, GeneratorConfig, generate_instance
from ssbrp.loading import (
    LoadingModel,
    brute_force_loading,
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
    apply_solution,
    empty_solution,
    solution_from_plans,
    validate_solution,
)


def _plans(routes, result):
    return [LoadingPlan(r.vehicle_id, result.moves[r.vehicle_id]) for r in routes]


def _residual_cost(instance, routes, result, weights=ObjectiveWeights()):
    """Re-derive the objective from the moves alone, bypassing the solver."""
    state = apply_solution(instance, routes, _plans(routes, result))
    total = 0.0
    for s in instance.stations:
        total += s.weight * (
            weights.gamma_d * abs(s.target - state.operative[s.id])
            + weights.gamma_a * state.damaged[s.id]
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
    assert _bounds(model) == [f"{lo} <= {name} <= {hi}" for name, *_, lo, hi in expected]
    if model.n_vars == 0:
        return
    # the matrix HiGHS receives is the stacked dense rows, compressed by column
    passed = []

    class Recorder(loading.highs._Highs):
        def passModel(self, *args):
            passed.append(args)
            return super().passModel(*args)

    core = types.SimpleNamespace(**vars(loading.highs))
    core._Highs = Recorder
    saved = loading.highs
    loading.highs = core
    try:
        loading._relaxation(model, model.lower, model.upper)
    finally:
        loading.highs = saved
    (args,) = passed
    start, index, value = args[-4:-1]
    expected = scipy.sparse.csc_array(np.vstack((model.a_ub, model.a_eq)))
    assert args[:3] == (model.n_vars, len(model.b_ub) + len(model.b_eq), expected.nnz)
    assert start.dtype == index.dtype == np.int32
    assert np.array_equal(start, expected.indptr)
    assert np.array_equal(index, expected.indices)
    assert np.array_equal(value, expected.data)


def _bounds(model):
    """The lines of the `bounds` section of the model's text form."""
    lines = model.dump().splitlines()
    return lines[lines.index("bounds") + 1 :]


def _names(model):
    """The column names, in column order, as the text form gives them."""
    return [line.split(" <= ")[1] for line in _bounds(model)]


def test_check_assignment_checks_every_row():
    # surplus station 1, one vehicle: x at visit 2 is the pickup, w0 the allotment
    inst = make_instance([(1, 10, 7, 0, 5)], fleet=((1, 4),), stock=2)
    model = build_model(inst, [Route(1, (0, 1, 0))])
    names = _names(model)
    values = np.zeros(model.n_vars)
    loading._check_assignment(model, values)
    over_allotted = values.copy()  # the allotments exceed the depot stock
    over_allotted[names.index("w0[1]")] = 3
    assert np.count_nonzero(model.a_ub @ over_allotted > model.b_ub) == 1
    assert np.array_equal(model.a_eq @ over_allotted, model.b_eq)
    with pytest.raises(RuntimeError, match="inequality"):
        loading._check_assignment(model, over_allotted)
    kept_on_board = values.copy()  # a pickup that is never dropped
    kept_on_board[names.index("x[1,2]")] = 1
    assert np.all(model.a_ub @ kept_on_board <= model.b_ub)
    assert np.count_nonzero(model.a_eq @ kept_on_board != model.b_eq) == 1
    with pytest.raises(RuntimeError, match="equality"):
        loading._check_assignment(model, kept_on_board)


def _assignment(model, entries):
    """An assignment of the model's columns by name; the rest are 0."""
    names = _names(model)
    values = np.zeros(model.n_vars)
    for name, value in entries.items():
        values[names.index(name)] = value
    return values


def test_canonical_depot_moves_draw_minimal_stock():
    # deficit station 1: take 3 at the depot, deliver 2, return 1; the rewrite
    # takes only the 2 delivered, returns none and allots 2 of the stock of 3
    inst = make_instance([(1, 10, 3, 0, 5)], fleet=((1, 5),), stock=3)
    model = build_model(inst, [Route(1, (0, 1, 0))])
    given = _assignment(model, {"x[1,1]": 3, "x[1,2]": -2, "x[1,3]": -1, "w0[1]": 3})
    loading._check_assignment(model, given)
    want = _assignment(model, {"x[1,1]": 2, "x[1,2]": -2, "x[1,3]": 0, "w0[1]": 2})
    assert loading._canonical_depot_moves(model, given).tolist() == want.tolist()


@pytest.mark.parametrize(
    "stations, visits",
    [
        # the rewrite's last depot visit would drop 4 bikes, past its bound of 2
        ([(1, 10, 7, 0, 5), (2, 10, 7, 0, 5)], (0, 1, 0, 2, 0)),
        # within every bound, but it would carry 4 bikes from station 2 to 3
        ([(1, 10, 7, 0, 5), (2, 10, 7, 0, 5), (3, 10, 3, 0, 5)], (0, 1, 0, 2, 3, 0)),
    ],
    ids=["bound", "load-row"],
)
def test_canonical_depot_moves_kept_when_capacity_blocks_the_rewrite(stations, visits):
    # surplus stations 1 and 2, capacity 2: the vehicle drops its 2 bikes at the
    # mid-route depot visit, where the rewrite may only take
    inst = make_instance(stations, fleet=((1, 2),))
    model = build_model(inst, [Route(1, visits)])
    given = _assignment(model, {"x[1,2]": 2, "x[1,3]": -2, "x[1,4]": 2, "x[1,5]": -2})
    loading._check_assignment(model, given)
    got = loading._canonical_depot_moves(model, given)
    assert got.tolist() == given.tolist()  # the depot moves stay, w0 = 0


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
    picked = {r.vehicle_id: result.moves[r.vehicle_id][1][0] for r in routes}
    assert sum(picked.values()) == 4
    assert all(0 <= x <= 3 for x in picked.values())


@pytest.mark.parametrize("phase_two", [build_model, brute_force_loading])
@pytest.mark.parametrize(
    "routes, message",
    [
        ([Route(9, (0, 1, 0))], "vehicle 9: not in fleet"),
        ([Route(1, (0, 1, 0)), Route(1)], "vehicle 1: multiple routes assigned"),
        ([Route(1, (0, 8, 0))], "vehicle 1: unknown node 8"),
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
    # routes that validate_solution rejects; the accepted shapes are drawn by _models
    inst = make_instance([(1, 10, 7, 0, 5)])
    with pytest.raises(ValueError, match=re.escape(message)):
        phase_two(inst, routes)


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
    assert result.moves[1] == ((0, 0), (2, 0), (-2, 0), (0, 0))
    assert result.depot_allotment == {1: 0}


def test_solve_exact_draws_on_depot_stock():
    inst = make_instance([(1, 10, 3, 0, 5)], fleet=((1, 5),), stock=3)
    routes = [Route(1, (0, 1, 0))]
    result = solve_exact(build_model(inst, routes))
    assert result.objective_value == 0
    assert result.depot_allotment == {1: 2}
    assert result.moves[1] == ((2, 0), (-2, 0), (0, 0))


def test_solve_exact_without_stock_leaves_deficit():
    inst = make_instance([(1, 10, 3, 0, 5)], fleet=((1, 5),))
    result = solve_exact(build_model(inst, [Route(1, (0, 1, 0))]))
    assert result.objective_value == 2
    assert result.moves[1] == ((0, 0), (0, 0), (0, 0))
    assert result.depot_allotment == {1: 0}


def test_solve_exact_forces_damaged_room_at_full_deficit_station():
    # filling this station to its target only fits if damaged bikes leave too:
    # target 8 plus 3 damaged would overflow the 10 docks
    inst = make_instance([(1, 10, 2, 3, 8)], fleet=((1, 6),), stock=7)
    routes = [Route(1, (0, 1, 0))]
    result = solve_exact(build_model(inst, routes))
    assert result.objective_value == 0
    x, y = result.moves[1][1]
    assert x == -6
    assert y == 3
    assert validate_solution(inst, routes, _plans(routes, result)) == []
    oracle = brute_force_loading(inst, routes)
    assert oracle.objective_value == result.objective_value


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
    assert validate_solution(inst, routes, _plans(routes, exact)) == []


def _check_against_brute_force(seed, trials, weighted):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        _check_case(*_random_case(rng, weighted))


def test_solver_matches_brute_force():
    _check_against_brute_force(4242, 40, weighted=False)


def test_solver_matches_weighted_brute_force():
    # station weights 1-4
    _check_against_brute_force(777, 15, weighted=True)


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
    routes = []
    for vid, _ in fleet:
        visits = [DEPOT]
        for node in draw(st.lists(st.integers(0, n), max_size=4)):
            if node != visits[-1]:
                visits.append(node)
        if visits[-1] != DEPOT:
            visits.append(DEPOT)
        routes.append(Route(vid, tuple(visits) if len(visits) > 1 else ()))
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
# construction rng [seed, 1]), shrunk into the oracle's guard rails while
# the root stayed fractional: stations, fleet and routes; depot stock 0
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
    assert sum(result.depot_allotment.values()) <= 3
    assert all(w >= 0 for w in result.depot_allotment.values())
    for route in routes:
        for node, (x, y) in zip(route.visits, result.moves[route.vehicle_id]):
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
    # run() keeps such a plan without phase two until the loop ends. Phase
    # two then reaches its total to the bit, unless a gamma-weighted station
    # weight sits below HiGHS's 1e-7 dual tolerance and the LP leaves a
    # residual there: in 6000 draws of this strategy, 61 of the 5667 cases
    # that met the bound did, each with such a weight of 6e-8 or less
    inst, weights, seed = case
    built = construct_solution(inst, ConstructionParams(), np.random.default_rng(seed), weights)
    if built.objective.total > loading_bound(inst, built, weights).total:
        return
    after = reoptimize_solution(inst, built, weights)
    costs = [g * s.weight for s in inst.stations for g in (weights.gamma_d, weights.gamma_a)]
    if all(c == 0 or c >= 1e-6 for c in costs):
        assert after.objective.total == built.objective.total


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
    assert result.moves[1][1] == (2, 0)
    assert result.moves[1][2] == (0, 0)
    assert result.objective_value == 5.0 * 0 + 1.0 * 2


def test_mid_route_depot_swap():
    # k=2 vehicle must shuttle: surplus 4 cannot all travel at once
    inst = make_instance([(1, 10, 9, 0, 5), (2, 10, 1, 0, 5)], fleet=((1, 2),))
    routes = [Route(1, (0, 1, 2, 0, 1, 2, 0))]
    result = solve_exact(build_model(inst, routes))
    assert result.objective_value == 0
    oracle = brute_force_loading(inst, routes)
    assert oracle.objective_value == 0
