import math
from dataclasses import astuple, dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_candidates, make_instance
from ssbrp import construction
from ssbrp.construction import (
    BuildState,
    ConstructionParams,
    build_route,
    construct_solution,
    feasible_successors,
    route_context,
    select_next,
)
from ssbrp.loading import reoptimize_solution
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
    empty_solution,
    solution_from_plans,
    validate_solution,
)


def test_params_validated():
    ConstructionParams(1.0, 0.1)
    with pytest.raises(ValueError):
        ConstructionParams(theta=0.0)
    with pytest.raises(ValueError):
        ConstructionParams(theta=1.2)
    for mu in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^mu must be positive and finite$"):
            ConstructionParams(mu=mu)


@dataclass
class _Walk:
    """A route's running values, which build_route keeps in locals: minutes
    elapsed, operative and damaged bikes on board, the fewest lockers free
    since the last depot visit, and that visit's index in the route."""

    elapsed: float = 0.0
    onboard_operative: int = 0
    onboard_damaged: int = 0
    min_free_lockers: int = 0
    last_depot_index: int = 0


def _scan(instance, state, u, vehicle, params, walk=None):
    """feasible_successors at node u, given the route context, the running
    values of ``walk`` (all 0 by default) and the depot's stock and room
    that ``state`` holds."""
    walk = walk or _Walk()
    return feasible_successors(
        route_context(instance, state, vehicle, params),
        u,
        walk.elapsed,
        walk.onboard_operative,
        walk.onboard_damaged,
        walk.min_free_lockers,
        state.depot_remaining,
        state.depot_room,
    )


def _moves(scan):
    """The scan's moves ``(node, beta, alpha)``, without their ratios."""
    return [move[:3] for move in scan]


def _move(station, capacity, stock, **running):
    """The move feasible_successors offers at the only station of a
    one-station instance, from the depot, with the ``_Walk`` fields given
    in ``running``; (0, 0) when it offers none."""
    inst = make_instance([station], fleet=((1, capacity),), stock=stock)
    s = inst.stations[0]
    # the station is live whatever its residuals, so the move rule decides
    state = BuildState([s.imbalance], [s.damaged], stock, [0])
    successors = _scan(inst, state, DEPOT, inst.fleet[0], ConstructionParams(), _Walk(**running))
    moves = [(beta, alpha) for v, beta, alpha, _ in successors if v == s.id]
    assert len(moves) == len(successors) <= 1
    return moves[0] if moves else (0, 0)


def test_feasible_successors_move_at_surplus():
    station = (1, 30, 14, 4, 4)
    assert _move(station, 20, 0, onboard_operative=3, onboard_damaged=2) == (10, 4)


def test_feasible_successors_move_at_deficit_with_retro_loading():
    station = (1, 30, 2, 2, 10)
    move = _move(station, 10, 5, onboard_operative=2, onboard_damaged=1, min_free_lockers=3)
    assert move == (5, 2)


def test_feasible_successors_move_at_balanced_without_damaged():
    assert _move((1, 30, 5, 0, 5), 10, 5, onboard_operative=2) == (0, 0)


def test_feasible_successors_move_at_deficit_damaged_capped_by_free_lockers():
    # retro-loaded delivery must not let damaged pickups overfill the vehicle
    station = (1, 30, 4, 10, 10)
    beta, alpha = _move(station, 10, 10, onboard_damaged=4, min_free_lockers=6)
    assert beta == 6
    assert alpha == 6  # never 10: the four damaged already on board keep their lockers


def test_feasible_successors_time_window():
    inst = make_instance(
        [(1, 10, 7, 0, 5)],
        time_budget=240.0,
        travel=np.array([[0.0, 30.0], [30.0, 0.0]]),
    )
    state = BuildState.fresh(inst)
    params = ConstructionParams()
    assert _moves(_scan(inst, state, DEPOT, inst.fleet[0], params, _Walk(elapsed=180.0))) == [
        (1, 2, 0)
    ]
    assert _scan(inst, state, DEPOT, inst.fleet[0], params, _Walk(elapsed=190.0)) == []


def test_feasible_successors_nothing_to_do():
    inst = make_instance([(1, 10, 5, 0, 5), (2, 10, 3, 0, 3)])
    state = BuildState.fresh(inst)
    assert _scan(inst, state, DEPOT, inst.fleet[0], ConstructionParams()) == []


def test_feasible_successors_depot_only_with_damaged_on_board():
    inst = make_instance([(1, 10, 5, 0, 5)])
    state = BuildState.fresh(inst)
    params = ConstructionParams()
    successors = _scan(inst, state, 1, inst.fleet[0], params, _Walk(onboard_damaged=2))
    assert _moves(successors) == [(DEPOT, 0, 0)]
    assert _scan(inst, state, 1, inst.fleet[0], params) == []


def test_feasible_successors_drops_immovable_stations():
    # surplus station but the vehicle is already full
    inst = make_instance([(1, 10, 8, 0, 2)], fleet=((1, 4),))
    state = BuildState.fresh(inst)
    full = _Walk(onboard_operative=4)
    assert _scan(inst, state, DEPOT, inst.fleet[0], ConstructionParams(), full) == []


def test_feasible_successors_score_examples():
    # station 1 moves (3, 1) in 4 minutes at weight 2, station 2 moves (4, 5) in 3
    inst = make_instance(
        [(1, 10, 7, 1, 4, 2.0), (2, 16, 9, 5, 5, 1.0)],
        travel=np.array([[0.0, 4.0, 3.0], [2.0, 0.0, 9.0], [9.0, 9.0, 0.0]]),
    )
    state = BuildState.fresh(inst)
    vehicle = inst.fleet[0]
    got = _scan(inst, state, DEPOT, vehicle, ConstructionParams(0.5, 1.5))
    assert got == [(1, 3, 1, 1.0), (2, 4, 5, 1.0)]
    got = _scan(inst, state, DEPOT, vehicle, ConstructionParams(1.0, 1.5))
    assert got == [(1, 3, 1, 2.0), (2, 4, 5, 3.0)]
    got = _scan(inst, state, 1, vehicle, ConstructionParams(0.5, 1.5), _Walk(onboard_damaged=4))
    assert got[-1] == (DEPOT, 0, 0, 3.0)


def test_feasible_successors_keep_station_order():
    inst = make_instance([(1, 10, 7, 0, 5), (2, 10, 9, 0, 3), (3, 10, 1, 0, 4)])
    # a hand-built state: its residuals are by station position
    state = BuildState([2, 6, -3], [0, 0, 0], 0, [0, 1, 2])
    got = _scan(inst, state, 1, inst.fleet[0], ConstructionParams(), _Walk(onboard_damaged=1))
    assert [v for v, *_ in got] == [2, DEPOT]
    loaded = _Walk(onboard_operative=3, onboard_damaged=1)
    got = _scan(inst, state, 1, inst.fleet[0], ConstructionParams(), loaded)
    assert [v for v, *_ in got] == [2, 3, DEPOT]


def test_feasible_successors_score_moves_beyond_the_table():
    # the n ** theta table stops at twice the capacity; a larger move, as a
    # hand-built state with a negative load can yield, uses the formula
    inst = make_instance(
        [(1, 30, 16, 7, 7)], fleet=((1, 2),),
        travel=np.array([[0.0, 4.0], [4.0, 0.0]]),
    )
    params = ConstructionParams(0.5, 1.5)
    state = BuildState.fresh(inst)
    got = _scan(inst, state, DEPOT, inst.fleet[0], params, _Walk(onboard_operative=-2))
    assert got == [(1, 4, 0, 0.5)]
    got = _scan(inst, state, DEPOT, inst.fleet[0], params, _Walk(onboard_operative=-14))
    assert got == [(1, 9, 7, 1.0)]


def test_feasible_successors_score_zero_travel_dominates():
    inst = make_instance(
        [(1, 10, 7, 0, 5)], travel=np.array([[0.0, 0.0], [0.0, 0.0]])
    )
    state = BuildState.fresh(inst)
    got = _scan(inst, state, DEPOT, inst.fleet[0], ConstructionParams())
    assert got == [(1, 2, 0, math.inf)]
    rng = np.random.default_rng(0)
    assert select_next(as_candidates({(1, 2, 0): math.inf, (2, 1, 0): 5.0}), rng) == (1, 2, 0)


def test_zero_weight_scores_zero_even_when_the_quotient_overflows():
    # 1 / 5e-324 overflows to inf, and inf * 0 would be nan
    tiny = 5e-324
    inst = make_instance(
        [(1, 10, 7, 0, 5, 0.0), (2, 10, 7, 0, 5, 1.0)],
        travel=np.array([[0.0, tiny, tiny], [tiny, 0.0, 1.0], [tiny, 1.0, 0.0]]),
    )
    state = BuildState.fresh(inst)
    params = ConstructionParams()
    got = _scan(inst, state, DEPOT, inst.fleet[0], params)
    assert got == [(1, 2, 0, 0.0), (2, 2, 0, math.inf)]
    for seed in range(10):
        sol = construct_solution(inst, params, np.random.default_rng(seed))
        assert validate_solution(inst, sol.routes, sol.plans) == []


def test_zero_travel_time_wins_over_zero_weight():
    # station 1 is 0 minutes away at weight 0: the zero time scores inf, the
    # zero weight does not make it 0; station 2, 1 minute away, scores 0
    inst = make_instance(
        [(1, 10, 7, 0, 5, 0.0), (2, 10, 7, 0, 5, 0.0), (3, 10, 7, 0, 5, 1.0)],
        travel=np.array(
            [[0.0, 0.0, 1.0, 4.0], [0.0, 0.0, 1.0, 4.0], [1.0, 1.0, 0.0, 4.0], [4.0, 4.0, 4.0, 0.0]]
        ),
    )
    state = BuildState.fresh(inst)
    got = _scan(inst, state, DEPOT, inst.fleet[0], ConstructionParams(1.0))
    assert got == [(1, 2, 0, math.inf), (2, 2, 0, 0.0), (3, 2, 0, 0.5)]
    assert select_next(got, np.random.default_rng(0)) == (1, 2, 0)


def test_select_next_singleton():
    rng = np.random.default_rng(0)
    assert select_next(as_candidates({7: 0.25}), rng) == (7, 0, 0)


def test_a_single_eligible_candidate_draws_nothing():
    # select_next draws integers(1) for a lone eligible candidate: it is 0 and
    # uses no bits, so the next random() is that of an untouched twin
    sources = {
        "Generator": lambda: np.random.default_rng(3),
        "_Draws": lambda: construction._Draws(np.random.PCG64(3)),
    }
    lone = [({"a": 10.0, "b": 1.0}, 0.5), ({"a": math.inf, "b": 1.0}, 0.0)]
    for name, make in sources.items():
        for ratios, epsilon in lone:
            rng, twin = make(), make()
            assert select_next(as_candidates(ratios), rng, epsilon=epsilon) == ("a", 0, 0)
            assert rng.random() == twin.random(), (name, ratios)


def test_select_next_respects_forced_epsilon():
    rng = np.random.default_rng(1)
    seen = set()
    three = as_candidates({"a": 10.0, "b": 6.0, "c": 2.0})
    for _ in range(200):
        seen.add(select_next(three, rng, epsilon=0.5)[0])
    assert seen == {"a", "b"}


def test_select_next_argmax_always_eligible():
    rng = np.random.default_rng(2)
    seen = set()
    two = as_candidates({"a": 10.0, "b": 1.0})
    for _ in range(400):
        seen.add(select_next(two, rng)[0])
    assert "a" in seen


_BOUNDS = (1, 2, 3, 17, 90, 2**31 + 7, 2**32 - 1)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    calls=st.lists(st.none() | st.sampled_from(_BOUNDS), max_size=150),
)
def test_draws_equal_the_generators(seed, calls):
    # None stands for random(), m for integers(m); 2**31 + 7 rejects about
    # half of its 32-bit values, and a long sequence fetches more than one block
    draws = construction._Draws(np.random.default_rng(seed).bit_generator)
    want = np.random.default_rng(seed)
    for m in calls:
        if m is None:
            assert draws.random() == want.random()
        else:
            assert draws.integers(m) == want.integers(m)


@pytest.mark.parametrize("offset", [-1, 0], ids=["rejected", "accepted"])
@pytest.mark.parametrize("m", [3, 17, 2**31 + 7, 2**32 - 1])
def test_draws_reject_at_lemires_threshold_as_the_generator_does(m, offset):
    # a kept half whose product with m leaves exactly threshold - 1 (rejected)
    # or threshold (accepted) in its low 32 bits, (2**32 - m) % m; random
    # halves reach either value about once in 2**32 draws
    low = (2**32 - m) % m + offset
    half = low * pow(m, -1, 2**32) % 2**32
    draws = construction._Draws(np.random.default_rng(5).bit_generator)
    draws._half = half
    want = np.random.default_rng(5)
    state = want.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, half
    want.bit_generator.state = state
    assert draws.integers(m) == want.integers(m)


def test_apply_visit_retro_loading():
    inst = make_instance([(1, 20, 2, 0, 10)], fleet=((1, 10),), stock=5)
    state = BuildState.fresh(inst)
    walk = _Walk(onboard_operative=2, min_free_lockers=8)
    visits = [DEPOT]
    moves = [(0, 0)]
    _apply_visit(inst, state, walk, inst.fleet[0], visits, moves, 1, 5, 0)
    assert moves[0] == (3, 0)  # the depot entry gained the retro pickup
    assert moves[1] == (-5, 0)
    assert state.depot_remaining == 2
    assert walk.onboard_operative == 0
    assert state.residual_imbalance == [-3]


def test_apply_visit_depot_unloads_damaged():
    inst = make_instance([(1, 20, 10, 4, 10)], fleet=((1, 10),))
    state = BuildState.fresh(inst)
    vehicle = inst.fleet[0]
    walk = _Walk(onboard_damaged=4)
    visits = [DEPOT, 1]
    moves = [(0, 0), (0, 4)]
    _apply_visit(inst, state, walk, vehicle, visits, moves, DEPOT, 0, 0)
    assert moves[-1] == (0, -4)
    assert walk.onboard_damaged == 0
    assert walk.last_depot_index == 2
    assert walk.min_free_lockers == vehicle.capacity


def test_apply_visit_surplus_updates_free_lockers():
    inst = make_instance([(1, 30, 20, 6, 4)], fleet=((1, 20),))
    state = BuildState.fresh(inst)
    walk = _Walk(onboard_operative=5, min_free_lockers=15)
    visits = [DEPOT]
    moves = [(0, 0)]
    _apply_visit(inst, state, walk, inst.fleet[0], visits, moves, 1, 10, 4)
    assert walk.onboard_operative + walk.onboard_damaged == 19
    assert walk.min_free_lockers == 1


_UNOFFERED_MOVES = pytest.mark.parametrize(
    "station, message",
    [
        # a pickup of 5 at a surplus station, onto a vehicle that holds 4
        ((1, 30, 20, 0, 4), r"vehicle 1 load outside \[0, 4\]"),
        # a delivery of 5 at a deficit station, drawn from an empty depot
        ((1, 30, 0, 0, 20), "depot stock or free lockers below zero"),
    ],
    ids=["overload", "overdraw"],
)


@_UNOFFERED_MOVES
def test_apply_visit_rejects_a_move_feasible_successors_would_not_offer(station, message):
    inst = make_instance([station], fleet=((1, 4),))
    state = BuildState.fresh(inst)
    vehicle = inst.fleet[0]
    walk = _Walk(min_free_lockers=vehicle.capacity)
    with pytest.raises(ValueError, match=message):
        _apply_visit(inst, state, walk, vehicle, [DEPOT], [(0, 0)], 1, 5, 0)


@_UNOFFERED_MOVES
def test_build_route_rejects_a_move_feasible_successors_would_not_offer(
    station, message, monkeypatch
):
    # build_route applies each move itself, with the reference rule's checks
    inst = make_instance([station], fleet=((1, 4),))
    monkeypatch.setattr(
        construction, "feasible_successors", lambda *args: as_candidates({(1, 5, 0): 1.0})
    )
    with pytest.raises(ValueError, match=message):
        build_route(
            inst, BuildState.fresh(inst), inst.fleet[0], ConstructionParams(),
            np.random.default_rng(0),
        )


def test_build_route_nothing_to_do():
    inst = make_instance([(1, 10, 5, 0, 5)])
    state = BuildState.fresh(inst)
    rng = np.random.default_rng(0)
    route, plan = build_route(inst, state, inst.fleet[0], ConstructionParams(), rng)
    assert route.visits == ()
    assert plan.moves == ()


def test_build_route_balances_matched_pair():
    inst = make_instance([(1, 10, 7, 0, 5), (2, 10, 3, 0, 5)], fleet=((1, 5),))
    state = BuildState.fresh(inst)
    rng = np.random.default_rng(0)
    route, plan = build_route(inst, state, inst.fleet[0], ConstructionParams(), rng)
    assert set(route.visits) == {0, 1, 2}
    assert state.residual_imbalance == [0, 0]
    assert validate_solution(inst, [route], [plan]) == []


def test_build_route_deficit_only_uses_retro_loading():
    inst = make_instance([(1, 10, 2, 0, 8)], fleet=((1, 10),), stock=6)
    state = BuildState.fresh(inst)
    rng = np.random.default_rng(0)
    route, plan = build_route(inst, state, inst.fleet[0], ConstructionParams(), rng)
    assert route.visits == (0, 1, 0)
    assert plan.moves[0] == (6, 0)
    assert plan.moves[1] == (-6, 0)
    assert state.depot_remaining == 0
    assert validate_solution(inst, [route], [plan]) == []


def test_construct_solution_zero_vehicles():
    inst = make_instance([(1, 10, 7, 1, 5)], fleet=())
    rng = np.random.default_rng(0)
    sol = construct_solution(inst, ConstructionParams(), rng)
    assert sol.is_empty
    assert sol.objective == empty_solution(inst, ObjectiveWeights()).objective


def test_construct_solution_rejects_a_vehicle_id_listed_twice():
    inst = make_instance([(1, 12, 9, 1, 4), (2, 12, 2, 2, 8)], fleet=((1, 3), (1, 3)), stock=4)
    with pytest.raises(ValueError, match="duplicate vehicle id"):
        construct_solution(inst, ConstructionParams(), np.random.default_rng(1))


def test_construct_solution_rejects_an_invalid_instance_with_check_instances_message():
    travel = np.full((3, 3), 10.0)
    np.fill_diagonal(travel, 0.0)
    travel[2, 1] = -1.0
    inst = make_instance([(1, 12, 9, 1, 4), (2, 12, 2, 2, 8)], travel=travel)
    with pytest.raises(ValueError, match=r"^travel_min\[2\]\[1\]: must be finite and nonnegative$"):
        construct_solution(inst, ConstructionParams(), np.random.default_rng(1))


def test_construct_solution_deterministic_under_seed():
    inst = make_instance(
        [(1, 12, 9, 1, 4), (2, 12, 2, 2, 8), (3, 12, 6, 0, 6), (4, 12, 1, 1, 5)],
        fleet=((1, 8), (2, 6)),
        stock=4,
    )
    a = construct_solution(inst, ConstructionParams(), np.random.default_rng(99))
    b = construct_solution(inst, ConstructionParams(), np.random.default_rng(99))
    assert a == b


def test_construction_calls_the_scan_and_the_draw_by_module_name(monkeypatch):
    # the benchmark's tracer swaps both functions in the module namespace and
    # counts each step's candidates by len() of the scan's result
    inst = make_instance(
        [(1, 12, 9, 1, 4), (2, 12, 2, 2, 8), (3, 12, 6, 0, 6), (4, 12, 1, 1, 5)],
        fleet=((1, 8), (2, 6)),
        stock=4,
    )
    want = construct_solution(inst, ConstructionParams(), np.random.default_rng(7))
    scans, draws = [], []

    def counting_scan(*args, **kwargs):
        result = scan(*args, **kwargs)
        scans.append((len(result), len(list(result))))
        return result

    def counting_draw(*args, **kwargs):
        draws.append(args[0])
        return draw(*args, **kwargs)

    scan, draw = construction.feasible_successors, construction.select_next
    monkeypatch.setattr(construction, "feasible_successors", counting_scan)
    monkeypatch.setattr(construction, "select_next", counting_draw)
    got = construct_solution(inst, ConstructionParams(), np.random.default_rng(7))
    assert got == want
    assert draws and all(n == keys for n, keys in scans)
    assert len(draws) == sum(1 for n, _ in scans if n)


def test_construct_solution_balances_symmetric_toy():
    inst = make_instance(
        [(1, 12, 9, 0, 5), (2, 12, 8, 0, 4), (3, 12, 1, 0, 5), (4, 12, 2, 0, 6)],
        fleet=((1, 10),),
        time_budget=10_000.0,
    )
    sol = construct_solution(inst, ConstructionParams(), np.random.default_rng(3))
    assert sol.objective.imbalance == 0.0


def test_ratio_monotone_in_moved_bikes():
    inst = make_instance([(1, 10, 9, 0, 1)], fleet=((1, 8),), travel=4.0)
    state = BuildState.fresh(inst)
    params = ConstructionParams(0.5, 1.5)
    values = []
    for beta in (1, 2, 5, 8):
        # free lockers cap the pickup at beta
        got = _scan(inst, state, DEPOT, inst.fleet[0], params, _Walk(onboard_operative=8 - beta))
        assert _moves(got) == [(1, beta, 0)]
        values.append(got[0][3])
    assert values == sorted(values)


def test_constructed_solutions_always_validate():
    rng = np.random.default_rng(2024)
    for trial in range(150):
        n = int(rng.integers(2, 7))
        stations = []
        for sid in range(1, n + 1):
            cap = int(rng.integers(4, 12))
            p = int(rng.integers(0, cap + 1))
            a = int(rng.integers(0, cap - p + 1))
            q = int(rng.integers(0, cap + 1))
            stations.append((sid, cap, p, a, q))
        fleet = tuple((i + 1, int(rng.integers(2, 9))) for i in range(int(rng.integers(1, 4))))
        m = rng.integers(1, 15, size=(n + 1, n + 1)).astype(float)
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0)
        inst = make_instance(
            stations,
            fleet=fleet,
            stock=int(rng.integers(0, 8)),
            time_budget=float(rng.integers(30, 200)),
            travel=m,
        )
        sol = construct_solution(inst, ConstructionParams(), np.random.default_rng(trial))
        violations = validate_solution(inst, sol.routes, sol.plans)
        assert violations == [], (trial, violations)


# --- build order: the largest vehicle first ------------------------------------

def _largest_first(fleet):
    """The build order, sorted here without ``Instance._lookup``: descending
    capacity, ties in fleet order."""
    return sorted(fleet, key=lambda vehicle: -vehicle.capacity)


def test_build_order_is_descending_capacity_with_ties_in_fleet_order():
    mixed = make_instance([(1, 10, 7, 1, 5)], fleet=((4, 5), (8, 9), (2, 5), (6, 9), (1, 7)))
    assert mixed._lookup.build_order == [1, 3, 4, 0, 2]
    same = make_instance([(1, 10, 7, 1, 5)], fleet=((3, 6), (1, 6), (2, 6)))
    assert same._lookup.build_order == [0, 1, 2]


@st.composite
def _mixed_fleet_cases(draw):
    """A small instance with a mixed fleet of 2-5 vehicles (ids in any order),
    a finite depot capacity and fractional travel minutes, and a seed."""
    ids = draw(st.lists(st.integers(1, 40), min_size=2, max_size=8, unique=True))
    n = len(ids) + 1
    minutes = st.floats(0.05, 25.0, allow_nan=False, allow_infinity=False)
    matrix = np.array([[0.0 if a == b else draw(minutes) for b in range(n)] for a in range(n)])
    stations = []
    for sid in ids:
        capacity = draw(st.integers(1, 30))
        operative = draw(st.integers(0, capacity))
        damaged = draw(st.integers(0, capacity - operative))
        target = draw(st.integers(0, capacity))
        weight = draw(st.sampled_from([0.5, 1.0, 2.25]))
        stations.append(Station(sid, capacity, operative, damaged, target, weight))
    capacities = draw(
        st.lists(st.integers(1, 6), min_size=2, max_size=5).filter(lambda ks: len(set(ks)) > 1)
    )
    vehicle_ids = draw(
        st.lists(st.integers(1, 99), min_size=len(capacities), max_size=len(capacities), unique=True)
    )
    stock = draw(st.integers(0, 15))
    instance = Instance(
        stations=tuple(stations),
        depot=Depot(stock, draw(st.integers(stock, stock + 15))),
        travel=TravelMatrix(matrix),
        fleet=tuple(Vehicle(vid, k) for vid, k in zip(vehicle_ids, capacities)),
        time_budget=draw(st.floats(10.0, 80.0)),
    )
    return instance, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(_mixed_fleet_cases())
def test_a_mixed_fleet_is_built_largest_first_and_replays_in_fleet_order(case):
    instance, seed = case
    weights = ObjectiveWeights()
    built = []

    def recording(instance, state, vehicle, params, rng):
        built.append(vehicle)
        return build_route(instance, state, vehicle, params, rng)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(construction, "build_route", recording)
        got = construct_solution(instance, ConstructionParams(), np.random.default_rng(seed), weights)
    assert built[0].capacity == max(v.capacity for v in instance.fleet)
    assert built == _largest_first(instance.fleet)
    fleet_ids = [v.id for v in instance.fleet]
    assert [r.vehicle_id for r in got.routes] == [p.vehicle_id for p in got.plans] == fleet_ids
    assert list(got.route_times) == fleet_ids
    # the replay runs the routes in fleet order and adds the route times in it
    replayed = solution_from_plans(instance, got.routes, got.plans, weights)
    assert got.route_times == replayed.route_times
    assert [x.hex() for x in astuple(got.objective)] == [x.hex() for x in astuple(replayed.objective)]
    assert validate_solution(instance, got.routes, got.plans) == []
    reoptimized = reoptimize_solution(instance, got, weights)
    assert validate_solution(instance, reoptimized.routes, reoptimized.plans) == []


# --- reference equivalence: phase one against the per-station loop -------------

def _reference_max_movable(state, walk, i, vehicle):
    """Reference for feasible_successors' move at the station at position i:
    the same formula written with min()/max()."""
    k = vehicle.capacity
    free = k - walk.onboard_operative - walk.onboard_damaged
    d = state.residual_imbalance[i]
    avail_damaged = state.residual_damaged[i]
    if d < 0:
        beta = min(walk.onboard_operative + min(state.depot_remaining, walk.min_free_lockers), -d)
        alpha = min(free + beta, k - walk.onboard_damaged, state.depot_room + beta, avail_damaged)
    else:
        beta = max(0, min(free, state.depot_room, d))
        alpha = min(free - beta, state.depot_room - beta, avail_damaged)
    return beta, alpha


def _reference_time(instance, u, v):
    """Minutes from u to v, read off the matrix at the nodes' positions in
    ``Instance.nodes``, not through ``Instance._lookup``."""
    nodes = instance.nodes
    return float(instance.travel.minutes[nodes.index(u), nodes.index(v)])


def _reference_successors(instance, state, walk, u, vehicle):
    """Reference for feasible_successors: one matrix read per travel time."""
    budget = instance.time_budget
    elapsed = walk.elapsed
    out = {}
    for i, s in enumerate(instance.stations):
        v = s.id
        if v == u:
            continue
        if state.residual_imbalance[i] == 0 and state.residual_damaged[i] <= 0:
            continue
        if elapsed + _reference_time(instance, u, v) + _reference_time(instance, v, DEPOT) > budget:
            continue
        beta, alpha = _reference_max_movable(state, walk, i, vehicle)
        if beta + alpha > 0:
            out[v] = (beta, alpha)
    if u != DEPOT and walk.onboard_damaged > 0:
        if elapsed + _reference_time(instance, u, DEPOT) <= budget:
            out[DEPOT] = (0, 0)
    return out


def _reference_ratio(instance, walk, params, u, v, beta, alpha):
    t = _reference_time(instance, u, v)
    if v == DEPOT:
        return math.inf if t == 0 else params.mu * walk.onboard_damaged / t
    if t == 0:
        return math.inf
    w = instance.station(v).weight
    return (beta + alpha) ** params.theta / t * w if w > 0 else 0.0


@st.composite
def _phase_one_cases(draw):
    """A small instance, a build state, a route's running values and a
    current node."""
    ids = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True))
    n = len(ids) + 1
    minutes = st.sampled_from([0.0, 0.5, 1.0, 2.75, 7.0, 12.5, 30.0, 61.1])
    matrix = np.array([[0.0 if a == b else draw(minutes) for b in range(n)] for a in range(n)])
    weights = st.sampled_from([0.0, 0.5, 1.0, 1.75, 3.0])
    stations = tuple(Station(sid, 30, 0, 0, 0, draw(weights)) for sid in ids)
    instance = Instance(
        stations=stations,
        depot=Depot(0),
        travel=TravelMatrix(matrix),
        fleet=(),
        time_budget=draw(st.sampled_from([5.0, 20.0, 45.5, 120.0])),
    )
    # a state built by hand: every station is live, finished or not
    state = BuildState(
        residual_imbalance=[draw(st.integers(-10, 10)) for _ in ids],
        residual_damaged=[draw(st.integers(-1, 6)) for _ in ids],
        depot_remaining=draw(st.integers(0, 10)),
        live=list(range(len(ids))),
        depot_room=draw(st.just(math.inf) | st.integers(0, 15)),
    )
    walk = _Walk(
        elapsed=draw(st.sampled_from([0.0, 3.5, 10.0, 25.25])),
        # a negative load, which only a hand-built walk holds, moves more
        # than the n ** theta table covers
        onboard_operative=draw(st.integers(-14, 12)),
        onboard_damaged=draw(st.integers(0, 12)),
        min_free_lockers=draw(st.integers(0, 12)),
    )
    vehicle = Vehicle(1, draw(st.integers(1, 20)))
    params = ConstructionParams(
        theta=draw(st.sampled_from([0.25, 0.5, 1.0])), mu=draw(st.sampled_from([0.5, 1.5, 4.0]))
    )
    u = draw(st.sampled_from(instance.nodes))
    return instance, state, walk, vehicle, params, u


@settings(max_examples=300, deadline=None)
@given(_phase_one_cases())
def test_phase_one_matches_reference_loop(case):
    instance, state, walk, vehicle, params, u = case
    got = _scan(instance, state, u, vehicle, params, walk)
    successors = _reference_successors(instance, state, walk, u, vehicle)
    want = [(v, beta, alpha) for v, (beta, alpha) in successors.items()]
    assert _moves(got) == want  # the same moves in the same order
    assert [r.hex() for *_, r in got] == [
        _reference_ratio(instance, walk, params, u, *move).hex() for move in want
    ]


def test_phase_one_rejects_unknown_nodes():
    inst = make_instance([(1, 10, 7, 0, 5)])
    state = BuildState.fresh(inst)
    vehicle = Vehicle(1, 20)
    with pytest.raises(KeyError, match="9"):
        _scan(inst, state, 9, vehicle, ConstructionParams())


# --- reference equivalence: the whole construction -----------------------------

def _apply_visit(instance, state, walk, vehicle, visits, moves, v_star, beta, alpha):
    """Reference for build_route's visit rule: commit one visit, extending
    route and plan and updating ``walk`` and the state's residuals, stock
    and room at once.

    A move that overloads the vehicle or overdraws the depot stock or the free
    lockers raises ValueError, with the state already updated."""
    k = vehicle.capacity
    walk.elapsed += _reference_time(instance, visits[-1], v_star)
    if v_star == DEPOT:
        visits.append(DEPOT)
        moves.append((0, -walk.onboard_damaged))
        walk.onboard_damaged = 0
        walk.last_depot_index = len(visits) - 1
        walk.min_free_lockers = k - walk.onboard_operative
        return
    # the station's position, found without Instance._lookup
    i = [s.id for s in instance.stations].index(v_star)
    if state.residual_imbalance[i] < 0:
        retro = max(0, beta - walk.onboard_operative)
        if retro:
            # claim the extra bikes at the most recent depot visit
            dx, dy = moves[walk.last_depot_index]
            moves[walk.last_depot_index] = (dx + retro, dy)
            state.depot_remaining -= retro
            walk.min_free_lockers -= retro
            walk.onboard_operative += retro
        walk.onboard_operative -= beta
        state.residual_imbalance[i] += beta
        delta_op = -beta
    else:
        walk.onboard_operative += beta
        state.residual_imbalance[i] -= beta
        delta_op = beta
    walk.onboard_damaged += alpha
    state.residual_damaged[i] -= alpha
    state.depot_room -= delta_op + alpha
    if state.residual_imbalance[i] == 0 and state.residual_damaged[i] <= 0:
        state.live.remove(i)
    visits.append(v_star)
    moves.append((delta_op, alpha))
    walk.min_free_lockers = min(
        walk.min_free_lockers, k - walk.onboard_operative - walk.onboard_damaged
    )
    if not 0 <= walk.onboard_operative + walk.onboard_damaged <= k:
        raise ValueError(f"visit to {v_star}: vehicle {vehicle.id} load outside [0, {k}]")
    if state.depot_remaining < 0 or walk.min_free_lockers < 0:
        raise ValueError(f"visit to {v_star}: depot stock or free lockers below zero")


def _reference_construction(instance, params, rng, state):
    """construct_solution without the live list: every station is scanned at
    every step, each candidate's ratio is one call, and each visit is
    applied by ``_apply_visit``. The vehicles are built largest first and
    replayed in fleet order."""
    routes, plans = [], []
    for vehicle in _largest_first(instance.fleet):
        walk = _Walk(min_free_lockers=vehicle.capacity)
        visits, moves = [DEPOT], [(0, 0)]
        while True:
            u = visits[-1]
            candidates = _reference_successors(instance, state, walk, u, vehicle)
            if not candidates:
                break
            ratios = {
                (v, beta, alpha): _reference_ratio(instance, walk, params, u, v, beta, alpha)
                for v, (beta, alpha) in candidates.items()
            }
            move = select_next(as_candidates(ratios), rng)
            _apply_visit(instance, state, walk, vehicle, visits, moves, *move)
        if len(visits) == 1:
            routes.append(Route(vehicle.id))
            plans.append(LoadingPlan(vehicle.id))
            continue
        if visits[-1] == DEPOT:
            dx, dy = moves[-1]
            moves[-1] = (dx - walk.onboard_operative, dy - walk.onboard_damaged)
        else:
            visits.append(DEPOT)
            moves.append((-walk.onboard_operative, -walk.onboard_damaged))
        routes.append(Route(vehicle.id, tuple(visits)))
        plans.append(LoadingPlan(vehicle.id, tuple(moves)))
    order = [v.id for v in instance.fleet]
    routes.sort(key=lambda route: order.index(route.vehicle_id))
    plans.sort(key=lambda plan: order.index(plan.vehicle_id))
    return solution_from_plans(instance, routes, plans, ObjectiveWeights())


def _hand_built_state(instance):
    """A fresh state built by hand, with every station live, finished or not."""
    depot = instance.depot
    return BuildState(
        residual_imbalance=[s.imbalance for s in instance.stations],
        residual_damaged=[s.damaged for s in instance.stations],
        depot_remaining=depot.operative,
        live=list(range(len(instance.stations))),
        depot_room=math.inf if depot.capacity is None else depot.capacity - depot.operative,
    )


def _live(state):
    return [
        i
        for i, (d, a) in enumerate(zip(state.residual_imbalance, state.residual_damaged))
        if d != 0 or a > 0
    ]


def _philox(seed):
    """A Generator on another bit generator, which construct_solution draws
    from through the Generator's own methods."""
    return np.random.Generator(np.random.Philox(seed))


def _check_construction(instance, params, seed):
    for make_rng in (np.random.default_rng, _philox):
        got = construct_solution(instance, params, make_rng(seed))
        want_rng = make_rng(seed)
        want = _reference_construction(instance, params, want_rng, _hand_built_state(instance))
        # want replays the reference's routes and plans with model.solution_from_plans:
        # phase one's read-off must equal it whole, to the bit and in key order
        assert got == want
        for name in ("final_operative", "final_damaged", "route_times"):
            assert list(getattr(got, name).items()) == list(getattr(want, name).items())
        assert [x.hex() for x in astuple(got.objective)] == [x.hex() for x in astuple(want.objective)]
        # route by route: a fresh state's live list holds exactly the stations with
        # work left, and a hand-built state (listing every station) builds the same
        fresh = BuildState.fresh(instance)
        for state in (fresh, _hand_built_state(instance)):
            route_rng = make_rng(seed)
            built = dict(zip(instance.fleet, zip(got.routes, got.plans)))
            for vehicle in _largest_first(instance.fleet):
                assert build_route(instance, state, vehicle, params, route_rng) == built[vehicle]
                if state is fresh:
                    assert state.live == _live(state)
        assert validate_solution(instance, got.routes, got.plans) == []


@st.composite
def _construction_cases(draw):
    """A small instance (mixed fleet, depot stock and capacity, zero travel
    times, damaged bikes, station ids in any order), construction params
    and a seed."""
    ids = draw(st.lists(st.integers(1, 40), min_size=1, max_size=7, unique=True))
    n = len(ids) + 1
    minutes = st.sampled_from([0.0, 0.5, 1.0, 2.75, 7.0, 12.5, 30.0])
    matrix = np.array([[0.0 if a == b else draw(minutes) for b in range(n)] for a in range(n)])
    stations = []
    for sid in ids:
        capacity = draw(st.integers(1, 30))
        operative = draw(st.integers(0, capacity))
        damaged = draw(st.integers(0, capacity - operative))
        target = draw(st.integers(0, capacity))
        weight = draw(st.sampled_from([0.0, 0.5, 1.0, 1.75, 3.0]))
        stations.append(Station(sid, capacity, operative, damaged, target, weight))
    capacities = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    stock = draw(st.integers(0, 12))
    instance = Instance(
        stations=tuple(stations),
        depot=Depot(stock, draw(st.none() | st.integers(stock, stock + 8))),
        travel=TravelMatrix(matrix),
        fleet=tuple(Vehicle(i, k) for i, k in enumerate(capacities, start=1)),
        time_budget=draw(st.sampled_from([5.0, 20.0, 45.5, 120.0, 1000.0])),
    )
    params = ConstructionParams(
        theta=draw(st.sampled_from([0.25, 0.5, 1.0])), mu=draw(st.sampled_from([0.5, 1.5, 4.0]))
    )
    return instance, params, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(_construction_cases())
def test_construction_matches_reference_construction(case):
    _check_construction(*case)


def test_construction_moves_twice_the_capacity():
    # a full retro-loaded delivery frees all k lockers for damaged pickups,
    # so one visit moves 2k bikes: the top of build_route's ratio table
    inst = make_instance([(1, 20, 2, 6, 10), (2, 20, 9, 0, 5)], fleet=((1, 3), (2, 2)), stock=5)
    state = BuildState.fresh(inst)
    start = _Walk(min_free_lockers=inst.fleet[0].capacity)
    successors = _scan(inst, state, DEPOT, inst.fleet[0], ConstructionParams(), start)
    assert [move for move in _moves(successors) if move[0] == 1] == [(1, 3, 3)]
    for seed in range(20):
        _check_construction(inst, ConstructionParams(), seed)


def test_construction_with_zero_travel_times():
    # zero minutes give infinite ratios, to stations and to the depot
    inst = make_instance(
        [(1, 12, 9, 3, 4), (2, 12, 1, 2, 8), (3, 12, 6, 4, 6)],
        fleet=((1, 4), (2, 7)),
        stock=3,
        travel=0.0,
    )
    for seed in range(20):
        _check_construction(inst, ConstructionParams(), seed)
