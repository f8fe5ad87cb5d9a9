import dataclasses
import math
from collections import Counter
from itertools import islice

import numpy as np
import pytest

from conftest import make_instance
from oracle import brute_force_loading
from quality import fleet_mixed
from ssbrp import search
from ssbrp.construction import ConstructionParams, _reload, construct_solution
from ssbrp.instances import Family, GeneratorConfig, generate_instance
from ssbrp.loading import loading_bound, reoptimize_solution
from ssbrp.model import (
    ObjectiveWeights,
    Route,
    solution_from_plans,
    validate_solution,
)
from ssbrp.search import RunConfig, run


def _toy(damaged=True):
    stations = [
        (1, 12, 9, 2 if damaged else 0, 5),
        (2, 12, 8, 0, 4),
        (3, 12, 1, 1 if damaged else 0, 5),
        (4, 12, 2, 0, 6),
    ]
    return make_instance(stations, fleet=((1, 6), (2, 4)), stock=3, time_budget=200.0)


def test_config_validation():
    RunConfig(max_iter=2)
    with pytest.raises(ValueError):
        RunConfig(max_iter=1)
    with pytest.raises(ValueError):
        RunConfig(parallelism=0)
    with pytest.raises(ValueError, match="^master_seed must be nonnegative, got -1$"):
        RunConfig(master_seed=-1)
    for cap in (0.0, math.nan):
        with pytest.raises(ValueError, match="wall_clock_cap must be positive"):
            RunConfig(wall_clock_cap=cap)


@pytest.mark.parametrize(
    "field, value",
    [("max_iter", 2.5), ("master_seed", 1.5), ("parallelism", True), ("max_iter", "3")],
)
def test_config_rejects_counts_that_are_not_integers(field, value):
    # unchecked, max_iter=2.5 ran as 3 and master_seed=1.5 failed inside run()
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        RunConfig(**{field: value})


def test_config_accepts_numpy_integer_counts():
    config = RunConfig(max_iter=np.int64(3), master_seed=np.int32(4), parallelism=np.int64(1))
    assert config == RunConfig(max_iter=3, master_seed=4)


def _tied():
    """One station in reach, whose surplus outruns the one vehicle: every
    iteration builds the route (0, 1, 0), its bound stays below its
    reoptimized total, and that total ties the incumbent's."""
    return make_instance(
        [(1, 20, 16, 4, 6), (2, 20, 2, 0, 10)], fleet=((1, 4),), time_budget=20.0
    )


def test_a_tie_does_not_replace_the_incumbent():
    # were a tie an improvement, every iteration would reset the counter and
    # only the wall clock cap would stop the run
    report = run(_tied(), RunConfig(max_iter=4, wall_clock_cap=5.0))
    assert (report.total_iterations, len(report.incumbent_trace)) == (4, 1)
    assert (report.loading_skipped, report.loading_certified) == (0, 0)


def test_elapsed_phases_fit_in_the_total():
    report = run(_tied(), RunConfig(max_iter=3))
    assert report.loading_skipped + report.loading_certified < report.total_iterations
    assert report.elapsed_construction >= 0
    assert report.elapsed_loading >= 0
    assert report.elapsed_construction + report.elapsed_loading <= report.elapsed_total


def test_each_iteration_is_built_once_and_replays_in_isolation(monkeypatch):
    # the run folds every construction it builds, and each equals phase one
    # drawn from a fresh generator seeded as the README says
    built = []

    def counted(instance, params, rng, weights):
        built.append(construct_solution(instance, params, rng, weights))
        return built[-1]

    monkeypatch.setattr(search, "construct_solution", counted)
    for inst in (fleet_mixed(1), generate_instance(GeneratorConfig(family=Family.PALMA, seed=1))):
        for master_seed in range(4):
            built.clear()
            report = run(inst, RunConfig(max_iter=3, master_seed=master_seed))
            assert len(built) == report.total_iterations, master_seed
            for i, solution in enumerate(built, start=1):
                rng = np.random.default_rng([master_seed, i])
                assert solution == construct_solution(inst, ConstructionParams(), rng), (master_seed, i)


def test_run_is_deterministic():
    inst = _toy()
    config = RunConfig(max_iter=15, master_seed=7)
    a = run(inst, config)
    b = run(inst, config)
    assert a.best_solution == b.best_solution
    assert a.iteration_of_best == b.iteration_of_best
    assert a.total_iterations == b.total_iterations
    assert a.incumbent_trace == b.incumbent_trace


def test_parallel_run_matches_sequential():
    inst = _toy()
    seq = run(inst, RunConfig(max_iter=25, master_seed=11, parallelism=1))
    par = run(inst, RunConfig(max_iter=25, master_seed=11, parallelism=4))
    assert par.best_solution == seq.best_solution
    assert par.iteration_of_best == seq.iteration_of_best
    assert par.total_iterations == seq.total_iterations
    assert par.incumbent_trace == seq.incumbent_trace


def test_report_shape_and_trace():
    inst = _toy()
    report = run(inst, RunConfig(max_iter=10, master_seed=3))
    assert report.best_objective == report.best_solution.objective
    trace = report.incumbent_trace
    assert trace[0][0] == 1
    totals = [t for _, t in trace]
    assert all(b < a for a, b in zip(totals, totals[1:]))
    assert report.iteration_of_best == trace[-1][0]
    assert report.iteration_of_best <= report.total_iterations
    assert report.best_objective.total == totals[-1]
    assert report.elapsed_total >= 0
    assert validate_solution(inst, report.best_solution.routes, report.best_solution.plans) == []


def test_run_clears_balanced_toy():
    report = run(_toy(), RunConfig(max_iter=10, master_seed=1))
    assert report.best_objective.imbalance == 0.0
    assert report.best_objective.damaged == 0.0
    assert report.best_objective.total > 0  # travel time is still spent


def test_wall_clock_cap_stops_early():
    report = run(_toy(), RunConfig(max_iter=500, wall_clock_cap=1e-9))
    assert report.total_iterations == 1
    assert report.iteration_of_best == 1


def test_infinite_wall_clock_cap_is_no_cap():
    capped = run(_toy(), RunConfig(max_iter=5, wall_clock_cap=math.inf))
    uncapped = run(_toy(), RunConfig(max_iter=5))
    assert capped.total_iterations == uncapped.total_iterations > 1
    assert capped.incumbent_trace == uncapped.incumbent_trace


def test_invalid_instance_rejected_before_iterating():
    bad = make_instance([(1, 4, 4, 3, 2)])  # 7 bikes parked in 4 docks
    for _ in range(2):  # a failed check is not remembered
        with pytest.raises(ValueError):
            run(bad, RunConfig(max_iter=2))


def _huge_weights(instance):
    """The instance with every station weight at 1e308: the objective's
    normalizer D overflows to inf, and inf / inf makes the imbalance term nan."""
    stations = tuple(dataclasses.replace(s, weight=1e308) for s in instance.stations)
    return dataclasses.replace(instance, stations=stations)


@pytest.mark.parametrize(
    "make, cause",
    [
        # do-nothing's total is a finite 1.7e308, a built plan's overflows
        (lambda inst: (inst, ObjectiveWeights(1.7e308, 1.7e308, 1.7e308)),
         r"imbalance 0\.\d+, .*total inf"),
        (lambda inst: (_huge_weights(inst), ObjectiveWeights()), r"imbalance nan, .*total nan"),
    ],
    ids=["gammas", "station-weights"],
)
def test_an_objective_that_is_not_finite_is_rejected(make, cause):
    # no total compares below inf or nan: the loop would keep no incumbent,
    # or hand phase two a model with nan coefficients
    instance, weights = make(generate_instance(GeneratorConfig()))
    with pytest.raises(ValueError, match=f"^objective is not finite: {cause}$"):
        run(instance, RunConfig(max_iter=3, weights=weights))


def test_zero_vehicle_instance_terminates():
    inst = make_instance([(1, 10, 7, 1, 5)], fleet=())
    report = run(inst, RunConfig(max_iter=5))
    assert report.best_solution.is_empty
    assert report.total_iterations == 5
    assert report.iteration_of_best == 1
    assert report.best_objective.time == 0.0
    assert report.best_objective.total == pytest.approx(1.0)


def test_flag_combinations_smoke():
    inst = make_instance(
        [(1, 12, 9, 2, 5, 3.0), (2, 12, 1, 1, 6, 1.0)],
        fleet=((1, 5),),
        stock=2,
        time_budget=100.0,
    )
    config = RunConfig(
        max_iter=6,
        master_seed=2,
        weights=ObjectiveWeights(2.0, 1.0, 0.5),
        construction=ConstructionParams(0.8, 2.0),
    )
    report = run(inst, config)
    best = report.best_solution
    assert validate_solution(inst, best.routes, best.plans) == []
    assert report.best_objective.total <= 2.0 + 1.0  # weighted do-nothing bound


def _always_reoptimized(instance, config):
    """The run loop without the bound: phase two on every iteration."""
    best = None
    best_iter = 0
    counter = 1
    trace = []
    for iteration, built, _ in search._iterations(instance, config):
        solution = reoptimize_solution(instance, built, config.weights)
        if best is None or solution.objective.total < best.objective.total - 1e-12:
            best, best_iter, counter = solution, iteration, 1
            trace.append((iteration, solution.objective.total))
        else:
            counter += 1
        if counter >= config.max_iter:
            return best, tuple(trace), best_iter, iteration


def _certified_best(instance, config, report):
    """The best iteration's constructed solution, the solution that met the
    bound there, and which one that is: the constructed one ("built"), else
    its reload ("reload"), else None (and None)."""
    iterations = search._iterations(instance, config)
    _, built, _ = next(islice(iterations, report.iteration_of_best - 1, None))
    bound = loading_bound(instance, built, config.weights).total
    solution = built
    if built.objective.total > bound:
        solution = _reload(instance, built, config.weights)
    if solution.objective.total > bound:
        return built, None, None
    return built, solution, "built" if solution is built else "reload"


def _check_against_always_reoptimized(instance, config, report):
    """The report's trace, iterations, routes and objective are those of the
    loop that reoptimizes every iteration. A certified best (its constructed
    plan or its reload meets the bound) is returned as that solution; any
    other best equals that loop's, plans included. Returns how the best was
    certified: "built", "reload" or None."""
    best, trace, best_iter, iterations = _always_reoptimized(instance, config)
    got = (report.incumbent_trace, report.iteration_of_best, report.total_iterations)
    assert got == (trace, best_iter, iterations), config.master_seed
    assert report.best_solution.routes == best.routes, config.master_seed
    assert report.best_objective == best.objective, config.master_seed
    _, certified, how = _certified_best(instance, config, report)
    assert report.best_solution == (best if certified is None else certified), config.master_seed
    return how


@pytest.mark.parametrize("max_iter, seeds", [(2, range(20)), (20, range(5))])
def test_skipping_phase_two_keeps_results(max_iter, seeds):
    skipped = certified = 0
    certified_bests = Counter()
    for inst in (fleet_mixed(2), fleet_mixed(1)):
        for seed in seeds:
            config = RunConfig(max_iter=max_iter, master_seed=seed)
            report = run(inst, config)
            certified_bests[_check_against_always_reoptimized(inst, config, report)] += 1
            skipped += report.loading_skipped
            certified += report.loading_certified
    assert skipped > 0
    assert certified > 0
    assert certified_bests["built"] > 0


@pytest.mark.parametrize("stock, seed", [(10, 1), (5, 3)])
def test_supply_shortfall_skips_keep_results(monkeypatch, stock, seed):
    # on palma instances the visited deficits outrun the depot stock plus the
    # visited surplus, so the bound's shortfall decides skips and certificates
    inst = generate_instance(GeneratorConfig(family=Family.PALMA, depot_stock=stock, seed=seed))

    def decisions(check):
        skipped = certified = 0
        certified_bests = Counter()
        for master_seed in range(20):
            config = RunConfig(max_iter=2, master_seed=master_seed)
            report = run(inst, config)
            if check:
                certified_bests[_check_against_always_reoptimized(inst, config, report)] += 1
            skipped += report.loading_skipped
            certified += report.loading_certified
        if check:
            assert certified_bests["built"] > 0
        return skipped, certified

    with_shortfall = decisions(check=True)
    monkeypatch.setitem(inst.__dict__, "_lookup", inst._lookup._replace(exact_sums=False))
    assert decisions(check=False) != with_shortfall


def test_phase_two_runs_only_on_iterations_the_bound_neither_skips_nor_certifies(monkeypatch):
    solve = search.reoptimize_solution
    calls = []

    def counted(instance, solution, weights):
        bound = loading_bound(instance, solution, weights).total
        assert solution.objective.total > bound
        assert _reload(instance, solution, weights).objective.total > bound
        calls.append(solution)
        return solve(instance, solution, weights)

    monkeypatch.setattr(search, "reoptimize_solution", counted)
    certified_bests = Counter()
    for inst in (fleet_mixed(1), generate_instance(GeneratorConfig(family=Family.PALMA, seed=1))):
        for master_seed in range(10):
            config = RunConfig(max_iter=2, master_seed=master_seed)
            calls.clear()
            report = run(inst, config)
            expected = report.total_iterations - report.loading_skipped - report.loading_certified
            assert len(calls) == expected, master_seed
            certified_bests[_certified_best(inst, config, report)[2]] += 1
    assert certified_bests["built"] > 0
    assert certified_bests["reload"] > 0


def test_a_surplus_met_after_the_last_deficit_certifies_the_constructed_plan():
    # station 1 (deficit 5, one damaged bike) is the only first stop in time,
    # and station 2's surplus of 5 comes after it, with no time to go back, so
    # no plan serves station 1; the bound counts no pickup toward it, and
    # phase two never runs
    inst = make_instance(
        [(1, 10, 0, 1, 5), (2, 10, 5, 0, 0, 100.0)],
        fleet=((1, 10),),
        time_budget=8.0,
        travel=[[0, 1, 100], [5, 0, 1], [1, 100, 0]],
    )
    report = run(inst, RunConfig(max_iter=5))
    assert report.best_solution.routes == (Route(1, (0, 1, 2, 0)),)
    assert report.best_solution.final_operative == {1: 0, 2: 0}
    assert (report.loading_certified, report.loading_skipped) == (1, report.total_iterations - 1)
    reoptimized = reoptimize_solution(inst, report.best_solution)
    assert report.best_objective == reoptimized.objective


def _tiny_instance(rng):
    """An instance inside ``brute_force_loading``'s guard rails whatever routes
    phase one builds on it: 2-4 stations with residuals up to 6, 1-2 vehicles
    of capacity 2-6, and 10-minute arcs under a budget of 8 visits a route
    and 10 in all."""
    stations = []
    for sid in range(1, rng.integers(2, 5) + 1):
        target, operative, damaged = (int(x) for x in rng.integers(0, (7, 7, 4)))
        capacity = max(1, target, operative + damaged) + int(rng.integers(0, 3))
        stations.append((sid, capacity, operative, damaged, target, float(rng.integers(1, 3))))
    fleet = tuple((vid, int(rng.integers(2, 7))) for vid in range(1, rng.integers(1, 3) + 1))
    budget = 40.0 if len(fleet) == 2 else 70.0
    return make_instance(stations, fleet=fleet, stock=int(rng.integers(0, 5)), time_budget=budget)


def test_certified_best_is_optimal_for_its_routes():
    # a certified best, constructed or reloaded, skips phase two, so the
    # oracle checks it instead
    certified_bests = Counter()
    for case in range(200):
        inst = _tiny_instance(np.random.default_rng(case))
        config = RunConfig(max_iter=3, master_seed=case)
        report = run(inst, config)
        built, certified, how = _certified_best(inst, config, report)
        best = report.best_solution
        certified_bests[how] += 1
        if certified is None:
            assert best == reoptimize_solution(inst, built, config.weights), case
            continue
        assert best == certified, case
        assert validate_solution(inst, best.routes, best.plans) == [], case
        plans = brute_force_loading(inst, best.routes, config.weights).plans
        optimum = solution_from_plans(inst, best.routes, plans, config.weights)
        assert best.objective.total == optimum.objective.total, case
    assert certified_bests["built"] >= 80
    assert certified_bests["reload"] >= 1
