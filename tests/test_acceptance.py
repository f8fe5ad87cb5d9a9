"""End-to-end acceptance gate: nine numbered checks, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import csv
import time

import numpy as np
import pytest
from scipy import stats

from conftest import as_candidates, make_instance
from oracle import brute_force_loading
from ssbrp.cli import SWEEP_COLUMNS, main
from ssbrp.construction import ConstructionParams, construct_solution, select_next
from ssbrp.instances import Family, GeneratorConfig, generate_instance
from ssbrp.loading import build_model, reoptimize_solution, solve_exact
from ssbrp.model import ObjectiveWeights, Route, empty_solution, validate_solution
from ssbrp.search import RunConfig, run


def _verdict(number: int, slug: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {number} {slug}: {'PASS' if ok else 'FAIL'}")


# --- 1: exact loading solver agrees with the enumeration oracle ---------------

def _oracle_case(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    stations = []
    for sid in range(1, n + 1):
        a = int(rng.integers(0, 5))
        d = int(rng.integers(-4, 5))
        q = int(rng.integers(0, 5))
        p = q + d
        if p < 0:
            q, p = q - p, 0
        cap = max(p + a + int(rng.integers(0, 4)), q)
        stations.append((sid, cap, p, a, q))
    n_veh = int(rng.integers(1, 3))
    fleet = tuple((i + 1, int(rng.integers(2, 5))) for i in range(n_veh))
    inst = make_instance(stations, fleet=fleet, stock=int(rng.integers(0, 5)))
    routes = []
    for vid, _ in fleet:
        inner = [int(rng.integers(0, n + 1)) for _ in range(int(rng.integers(0, 5)))]
        visits = [0]
        for node in inner:
            if node != visits[-1]:
                visits.append(node)
        if len(visits) == 1:
            routes.append(Route(vid))
            continue
        if visits[-1] != 0:
            visits.append(0)
        routes.append(Route(vid, tuple(visits)))
    return inst, routes


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    mismatches = []
    for seed in range(1, 201):
        inst, routes = _oracle_case(seed)
        exact = solve_exact(build_model(inst, routes))
        oracle = brute_force_loading(inst, routes)
        if exact.objective_value != oracle.objective_value:
            mismatches.append((seed, exact.objective_value, oracle.objective_value))
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 60.0
    _verdict(1, "oracle-equivalence", ok)
    assert mismatches == []
    assert elapsed < 60.0, f"200-case oracle sweep took {elapsed:.1f} s"


# --- 2 & 4 share one fuzz corpus ----------------------------------------------

@pytest.fixture(scope="session")
def fuzz_corpus():
    families = (Family.PALMA, Family.WIEN)
    station_counts = (3, 4, 6, 8, 10, 14, 20, 28)
    budgets = (45.0, 60.0, 90.0, 120.0, 240.0)
    fractions = (0.0, 0.05, 0.1, 0.2, 0.3)
    vehicle_counts = (1, 2, 3)
    capacities = (8, 12, 20)
    stocks = (0, 2, 5, 10)
    runs = []
    for i in range(1000):
        config = GeneratorConfig(
            family=families[i % 2],
            stations=station_counts[i % len(station_counts)],
            vehicles=vehicle_counts[i % 3],
            vehicle_capacity=capacities[i % 3],
            time_budget_min=budgets[i % 5],
            depot_stock=stocks[i % 4],
            damaged_fraction=fractions[i % 5],
            seed=i,
        )
        instance = generate_instance(config)
        before = construct_solution(instance, ConstructionParams(), np.random.default_rng(i))
        phase1 = validate_solution(instance, before.routes, before.plans)
        after = reoptimize_solution(instance, before)
        phase2 = validate_solution(instance, after.routes, after.plans)
        runs.append((before, after, phase1, phase2))
    return runs


def test_criterion_2_feasibility_fuzz(fuzz_corpus):
    bad = [
        (i, v1, v2)
        for i, (_, _, v1, v2) in enumerate(fuzz_corpus)
        if v1 or v2
    ]
    ok = len(fuzz_corpus) == 1000 and not bad
    _verdict(2, "feasibility-fuzz", ok)
    assert len(fuzz_corpus) == 1000
    assert bad == []


def test_criterion_4_reoptimization_dominance(fuzz_corpus):
    worse = []
    for i, (before, after, _, _) in enumerate(fuzz_corpus):
        before_balance = before.objective.imbalance + before.objective.damaged
        after_balance = after.objective.imbalance + after.objective.damaged
        # equal integer residual counts can round to sums one ulp apart when the
        # split between the two terms shifts, so allow that much and no more
        if after_balance > before_balance + 1e-12 or after.objective.time != before.objective.time:
            worse.append(i)
    ok = not worse
    _verdict(4, "phase-two-dominance", ok)
    assert worse == []


# --- 3: do-nothing calibration ------------------------------------------------

def test_criterion_3_do_nothing_calibration():
    cases = [
        generate_instance(GeneratorConfig(seed=0)),
        generate_instance(GeneratorConfig(family=Family.WIEN, seed=3)),
        make_instance([(1, 10, 6, 0, 5), (2, 10, 4, 0, 5), (3, 10, 5, 1, 5)]),
        make_instance([(1, 10, 5, 2, 5)]),  # damaged bikes only
        make_instance([(1, 10, 9, 0, 2)]),  # imbalance only
    ]
    deviations = []
    for inst in cases:
        raw = sum(abs(s.imbalance) + s.damaged for s in inst.stations)
        assert raw > 0 and all(s.weight == 1.0 for s in inst.stations)
        total = empty_solution(inst, ObjectiveWeights()).objective.total
        deviations.append(abs(total - 1.0))
    ok = max(deviations) <= 1e-12
    _verdict(3, "do-nothing-calibration", ok)
    assert max(deviations) <= 1e-12


# --- 5: determinism and incumbent monotonicity --------------------------------

def test_criterion_5_determinism_and_monotonicity():
    inst = generate_instance(GeneratorConfig(stations=12, seed=21))
    config = dict(max_iter=30, master_seed=9)
    reports = [
        run(inst, RunConfig(**config, parallelism=1)),
        run(inst, RunConfig(**config, parallelism=1)),
        run(inst, RunConfig(**config, parallelism=4)),
    ]
    def fingerprint(r):
        return (r.best_solution, r.iteration_of_best, r.total_iterations, r.incumbent_trace)
    identical = fingerprint(reports[0]) == fingerprint(reports[1]) == fingerprint(reports[2])
    totals = [t for _, t in reports[0].incumbent_trace]
    decreasing = all(b < a for a, b in zip(totals, totals[1:]))
    ok = identical and decreasing and len(totals) >= 1
    _verdict(5, "determinism-and-monotonicity", ok)
    assert identical
    assert decreasing


# --- 6: hand toys with a perfect plan are solved to zero ----------------------

def _perfect_toy(i: int):
    rng = np.random.default_rng(5000 + i)
    n_surplus = int(rng.integers(1, 4))
    n_deficit = int(rng.integers(1, 4))
    surpluses = [int(rng.integers(1, 5)) for _ in range(n_surplus)]
    total = sum(surpluses)
    # split the matching deficit as evenly as possible (each share stays <= 4+)
    deficits = [
        total // n_deficit + (1 if j < total % n_deficit else 0)
        for j in range(n_deficit)
    ]
    stations = []
    sid = 1
    for d in surpluses:
        a = int(rng.integers(0, 3))
        stations.append((sid, 20, 8 + d, a, 8))
        sid += 1
    for d in deficits:
        if d == 0:
            continue
        a = int(rng.integers(0, 2))
        stations.append((sid, 20, 8 - d, a, 8))
        sid += 1
    total_flow = total + sum(s[3] for s in stations)
    fleet = ((1, max(2, total_flow)),)
    return make_instance(stations, fleet=fleet, time_budget=100_000.0, travel=5.0)


def test_criterion_6_toy_optimality():
    solved = 0
    for i in range(20):
        inst = _perfect_toy(i)
        report = run(inst, RunConfig(max_iter=50, master_seed=i))
        if report.best_objective.imbalance == 0.0 and report.best_objective.damaged == 0.0:
            solved += 1
    ok = solved >= 19
    _verdict(6, "toy-optimality", ok)
    assert solved >= 19, f"only {solved}/20 toys reached a perfect plan"


# --- 7: timing envelope at benchmark scale ------------------------------------

def test_criterion_7_scale_smoke():
    palma = generate_instance(GeneratorConfig(family=Family.PALMA, seed=1))
    t0 = time.perf_counter()
    report_a = run(palma, RunConfig(max_iter=500, master_seed=1))
    palma_s = time.perf_counter() - t0

    wien_large = generate_instance(GeneratorConfig(family=Family.WIEN, stations=90, seed=1))
    t0 = time.perf_counter()
    report_b = run(wien_large, RunConfig(max_iter=500, master_seed=1))
    wien_s = time.perf_counter() - t0

    ok = palma_s <= 60.0 and wien_s <= 300.0
    _verdict(7, "scale-smoke", ok)
    assert report_a.total_iterations >= 500
    assert report_b.total_iterations >= 500
    assert palma_s <= 60.0, f"28-station run took {palma_s:.1f} s"
    assert wien_s <= 300.0, f"90-station run took {wien_s:.1f} s"


# --- 8: restricted candidate selection statistics ------------------------------

def test_criterion_8_selection_statistics():
    rng = np.random.default_rng(123)
    counts = {"a": 0, "b": 0, "c": 0}
    three = as_candidates({"a": 10.0, "b": 6.0, "c": 2.0})
    for _ in range(10_000):
        counts[select_next(three, rng, epsilon=0.5)] += 1
    shares = {k: v / 10_000 for k, v in counts.items()}
    split_ok = (
        abs(shares["a"] - 0.5) <= 0.02
        and abs(shares["b"] - 0.5) <= 0.02
        and counts["c"] == 0
    )

    uniform_counts = {"a": 0, "b": 0, "c": 0}
    tied = as_candidates({"a": 3.0, "b": 3.0, "c": 3.0})
    for _ in range(10_000):
        uniform_counts[select_next(tied, rng)] += 1
    p_value = stats.chisquare(list(uniform_counts.values())).pvalue
    uniform_ok = p_value > 0.01

    ok = split_ok and uniform_ok
    _verdict(8, "selection-statistics", ok)
    assert split_ok, shares
    assert uniform_ok, uniform_counts


# --- 9: sweep report shape ------------------------------------------------------

def test_criterion_9_sweep_report_shape(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--max-iter", "2", "--out", str(out)])
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    rows = list(csv.DictReader(lines))
    per_family = {}
    for row in rows:
        per_family.setdefault(row["family"], []).append((row["theta"], row["mu"]))
    expected_grid = [(t, m) for t in ("0.3", "0.5", "0.8") for m in ("1", "1.5", "2")]
    ok = (
        code == 0
        and lines[0] == ",".join(SWEEP_COLUMNS)
        and set(per_family) == {"palma", "wien"}
        and all(grid == expected_grid for grid in per_family.values())
    )
    _verdict(9, "sweep-report-shape", ok)
    assert code == 0
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert set(per_family) == {"palma", "wien"}
    for family, grid in per_family.items():
        assert grid == expected_grid, family
