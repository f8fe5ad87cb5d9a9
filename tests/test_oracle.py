"""The two phases together against the exact optimum of tiny instances, which
``oracle.py`` finds by enumerating every route set, and phase two against
``oracle.py``'s exhaustive loading on those route sets."""

import pytest

from oracle import brute_force_loading, bound, corpus, exact, optimum, route_sets
from ssbrp import ObjectiveWeights, RunConfig, build_model, run, solve_exact, validate_solution

CORPUS = corpus()


@pytest.mark.parametrize("instance", CORPUS, ids=[f"seed{i}" for i in range(len(CORPUS))])
def test_run_never_beats_the_optimum(instance):
    best = optimum(instance)
    assert validate_solution(instance, best.routes, best.plans) == []
    found = run(instance, RunConfig(max_iter=50)).best_objective.total
    # a certified plan may differ from phase two's total in the last bit
    assert found >= best.objective.total - 1e-12


# run()'s best total at max_iter=200 on each corpus instance, the run behind
# the gap table that ``python tests/oracle.py`` prints. A change to the
# search's results may lower a record, never raise one.
RECORDED_BEST = [
    "0x1.0d61bed61bed6p+0",
    "0x1.22bae5dce9718p-1",
    "0x1.453b13b13b13bp+0",
    "0x1.5946fdd946fddp-1",
    "0x1.cef2c0a0671dcp-1",
    "0x1.50ac19d0ac19ep+0",
    "0x1.f4de9bd37a6f5p-1",
    "0x1.5e85e85e85e86p-1",
]


@pytest.mark.parametrize("seed", range(len(CORPUS)), ids=lambda i: f"seed{i}")
def test_run_gap_never_widens(seed):
    found = run(CORPUS[seed], RunConfig(max_iter=200)).best_objective.total
    assert found <= float.fromhex(RECORDED_BEST[seed]), found.hex()


@pytest.mark.parametrize("instance", CORPUS, ids=[f"seed{i}" for i in range(len(CORPUS))])
def test_loading_bound_never_exceeds_an_exact_loading(instance):
    weights = ObjectiveWeights()
    totals = []
    for routes in route_sets(instance):
        total = exact(instance, routes, weights).objective.total
        assert bound(instance, routes, weights) <= total, routes
        totals.append(total)
    # so skipping route sets on the bound loses no optimum
    assert min(totals) == optimum(instance).objective.total


# every route set of these fits brute_force_loading's guard rails; seed 5's
# stations hold more residual work than they allow, and seed 1's 784 route
# sets take seconds
@pytest.mark.parametrize("seed", [0, 2, 3, 4, 6, 7], ids=lambda i: f"seed{i}")
def test_exhaustive_loading_agrees_with_solve_exact(seed):
    instance = CORPUS[seed]
    weights = ObjectiveWeights()
    checked = 0
    for routes in route_sets(instance):
        want = brute_force_loading(instance, routes, weights).objective_value
        assert solve_exact(build_model(instance, routes, weights)).objective_value == want, routes
        checked += 1
    assert checked > 1
