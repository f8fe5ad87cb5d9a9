"""The two phases together against the exact optimum of tiny instances, which
``oracle.py`` finds by enumerating every route set."""

import pytest

from oracle import bound, corpus, exact, optimum, route_sets
from ssbrp import ObjectiveWeights, RunConfig, run, validate_solution

CORPUS = corpus()


@pytest.mark.parametrize("instance", CORPUS, ids=[f"seed{i}" for i in range(len(CORPUS))])
def test_run_never_beats_the_optimum(instance):
    best = optimum(instance)
    assert validate_solution(instance, best.routes, best.plans) == []
    found = run(instance, RunConfig(max_iter=50)).best_objective.total
    # a certified plan may differ from phase two's total in the last bit
    assert found >= best.objective.total - 1e-12


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
