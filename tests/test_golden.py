"""Golden traces: pinned outputs of the full two-phase loop and of the model build.

Speed work on phase one and on ``build_model`` must not change one random
draw, one ratio or one matrix entry. These pins hold the incumbent traces,
the best routes and a digest of the loading program's arrays for the
generated ``palma`` (28 stations) and ``wien`` (90 stations) instances of
instance seed 1. Floats are pinned as ``float.hex()``, so any change in the
last bit fails. After a change that alters results on purpose, regenerate
the pins with ``python tests/test_golden.py`` and say why in the change.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from conftest import reweighted
from ssbrp.construction import ConstructionParams, construct_solution
from ssbrp.instances import Family, GeneratorConfig, generate_instance
from ssbrp.loading import build_model
from ssbrp.search import RunConfig, run

MASTER_SEEDS = (0, 1, 2)
SKELETON_SEEDS = range(6)


def _instance(family: str):
    if family == "palma":
        return generate_instance(GeneratorConfig(family=Family.PALMA, seed=1))
    return generate_instance(GeneratorConfig(family=Family.WIEN, stations=90, seed=1))


def run_record(instance, master_seed: int) -> dict:
    report = run(instance, RunConfig(max_iter=3, master_seed=master_seed))
    return {
        "trace": [(it, total.hex()) for it, total in report.incumbent_trace],
        "iteration_of_best": report.iteration_of_best,
        "total_iterations": report.total_iterations,
        "routes": [list(r.visits) for r in report.best_solution.routes],
    }


def model_digest(instance) -> str:
    """SHA-256 over the arrays of build_model for routes built from fixed seeds."""
    h = hashlib.sha256()
    for seed in SKELETON_SEEDS:
        built = construct_solution(instance, ConstructionParams(), np.random.default_rng(seed))
        model = build_model(instance, built.routes)
        for name in ("a_ub", "b_ub", "a_eq", "b_eq", "c"):
            array = np.ascontiguousarray(getattr(model, name), dtype=np.float64)
            h.update(f"{name}{array.shape}".encode())
            h.update(array.tobytes())
        h.update(float(model.constant).hex().encode())
    return h.hexdigest()


GOLDEN_RUNS = {('palma', 0): {'iteration_of_best': 2,
                'routes': [[0, 8, 21, 13, 2, 0, 28, 9, 14, 24, 19, 0, 23, 0, 1, 6, 4, 0],
                           [0, 17, 0, 7, 20, 24, 16, 0, 10, 16, 0, 12, 0],
                           [0, 5, 27, 3, 11, 22, 0]],
                'total_iterations': 4,
                'trace': [(1, '0x1.2444444444444p+0'), (2, '0x1.0b8ab8ab8ab8bp+0')]},
 ('palma', 1): {'iteration_of_best': 3,
                'routes': [[0, 23, 28, 0, 10, 28, 0, 7, 12, 0, 28, 4, 1, 6, 14, 24, 19, 0, 9,
                            0],
                           [0, 8, 21, 2, 11, 0, 22, 13, 22, 25, 3, 0, 28, 15, 0],
                           [0, 20, 17, 14, 16, 0, 5, 27, 0]],
                'total_iterations': 5,
                'trace': [(1, '0x1.3413413413413p+0'), (2, '0x1.1e38e38e38e39p+0'),
                          (3, '0x1.06f96f96f96fap+0')]},
 ('palma', 2): {'iteration_of_best': 3,
                'routes': [[0, 23, 0, 15, 20, 14, 24, 17, 0, 19, 0, 28, 10, 9, 28, 0, 7, 28, 0],
                           [0, 4, 27, 5, 0, 28, 2, 11, 12, 0, 16, 1, 6, 0],
                           [0, 3, 17, 0, 13, 8, 21, 0]],
                'total_iterations': 5,
                'trace': [(1, '0x1.3873873873874p+0'), (2, '0x1.236b36b36b36bp+0'),
                          (3, '0x1.169e69e69e69ep+0')]},
 ('wien', 0): {'iteration_of_best': 2,
               'routes': [[0, 23, 0, 39, 4, 32, 31, 56, 78, 37, 0, 27, 34, 75, 28, 81, 79, 21,
                           89, 14, 60, 0, 65, 24, 38, 10, 61, 77, 30, 58, 52, 0, 63, 80, 67, 15,
                           75, 0],
                          [0, 73, 72, 11, 2, 36, 2, 45, 51, 41, 82, 25, 9, 90, 0, 40, 47, 0, 85,
                           16, 29, 49, 16, 87, 19, 0, 55, 88, 64, 44, 6, 1, 77, 71, 7, 0, 42,
                           0],
                          [0, 54, 43, 3, 84, 30, 0, 23, 74, 8, 74, 82, 51, 0, 47, 12, 66, 5, 47,
                           0, 42, 33, 62, 86, 59, 48, 0, 70, 81, 0]],
               'total_iterations': 4,
               'trace': [(1, '0x1.2777777777778p+0'), (2, '0x1.218e8a8dbe644p+0')]},
 ('wien', 1): {'iteration_of_best': 1,
               'routes': [[0, 44, 67, 84, 78, 0, 28, 75, 80, 0, 90, 2, 36, 11, 73, 54, 72, 6, 1,
                           0, 23, 81, 0, 28, 34, 43, 3, 32, 31, 56, 37, 29, 16, 60, 85, 0, 79,
                           9, 79, 90, 47, 64, 19, 0],
                          [0, 77, 61, 49, 52, 48, 39, 48, 10, 0, 63, 15, 88, 55, 19, 41, 24, 14,
                           89, 0, 71, 12, 82, 0, 51, 45, 84, 0, 30, 33, 62, 0, 74, 21, 0, 8, 7,
                           0],
                          [0, 85, 16, 42, 0, 59, 62, 58, 0, 40, 41, 38, 65, 17, 20, 65, 0, 66,
                           5, 27, 4, 0, 71, 12, 51, 35, 50, 69, 25, 83, 0]],
               'total_iterations': 3,
               'trace': [(1, '0x1.1d74620a507ecp+0')]},
 ('wien', 2): {'iteration_of_best': 3,
               'routes': [[0, 42, 75, 47, 0, 28, 10, 63, 80, 44, 0, 28, 81, 79, 90, 9, 55, 19,
                           41, 85, 0, 84, 32, 31, 56, 78, 0, 23, 7, 2, 36, 11, 37, 89, 64, 16,
                           29, 0, 77, 1, 6, 0],
                          [0, 4, 43, 3, 21, 74, 8, 45, 73, 72, 0, 30, 49, 52, 39, 48, 0, 67, 15,
                           34, 75, 0, 71, 12, 89, 20, 24, 14, 65, 38, 65, 17, 0, 33, 62, 48, 61,
                           30, 0],
                          [0, 82, 25, 83, 22, 51, 22, 0, 57, 46, 73, 57, 0, 54, 35, 13, 0, 65,
                           85, 60, 0, 69, 59, 0]],
               'total_iterations': 5,
               'trace': [(1, '0x1.1e4b9a8e982a2p+0'), (3, '0x1.1a6addb508c5dp+0')]}}

GOLDEN_MODELS = {'palma': 'bf1b9d2459db198ab693c1d4303bf571a72e38c6096224d19f57514239f2413d',
 'wien': '37f98e1c1403f19ea1e95dddd981690882468383551a547ace24e9a1025dcc7d'}


@pytest.fixture(scope="module", params=["palma", "wien"])
def family(request):
    return request.param


@pytest.fixture(scope="module")
def instance(family):
    return _instance(family)


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_run_matches_golden_trace(family, instance, master_seed):
    assert run_record(instance, master_seed) == GOLDEN_RUNS[family, master_seed]


def test_build_model_matches_golden_digest(family, instance):
    assert model_digest(reweighted(instance)) == GOLDEN_MODELS[family]


if __name__ == "__main__":
    import pprint

    runs = {}
    models = {}
    for fam in ("palma", "wien"):
        inst = _instance(fam)
        for s in MASTER_SEEDS:
            runs[fam, s] = run_record(inst, s)
        models[fam] = model_digest(reweighted(inst))
    print("GOLDEN_RUNS = " + pprint.pformat(runs, width=96, compact=True))
    print()
    print("GOLDEN_MODELS = " + pprint.pformat(models, width=96))
