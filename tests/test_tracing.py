"""The benchmark's tracer wraps ssbrp functions by module attribute name, so
a refactor that drops or renames one of them breaks ``bench/run.py --trace 1``.
This test holds those names to the package."""

import importlib
import importlib.util
import sys
from pathlib import Path

from conftest import make_instance
from ssbrp import RunConfig, run

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_boundary_and_records_phase_one(monkeypatch):
    tracing = _tracing(monkeypatch)
    inst = make_instance(
        [(1, 12, 9, 1, 4), (2, 12, 2, 2, 8), (3, 12, 6, 0, 6), (4, 12, 1, 1, 5)],
        fleet=((1, 8), (2, 6)),
        stock=4,
    )
    boundaries = [(importlib.import_module(m), attr, name) for m, attr, name in tracing.BOUNDARIES]
    originals = [getattr(module, attr) for module, attr, _ in boundaries]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(
            getattr(module, attr) is not original
            for (module, attr, _), original in zip(boundaries, originals)
        )
        tracer.run(run, inst, RunConfig(max_iter=3, master_seed=1))
    assert [getattr(module, attr) for module, attr, _ in boundaries] == originals
    stats = tracer.stats()
    for name in (
        "construction.feasible_successors",
        "construction.construct_solution",
        "model.solution_from_plans",
    ):
        assert stats[name].calls > 0, name
