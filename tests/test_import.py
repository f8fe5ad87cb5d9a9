"""Start-up checks: ssbrp loads SciPy's HiGHS extension module from its file
and never imports ``scipy.optimize``, and SciPy keeps working beside it in
either import order.

Each check runs in a fresh interpreter, because this process has SciPy
loaded already (the acceptance tests import ``scipy.stats``).
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import scipy

from ssbrp.loading import _highs_path

SRC = Path(__file__).resolve().parent.parent / "src"
HIGHS = "scipy.optimize._highspy._core"


def _run_fresh(code: str) -> None:
    """Run the code in a new interpreter that imports ssbrp from the sources; fail on any error."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_solving_never_imports_scipy_optimize():
    _run_fresh(
        f"""
        import sys

        import ssbrp
        from ssbrp import (
            Family, GeneratorConfig, RunConfig, generate_instance, reoptimize_solution, run,
            validate_solution,
        )

        config = GeneratorConfig(family=Family.PALMA, stations=6, vehicles=2, seed=3)
        instance = generate_instance(config)
        report = run(instance, RunConfig(max_iter=3, master_seed=1))
        best = reoptimize_solution(instance, report.best_solution)
        # a route that visits a station has columns, so HiGHS solved its relaxation
        assert any(len(route.visits) > 2 for route in best.routes)
        assert validate_solution(instance, best.routes, best.plans) == []
        assert "scipy.optimize" not in sys.modules
        assert sys.modules["{HIGHS}"] is ssbrp.loading.highs
        """
    )


def test_scipy_optimize_solves_after_ssbrp():
    _run_fresh(
        f"""
        import sys

        import ssbrp
        from scipy.optimize import linprog

        result = linprog([-1, -2], A_ub=[[1, 1]], b_ub=[3], bounds=(0, 2), method="highs")
        assert result.status == 0, result.message
        assert result.x.tolist() == [1.0, 2.0] and result.fun == -5.0
        assert sys.modules["{HIGHS}"] is ssbrp.loading.highs
        """
    )


def test_ssbrp_reuses_the_module_scipy_loaded():
    _run_fresh(
        f"""
        import sys

        import scipy.optimize

        loaded = sys.modules["{HIGHS}"]
        import ssbrp

        assert ssbrp.loading.highs is loaded
        """
    )


def test_missing_extension_names_the_directory_and_version(tmp_path):
    with pytest.raises(ImportError) as failure:
        _highs_path([str(tmp_path)])
    message = str(failure.value)
    assert str(tmp_path / "optimize" / "_highspy") in message
    assert scipy.__version__ in message
