"""Source checks: every name a module of the package imports at top level is
used in that module (``__init__.py`` is skipped, since its imports are the
package's re-exports), every private module-level name and every ``Instance``
cached property is read somewhere in the package, no module holds an
``assert`` statement, no module imports SciPy (phase two loads SciPy's HiGHS
extension module by file), one call in the package makes a HiGHS instance
(each thread keeps one), and phase one's ``BuildState`` takes no attribute
outside its fields."""

import ast
from pathlib import Path

import pytest

from conftest import make_instance
from ssbrp.construction import BuildState

SRC = Path(__file__).resolve().parent.parent / "src" / "ssbrp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Top-level imported names that no ``ast.Name`` in the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_check_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Mapping, Sequence\n"
        "def f(x: Sequence) -> float:\n"
        "    return np.sum(x)\n"
    )
    assert _unused_imports(source) == ["os", "Mapping"]


def test_modules_are_found():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _definitions(source: str) -> list[str]:
    """The module-level ``_name``s of a module (dunders aside), and the
    ``cached_property`` names of its class ``Instance``, if it has one."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            targets = []
        names += [name for name in targets if name.startswith("_") and not name.startswith("__")]
        if isinstance(node, ast.ClassDef) and node.name == "Instance":
            names += [
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and any(ast.unparse(d).endswith("cached_property") for d in item.decorator_list)
            ]
    return names


def _dead_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each name of ``_definitions`` that no module reads,
    as a name or as an attribute."""
    reads = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return [
        f"{module}:{name}"
        for module, source in sources.items()
        for name in _definitions(source)
        if name not in reads
    ]


def test_dead_name_check_finds_unread_names():
    sources = {
        "a.py": (
            "import functools\n"
            "_USED = 1\n"
            "_UNUSED: int = 2\n"
            "__all__ = []\n"
            "def _helper():\n"
            "    return _USED\n"
            "class Instance:\n"
            "    @functools.cached_property\n"
            "    def _read(self):\n"
            "        return 1\n"
            "    @cached_property\n"
            "    def _orphan(self):\n"
            "        return 2\n"
            "    @property\n"
            "    def _plain(self):\n"
            "        return 3\n"
        ),
        "b.py": (
            "from .a import _helper\n"
            "def f(instance):\n"
            "    return _helper() + instance._read\n"
        ),
    }
    assert _dead_names(sources) == ["a.py:_UNUSED", "a.py:_orphan"]


def test_no_dead_names():
    # a fast path whose caller is gone leaves its table or helper behind unread
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _dead_names(sources) == []


def _asserts(source: str) -> list[int]:
    """Line numbers of the ``assert`` statements in a module."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_check_finds_asserts():
    source = "def f(x):\n    if x:\n        assert x > 0\n    return x\n"
    assert _asserts(source) == [3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts: a reachable state is guarded by raising an error
    assert _asserts(path.read_text()) == []


def _scipy_imports(source: str) -> list[int]:
    """Line numbers of the ``import`` and ``from ... import`` statements naming SciPy."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module == "scipy" or module.startswith("scipy.") for module in modules):
            lines.append(node.lineno)
    return lines


def test_scipy_import_check_finds_imports():
    source = (
        "import scipy\n"
        "import numpy, scipy.optimize as opt\n"
        "from scipy.optimize._highspy import _core\n"
        "import scipyx\n"
        "from . import scipy\n"
        "def f():\n"
        "    from scipy import stats\n"
        "    return stats\n"
    )
    assert _scipy_imports(source) == [1, 2, 3, 7]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_imports(path):
    # `import scipy.optimize` costs most of `import ssbrp`: loading._load_highs is the one way in
    assert _scipy_imports(path.read_text()) == []


def _highs_constructions(source: str) -> list[int]:
    """Line numbers of the calls that make a HiGHS instance: ``_Highs(...)``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "_Highs":
                lines.append(node.lineno)
    return lines


def test_highs_construction_check_finds_calls():
    source = (
        "lp = highs._Highs()\n"
        "def f(core):\n"
        "    kind = core._Highs\n"
        "    return _Highs(), core.Highs(), kind\n"
    )
    assert _highs_constructions(source) == [1, 4]


def test_one_call_makes_a_highs_instance():
    # each thread reuses its HiGHS instance: making one per solve cost 0.13-0.31 ms a solve
    found = {path.name: _highs_constructions(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: len(lines) for name, lines in found.items() if lines} == {"loading.py": 1}


def test_build_state_rejects_undeclared_attributes():
    # an attribute outside the dataclass's fields slowed every state access in
    # CPython 3.11 when one was tried; per-route context goes in locals or
    # arguments, and the slots make a write to any other attribute fail
    state = BuildState.fresh(make_instance([(1, 10, 7, 0, 5)]))
    with pytest.raises(AttributeError):
        state.draws = None
