"""Source checks: every name a module of the package imports at top level is
used in that module (``__init__.py`` is skipped, since its imports are the
package's re-exports), every private module-level name and every ``Instance``
cached property is read somewhere in the package, every field of
``Instance._lookup``, the one table an instance derives from its fields, is
read off that table somewhere in the package, no module holds an
``assert`` statement, no module imports SciPy (phase two loads SciPy's HiGHS
extension module by file), one call in the package makes a HiGHS instance
(each thread keeps one), phase one's ``BuildState`` takes no attribute
outside its fields, no module reads, writes or rewinds a bit generator's
state, phase one's delivery rule is stated only in ``construction.py``'s
``feasible_successors`` and ``_walk``, and ``loading.py`` imports nothing
from ``construction``."""

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


def _table_fields(source: str) -> list[str]:
    """The fields of a module's class ``_Lookup``, if it has one."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == "_Lookup":
            return [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
    return []


def _unread_fields(sources: dict[str, str]) -> list[str]:
    """The ``_Lookup`` fields that no module reads as ``lookup.<field>`` or
    ``<expr>._lookup.<field>``."""
    reads = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                table = node.value
                if (isinstance(table, ast.Name) and table.id == "lookup") or (
                    isinstance(table, ast.Attribute) and table.attr == "_lookup"
                ):
                    reads.add(node.attr)
    fields = [name for source in sources.values() for name in _table_fields(source)]
    return [name for name in fields if name not in reads]


def test_unread_field_check_finds_unread_fields():
    sources = {
        "a.py": (
            "class _Lookup(NamedTuple):\n"
            "    rows: dict\n"
            "    ids: list\n"
            "    back: list\n"
            "    weight: list\n"
            "    live: list\n"
            "def f(instance, lookup, other):\n"
            "    lookup.live = []\n"
            "    return lookup.rows, instance._lookup.ids, other.back, weight\n"
        ),
        "b.py": "def g(lookup):\n    return lookup.position\n",
    }
    assert _unread_fields(sources) == ["back", "weight", "live"]


def test_no_unread_table_fields():
    # a column whose reader is gone is still built for every instance, and
    # test_no_dead_names cannot see it: the table itself is read
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _table_fields(sources["model.py"]) != []
    assert _unread_fields(sources) == []


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


def _generator_state_uses(source: str) -> list[int]:
    """Line numbers of the reads and writes of a ``.state`` attribute and the
    calls of an ``.advance(...)`` method."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "state":
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "advance":
            lines.append(node.lineno)
    return lines


def test_generator_state_check_finds_uses():
    source = (
        "def f(rng, bits, state):\n"
        "    saved = rng.bit_generator.state\n"
        "    bits.advance(-3)\n"
        "    bits.state = saved\n"
        "    advance = state.depot_remaining\n"
        "    return bits.random_raw(64), advance\n"
    )
    assert _generator_state_uses(source) == [2, 3, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_generator_state_handling(path):
    # phase one reads a fresh Generator's raw words with random_raw and nothing
    # else: a rewind or a state rewrite per construction is a second way to draw
    assert _generator_state_uses(path.read_text()) == []


DELIVERY = "beta = reach if reach < -d else -d"  # phase one's delivery at a deficit station


def _holders(sources: dict[str, str], statement: str) -> list[str]:
    """``module:function`` for each assignment that unparses to ``statement``, in
    source order, naming the innermost function that holds it (none at module
    level)."""
    found = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assign) and ast.unparse(child) == statement:
                found.append(f"{module}:{function}")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
            else:
                visit(child, module, function)

    for module, source in sources.items():
        visit(ast.parse(source), module, "")
    return found


def test_holder_check_finds_the_statement():
    sources = {
        "a.py": "def f(reach, d):\n    beta = (reach if reach < - d else -d)\n    return beta\n",
        "b.py": "def g(reach, d):\n    beta = reach if reach < d else d\n    return beta\n",
        "c.py": "def h(reach, d):\n    # beta = reach if reach < -d else -d\n    return 0\n",
        "d.py": (
            "beta = reach if reach < -d else -d\n"
            "def walk(reach, d):\n"
            "    if d < 0:\n"
            "        beta = reach if reach < -d else -d\n"
            "    return beta\n"
            "class Trim:\n"
            "    def walk(self, reach, d):\n"
            "        def step():\n"
            "            beta = reach if reach < -d else -d\n"
            "            return beta\n"
            "        return step()\n"
        ),
    }
    assert _holders(sources, DELIVERY) == ["a.py:f", "d.py:", "d.py:walk", "d.py:step"]


def test_phase_one_move_rule_lives_in_construction():
    # a walk that restates phase one's rule drifts from it without importing
    # anything that a check could see: the scan and the one walk of fixed
    # routes hold it, and a trim, polish or recombination step calls _walk
    sources = {path.name: path.read_text() for path in MODULES}
    assert _holders(sources, DELIVERY) == [
        "construction.py:feasible_successors",
        "construction.py:_walk",
    ]


def _construction_imports(source: str) -> list[int]:
    """Line numbers of the statements that import a ``construction`` module or from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            modules = [f"{module}.{alias.name}" for alias in node.names] + [module]
        else:
            continue
        if any(m == "construction" or m.endswith(".construction") for m in modules):
            lines.append(node.lineno)
    return lines


def test_construction_import_check_finds_imports():
    source = (
        "from .construction import BuildState\n"
        "from . import construction\n"
        "import ssbrp.construction\n"
        "from ssbrp.construction import _reload\n"
        "from .model import construction_time\n"
        "import constructions\n"
        "def f():\n"
        "    from .construction import build_route\n"
        "    return build_route\n"
    )
    assert _construction_imports(source) == [1, 2, 3, 4, 8]


def test_loading_imports_nothing_from_construction():
    # phase two takes the routes as given; phase one's rule stays out of it
    assert _construction_imports((SRC / "loading.py").read_text()) == []
