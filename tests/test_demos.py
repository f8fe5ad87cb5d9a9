"""Every demo script runs to completion against the current public API, the
construction walkthrough and the loading optimizer print what they printed
when they were pinned, and the README's table of entry points names that API."""

import inspect
import re
import runpy
from pathlib import Path

import pytest

import ssbrp

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


# the stdout of demos/02_construction_walkthrough.py: each step build_route
# takes (candidates, ratios, top, epsilon cut, eligible nodes and draw),
# then the finished route
WALKTHROUGH = """\
step 1: at node 0
  node 1: move (3 operative, 0 damaged)  ratio 0.1732
  node 2: move (2 operative, 0 damaged)  ratio 0.1414
  node 3: move (0 operative, 2 damaged)  ratio 0.2828
  top 0.2828, epsilon 0.0856, cut 0.0242 keeps [1, 2, 3]
  drew (1, 3, 0)

step 2: at node 1
  node 2: move (3 operative, 0 damaged)  ratio 0.1732
  node 3: move (0 operative, 1 damaged)  ratio 0.1000
  top 0.1732, epsilon 0.8013, cut 0.1388 keeps [2]
  drew (2, 3, 0)

step 3: at node 2
  node 3: move (0 operative, 2 damaged)  ratio 0.1414
  top 0.1414, epsilon 0.5822, cut 0.0823 keeps [3]
  drew (3, 0, 2)

step 4: at node 3
  node 0: move (0 operative, 0 damaged)  ratio 0.6000
  top 0.6000, epsilon 0.0941, cut 0.0565 keeps [0]
  drew (0, 0, 0)

vehicle 1: (0, 1, 2, 3, 0)
  moves ((0, 0), (3, 0), (-3, 0), (0, 2), (0, -2))
objective  total=0.350000  imbalance=0.000000  damaged=0.000000  time=0.350000
final operative inventories: {1: 5, 2: 5, 3: 5}
final damaged inventories:   {1: 0, 2: 0, 3: 0}
"""


def test_construction_walkthrough_output_is_pinned(capsys):
    runpy.run_path(str(ROOT / "demos" / "02_construction_walkthrough.py"), run_name="__main__")
    assert capsys.readouterr().out == WALKTHROUGH


# the stdout of demos/03_loading_optimizer.py: the program, its optimal plan,
# the bound that certifies it, and a myopic plan reoptimized
LOADING_OPTIMIZER = """\
the loading program (zero-fixed variables are left out):

min 5 + x[1,2] - y[1,3] - x[1,4]
s.t.
x[1,1] + y[1,1] <= 3
- x[1,1] <= 0
- y[1,1] <= 0
x[1,1] + y[1,1] + x[1,2] <= 3
- x[1,1] - x[1,2] <= 0
- y[1,1] <= 0
x[1,1] + y[1,1] + x[1,2] + y[1,3] <= 3
- x[1,1] - x[1,2] <= 0
- y[1,1] - y[1,3] <= 0
x[1,1] + y[1,1] + x[1,2] + y[1,3] + x[1,4] <= 3
- x[1,1] - x[1,2] - x[1,4] <= 0
- y[1,1] - y[1,3] <= 0
x[1,1] - w0[1] <= 0
x[1,1] + x[1,5] - w0[1] <= 0
w0[1] <= 2
- x[1,2] <= 2
- x[1,2] <= 7
x[1,4] <= 2
y[1,3] <= 1
x[1,1] + x[1,2] + x[1,4] + x[1,5] = 0
y[1,1] = 0
y[1,1] + y[1,3] + y[1,5] = 0
bounds
-3 <= x[1,1] <= 3
-3 <= y[1,1] <= 0
-2 <= x[1,2] <= 0
0 <= y[1,3] <= 1
0 <= x[1,4] <= 2
-3 <= x[1,5] <= 3
-3 <= y[1,5] <= 0
0 <= w0[1] <= 2


optimal residual count: 0
  node 0: move (2, 0)
  node 1: move (-2, 0)
  node 3: move (0, 1)
  node 2: move (2, 0)
  node 0: move (-2, -1)

solved total 0.1600 equals its lower bound 0.1600

myopic plan:     imbalance 0.4000  damaged 0.0000
reoptimized:     imbalance 0.0000  damaged 0.0000
route time untouched: True
new moves: ((2, 0), (-2, 0), (0, 1), (2, 0), (-2, -1))
"""


def test_loading_optimizer_output_is_pinned(capsys):
    runpy.run_path(str(ROOT / "demos" / "03_loading_optimizer.py"), run_name="__main__")
    assert capsys.readouterr().out == LOADING_OPTIMIZER


def _api_table():
    """The first cells of the README's "Key entry points" table."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Key entry points"))
    rows = []
    for line in lines[start + 1 :]:
        if rows and not line.startswith("|"):
            break
        if line.startswith("| `"):
            rows.append(line.split("|")[1].strip().strip("`"))
    return rows


def test_readme_api_table_matches_the_package():
    cells = _api_table()
    assert len(cells) >= 10
    for cell in cells:
        call = re.fullmatch(r"(\w+)\((.*)\)", cell)
        if call is None:
            for name in re.split(r"\s*[,/]\s*", cell):
                assert name in ssbrp.__all__, name
            continue
        name, args = call[1], call[2].split(", ")
        assert name in ssbrp.__all__, name
        params = list(inspect.signature(getattr(ssbrp, name)).parameters)
        assert params[: len(args)] == args, cell
