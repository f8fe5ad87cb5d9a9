"""Every demo script runs to completion against the current public API, and
the README's table of entry points names that API."""

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
