"""The README quotes the CLI as it is: each example that shows its output is
re-run through ``ssbrp.cli.main`` and prints the quoted lines, every
``ssbrp`` line of an ``sh`` block parses, and every quoted demo exists. It
names the same Python and NumPy floors as ``pyproject.toml`` and the CI
workflow, and
quotes the gap table that ``tests/oracle.py`` prints."""

import os
import re
import shlex
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from ssbrp.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _blocks(text):
    """The top-level fenced blocks as ``(info, lines, follows)``, in order;
    ``follows`` tells whether only blank lines separate a block from the
    one before it."""
    blocks, info, body, between = [], None, [], []
    for line in text.splitlines():
        if info is None and line.startswith("```"):
            info, body = line[3:].strip(), []
        elif info is not None and line == "```":
            blocks.append((info, body, not any(s.strip() for s in between)))
            info, between = None, []
        elif info is not None:
            body.append(line)
        else:
            between.append(line)
    return blocks


def _examples(text):
    """``(commands, output)`` pairs: an ``sh`` block directly followed by a
    plain block, which quotes what its commands print."""
    blocks = _blocks(text)
    return [
        (commands, output)
        for (info, commands, _), (next_info, output, follows) in zip(blocks, blocks[1:])
        if info == "sh" and next_info == "" and follows
    ]


def _masked(lines):
    """The lines with the elapsed seconds and the ``cpu_mean_s`` column
    replaced, the only parts of an example's output that vary by machine."""
    masked, cpu = [], None
    for line in lines:
        if line.startswith("elapsed "):
            line = re.sub(r"\b\d+\.\d+ s\b", "… s", line)
        fields = line.split(",")
        if "cpu_mean_s" in fields:
            cpu = fields.index("cpu_mean_s")
        elif cpu is not None and len(fields) > cpu:
            fields[cpu] = "…"
            line = ",".join(fields)
        masked.append(line)
    return masked


EXAMPLES = _examples(README)
SH_LINES = [
    argv
    for info, body, _ in _blocks(README)
    if info == "sh"
    for argv in (shlex.split(line, comments=True) for line in body)
    if argv
]
SSBRP_LINES = [argv for argv in SH_LINES if argv[0] == "ssbrp"]
DEMO_PATHS = [argv[1] for argv in SH_LINES if argv[0] == "python3" and argv[1].startswith("demos/")]


def test_examples_cover_every_command():
    commands = {shlex.split(line)[1] for lines, _ in EXAMPLES for line in lines}
    assert commands == {"generate", "solve", "sweep", "validate"}


def test_examples_print_what_the_readme_quotes(tmp_path, monkeypatch, capsys):
    # in README order: later examples read the files earlier ones write
    monkeypatch.chdir(tmp_path)
    for commands, quoted in EXAMPLES:
        for line in commands:
            argv = shlex.split(line, comments=True)
            assert argv[0] == "ssbrp", line
            assert main(argv[1:]) == 0, line
        printed = capsys.readouterr().out.splitlines()
        assert _masked(printed) == _masked(quoted), commands


def test_mask_hides_only_times():
    elapsed = "elapsed 0.07 s (construction 0.06 s, loading 0.01 s, 237 skipped by the bound, 4 certified by it)"
    assert _masked([elapsed]) == _masked([elapsed.replace("0.07", "1.52").replace("0.01", "0.10")])
    assert _masked([elapsed]) != _masked([elapsed.replace("237", "238")])
    assert _masked([elapsed]) != _masked([elapsed.replace("4 certified", "5 certified")])
    header = "family,theta,mu,of_mean,of_best,iter_mean,cpu_mean_s,n_instances,n_seeds"
    row = "custom,0.3,1.5,0.783333,0.772917,61.00,0.076,1,2"
    assert _masked([header, row]) == _masked([header, row.replace("0.076", "0.120")])
    assert _masked([header, row]) != _masked([header, row.replace("61.00", "61.50")])
    assert _masked([header, row]) != _masked([header, row.replace("1,2", "2,2")])


def test_sh_blocks_quote_commands_and_demos():
    assert len(SSBRP_LINES) >= 7
    assert len(DEMO_PATHS) >= 4


@pytest.mark.parametrize("argv", SSBRP_LINES, ids=lambda argv: " ".join(argv[1:3]))
def test_quoted_command_parses(argv):
    try:
        build_parser().parse_args(argv[1:])
    except SystemExit:
        pytest.fail(f"does not parse: {shlex.join(argv)}")


@pytest.mark.parametrize("path", DEMO_PATHS)
def test_quoted_demo_exists(path):
    assert (ROOT / path).is_file()


def test_python_floor_is_the_same_everywhere():
    # the workflow tests on the floor, the lowest Python that the required
    # SciPy (>= 1.17) and the NumPy it needs install on: 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    floors = {
        "pyproject.toml": re.fullmatch(r">=(3\.\d+)", project["requires-python"]).group(1),
        "README.md": re.search(r"Requires Python ≥ (3\.\d+)", README).group(1),
        "tier1.yml": re.search(r'python-version: "(3\.\d+)"', workflow).group(1),
    }
    assert len(set(floors.values())) == 1, floors


def test_numpy_floor_is_the_same_everywhere():
    # the lowest NumPy the required SciPy (1.17) installs with; the workflow
    # runs phase one's tests on it, since phase one reads PCG64's raw words
    # the way NumPy's Generator does
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    (numpy,) = [d for d in project["dependencies"] if d.startswith("numpy")]
    floors = {
        "pyproject.toml": re.fullmatch(r"numpy>=([\d.]+)", numpy).group(1),
        "README.md": re.search(r"NumPy ≥ ([\d.]+)", README).group(1),
        "tier1.yml": re.search(r"numpy==([\d.]+)", workflow).group(1),
    }
    assert len(set(floors.values())) == 1, floors


def test_oracle_script_prints_the_quoted_gap_table(tmp_path):
    # run as the README says, from a checkout without an install: no PYTHONPATH
    (table,) = [
        lines for _, lines, _ in _blocks(README) if lines and lines[0].startswith("instance  route")
    ]
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "oracle.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == table
