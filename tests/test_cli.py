import csv
import json
import re

import pytest

from ssbrp.cli import SWEEP_COLUMNS, main
from ssbrp.instances import parse_instance, parse_solution


def _generate(tmp_path, name="inst.json", extra=()):
    path = tmp_path / name
    argv = [
        "generate", "--family", "palma", "--stations", "5", "--vehicles", "2",
        "--time-budget-min", "60", "--seed", "7", "--out", str(path),
    ]
    assert main(argv + list(extra)) == 0
    return path


def test_generate_writes_document(tmp_path, capsys):
    path = _generate(tmp_path)
    out = capsys.readouterr().out
    assert str(path) in out
    assert "5 stations" in out
    inst = parse_instance(json.loads(path.read_text()))
    assert len(inst.stations) == 5
    assert len(inst.fleet) == 2
    assert inst.time_budget == 60.0


def test_generate_stdout_keeps_summary_on_stderr(capsys):
    assert main(["generate", "--stations", "3", "--time-budget-min", "50"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert len(doc["stations"]) == 3
    assert "3 stations" in captured.err


def test_generate_is_deterministic(tmp_path):
    a = _generate(tmp_path, "a.json")
    b = _generate(tmp_path, "b.json")
    assert a.read_text() == b.read_text()


def test_generate_rejects_bad_config(capsys):
    assert main(["generate", "--stations", "0"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_solve_writes_feasible_solution(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    sol_path = tmp_path / "sol.json"
    code = main([
        "solve", "--instance", str(inst_path), "--out", str(sol_path),
        "--max-iter", "4", "--seed", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "objective total" in out
    assert "best found at iteration" in out
    assert re.search(r"loading [0-9.]+ s, \d+ skipped by the bound\)", out)
    inst = parse_instance(json.loads(inst_path.read_text()))
    doc = json.loads(sol_path.read_text())
    assert doc["seed"] == 1
    assert doc["params"]["theta"] == 0.5
    parse_solution(doc, inst)  # raises if infeasible
    assert main(["validate", "--instance", str(inst_path), "--solution", str(sol_path)]) == 0
    assert "feasible" in capsys.readouterr().out


def test_solve_is_deterministic(tmp_path):
    inst_path = _generate(tmp_path)
    outs = []
    for name in ("s1.json", "s2.json"):
        sol = tmp_path / name
        assert main([
            "solve", "--instance", str(inst_path), "--out", str(sol),
            "--max-iter", "4", "--seed", "42",
        ]) == 0
        outs.append(sol.read_text())
    assert outs[0] == outs[1]


def test_solve_gamma_t_zero_drops_time_from_total(tmp_path):
    inst_path = _generate(tmp_path)
    sol_path = tmp_path / "sol.json"
    assert main([
        "solve", "--instance", str(inst_path), "--out", str(sol_path),
        "--max-iter", "4", "--gamma-t", "0",
    ]) == 0
    obj = json.loads(sol_path.read_text())["objective"]
    assert obj["total"] == pytest.approx(obj["imbalance"] + obj["damaged"], abs=1e-12)
    assert obj["time"] > 0


def test_solve_rejects_bad_runtime_config(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    assert main(["solve", "--instance", str(inst_path), "--max-iter", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_flags_overload_and_stale_objective(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    sol_path = tmp_path / "sol.json"
    assert main([
        "solve", "--instance", str(inst_path), "--out", str(sol_path),
        "--max-iter", "4",
    ]) == 0
    capsys.readouterr()

    doc = json.loads(sol_path.read_text())
    tampered = tmp_path / "overload.json"
    bad = json.loads(json.dumps(doc))
    bad["routes"][0]["visits"] = [0, 1, 0]
    bad["routes"][0]["moves"] = [
        {"operative": 0, "damaged": 0},
        {"operative": 99, "damaged": 0},
        {"operative": -99, "damaged": 0},
    ]
    tampered.write_text(json.dumps(bad))
    assert main(["validate", "--instance", str(inst_path), "--solution", str(tampered)]) == 1
    assert "exceeds capacity" in capsys.readouterr().out

    stale = json.loads(json.dumps(doc))
    stale["objective"]["total"] = stale["objective"]["total"] + 0.25
    stale_path = tmp_path / "stale.json"
    stale_path.write_text(json.dumps(stale))
    assert main(["validate", "--instance", str(inst_path), "--solution", str(stale_path)]) == 1
    assert "objective.total: stored" in capsys.readouterr().out


def test_sweep_single_cell_matches_solve(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    assert main([
        "solve", "--instance", str(inst_path), "--max-iter", "3", "--seed", "0",
        "--theta", "0.5", "--mu", "1.5",
    ]) == 0
    solve_out = capsys.readouterr().out
    total = float(solve_out.split("objective total ")[1].split(" ")[0])

    csv_path = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--instance", str(inst_path), "--max-iter", "3", "--seed", "0",
        "--theta", "0.5", "--mu", "1.5", "--out", str(csv_path),
    ]) == 0
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(rows) == 1
    row = rows[0]
    assert row["family"] == "custom"
    assert row["n_instances"] == "1"
    assert row["n_seeds"] == "1"
    assert float(row["of_mean"]) == pytest.approx(total, abs=1e-6)
    assert row["of_mean"] == row["of_best"]


def test_sweep_default_grid_has_nine_rows_per_family(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--family", "palma", "--max-iter", "2", "--out", str(csv_path),
    ]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    rows = list(csv.DictReader(lines))
    assert len(rows) == 9
    grid = [(row["theta"], row["mu"]) for row in rows]
    assert grid == [(t, m) for t in ("0.3", "0.5", "0.8") for m in ("1", "1.5", "2")]
    assert all(row["family"] == "palma" for row in rows)


def test_sweep_multiple_seeds_aggregates(tmp_path):
    inst_path = _generate(tmp_path)
    csv_path = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--instance", str(inst_path), "--max-iter", "2",
        "--theta", "0.5", "--mu", "1.5", "--seeds", "3",
        "--out", str(csv_path),
    ]) == 0
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(rows) == 1
    assert rows[0]["n_seeds"] == "3"
    assert float(rows[0]["of_best"]) <= float(rows[0]["of_mean"]) + 1e-12


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # --instance is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_io_failures_exit_one(tmp_path, capsys):
    assert main(["solve", "--instance", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["solve", "--instance", str(garbage)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "keys, path",
    [
        (("time_budget_min",), "time_budget_min"),
        (("stations", 2, "weight"), r"stations\[2\]\.weight"),
        (("travel_min", 1, 3), r"travel_min\[1\]\[3\]"),
    ],
    ids=["time_budget_min", "weight", "travel_min"],
)
def test_solve_reports_number_beyond_float_range(tmp_path, capsys, keys, path):
    inst_path = _generate(tmp_path)
    doc = json.loads(inst_path.read_text())
    *parents, last = keys
    target = doc
    for key in parents:
        target = target[key]
    target[last] = 10**400  # a valid JSON integer that no float can hold
    inst_path.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(inst_path), "--max-iter", "2"]) == 1
    assert re.search(rf"error: {path}: must be a finite number", capsys.readouterr().err)
