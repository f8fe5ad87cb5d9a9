import csv
import dataclasses
import json
import re

import pytest

from ssbrp import cli, loading
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


@pytest.mark.parametrize("budget", ["nan", "inf", "-inf", "0"])
def test_generate_rejects_non_finite_time_budget(capsys, budget):
    # nan <= 0 is false: unchecked, a nan budget fails every round-trip test
    # and the generator reports a budget too small for any station
    assert main(["generate", "--stations", "3", f"--time-budget-min={budget}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: time budget must be positive and finite\n"
    assert captured.out == ""


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
    assert re.search(r"loading [0-9.]+ s, \d+ skipped by the bound, \d+ certified by it\)", out)
    inst = parse_instance(json.loads(inst_path.read_text()))
    doc = json.loads(sol_path.read_text())
    assert doc["seed"] == 1
    # the run's parameters, in RunConfig's field order
    assert list(doc["params"].items()) == [
        ("theta", 0.5), ("mu", 1.5), ("max_iter", 4),
        ("gamma_d", 1.0), ("gamma_a", 1.0), ("gamma_t", 1.0),
    ]
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


def test_solve_rejects_non_finite_gamma(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    argv = ["solve", "--instance", str(inst_path), "--max-iter", "3", "--gamma-d", "nan"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --gamma-d must be finite, got nan\n"


_ALL_GAMMAS_ZERO = "--gamma-d, --gamma-a and --gamma-t are all 0; at least one must be positive"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--gamma-t", "-1"], "--gamma-t must be nonnegative, got -1.0"),
        (["--gamma-a", "-0.5"], "--gamma-a must be nonnegative, got -0.5"),
        (["--gamma-d", "0", "--gamma-a", "0", "--gamma-t", "0"], _ALL_GAMMAS_ZERO),
    ],
    ids=["negative-t", "negative-a", "all-zero"],
)
def test_solve_names_the_bad_gamma_flag(tmp_path, capsys, flags, message):
    inst_path = _generate(tmp_path)
    sol_path = tmp_path / "sol.json"
    argv = ["solve", "--instance", str(inst_path), "--max-iter", "3", "--out", str(sol_path)]
    capsys.readouterr()
    assert main(argv + flags) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not sol_path.exists()


def test_solve_rejects_gammas_whose_total_overflows(tmp_path, capsys):
    # each gamma is finite, but a built route's weighted total is inf
    inst_path = _generate(tmp_path)
    sol_path = tmp_path / "sol.json"
    argv = ["solve", "--instance", str(inst_path), "--max-iter", "3", "--out", str(sol_path)]
    gammas = ["--gamma-d", "1.7e308", "--gamma-a", "1.7e308", "--gamma-t", "1.7e308"]
    capsys.readouterr()
    assert main(argv + gammas) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: objective is not finite: imbalance .*, total inf\n", err)
    assert not sol_path.exists()


def test_solve_rejects_non_finite_mu(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    argv = ["solve", "--instance", str(inst_path), "--max-iter", "3", "--mu", "nan"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: mu must be positive and finite\n"


def test_validate_reports_malformed_params(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    sol_path = tmp_path / "sol.json"
    argv = ["solve", "--instance", str(inst_path), "--out", str(sol_path), "--max-iter", "2"]
    assert main(argv) == 0
    doc = json.loads(sol_path.read_text())
    doc["params"] = [1]
    sol_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", "--instance", str(inst_path), "--solution", str(sol_path)]) == 1
    assert capsys.readouterr().out == "params: wrong type\n"


def test_validate_reports_a_negative_gamma_by_path(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    sol_path = tmp_path / "sol.json"
    argv = ["solve", "--instance", str(inst_path), "--out", str(sol_path), "--max-iter", "2"]
    assert main(argv) == 0
    doc = json.loads(sol_path.read_text())
    doc["params"] = {"gamma_d": -1}
    sol_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", "--instance", str(inst_path), "--solution", str(sol_path)]) == 1
    assert capsys.readouterr().out == "params.gamma_d: must be nonnegative\n"


@pytest.mark.parametrize(
    "objective, out",
    [
        ({"total": None}, "objective.total: wrong type"),
        ({"total": [1.0]}, "objective.total: wrong type"),
        ({"total": {"value": 1.0}}, "objective.total: wrong type"),
        ({"total": "1.0"}, "objective.total: wrong type"),
        ({"damaged": True}, "objective.damaged: wrong type"),
        ({"time": 10**400}, "objective.time: must be a finite number"),
        ([1.0], "objective: wrong type"),
        ("total", "objective: wrong type"),
    ],
    ids=["null", "list", "object", "string", "bool", "huge-int", "objective-list", "objective-string"],
)
def test_validate_reports_malformed_objective(tmp_path, capsys, objective, out):
    inst_path = _generate(tmp_path)
    sol_path = tmp_path / "sol.json"
    argv = ["solve", "--instance", str(inst_path), "--out", str(sol_path), "--max-iter", "2"]
    assert main(argv) == 0
    doc = json.loads(sol_path.read_text())
    doc["objective"] = {**doc["objective"], **objective} if isinstance(objective, dict) else objective
    sol_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", "--instance", str(inst_path), "--solution", str(sol_path)]) == 1
    assert capsys.readouterr().out == out + "\n"


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


def test_sweep_runs_a_repeated_grid_value_once(tmp_path, monkeypatch):
    # a cell named twice once wrote two identical rows, each from its own runs
    inst_path = _generate(tmp_path)
    real_run, cells = cli.run, []

    def counted(instance, config):
        cells.append((config.construction.theta, config.construction.mu))
        return real_run(instance, config)

    monkeypatch.setattr(cli, "run", counted)
    csv_path = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--instance", str(inst_path), "--max-iter", "2", "--seeds", "2",
        "--theta", "0.5", "--theta", "0.3", "--theta", "0.5", "--mu", "1", "--mu", "1",
        "--out", str(csv_path),
    ]) == 0
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert [(row["theta"], row["mu"]) for row in rows] == [("0.5", "1"), ("0.3", "1")]
    assert cells == [(0.5, 1.0)] * 2 + [(0.3, 1.0)] * 2


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_sweep_rejects_fewer_than_one_seed(tmp_path, capsys, seeds):
    csv_path = tmp_path / "sweep.csv"
    argv = ["sweep", "--family", "palma", "--max-iter", "2", "--seeds", seeds, "--out", str(csv_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: --seeds must be at least 1, got {seeds}\n"
    assert not csv_path.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-iter", "1"], "max_iter must be at least 2"),
        (["--gamma-d", "nan"], "--gamma-d must be finite, got nan"),
        (["--gamma-t", "-1"], "--gamma-t must be nonnegative, got -1.0"),
        (["--gamma-d", "0", "--gamma-a", "0", "--gamma-t", "0"], _ALL_GAMMAS_ZERO),
        (["--theta", "0.5", "--theta", "2"], "theta must lie in (0, 1]"),
    ],
    ids=["max-iter", "gamma-d", "gamma-t-negative", "gammas-all-zero", "theta"],
)
def test_sweep_checks_its_configuration_before_any_run(tmp_path, capsys, flags, message):
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--family", "palma", *flags, "--out", str(csv_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not csv_path.exists()


def test_sweep_reports_failed_runs_and_goes_on(tmp_path, capsys, monkeypatch):
    # seed 1 fails in every cell and theta 0.8 in every seed; the rest run
    inst_path = _generate(tmp_path)
    real_run = cli.run
    kept = []

    def flaky(instance, config):
        if config.master_seed == 1 or config.construction.theta == 0.8:
            raise RuntimeError(f"boom at seed {config.master_seed}")
        report = real_run(instance, config)
        kept.append((config.master_seed, report))
        return report

    monkeypatch.setattr(cli, "run", flaky)
    csv_path = tmp_path / "sweep.csv"
    capsys.readouterr()
    assert main([
        "sweep", "--instance", str(inst_path), "--max-iter", "2", "--seed", "0", "--seeds", "3",
        "--theta", "0.3", "--theta", "0.8", "--mu", "1.5", "--out", str(csv_path),
    ]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "sweep cell (custom, 0.3, 1.5) seed 1 failed: boom at seed 1",
        "sweep cell (custom, 0.8, 1.5) seed 0 failed: boom at seed 0",
        "sweep cell (custom, 0.8, 1.5) seed 1 failed: boom at seed 1",
        "sweep cell (custom, 0.8, 1.5) seed 2 failed: boom at seed 2",
    ]
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert [(row["theta"], row["n_seeds"]) for row in rows] == [("0.3", "3"), ("0.8", "3")]
    # the first cell aggregates seeds 0 and 2
    assert [seed for seed, _ in kept] == [0, 2]
    totals = [report.best_objective.total for _, report in kept]
    iters = [report.iteration_of_best for _, report in kept]
    assert rows[0]["of_mean"] == f"{sum(totals) / 2:.6f}"
    assert rows[0]["of_best"] == f"{min(totals):.6f}"
    assert rows[0]["iter_mean"] == f"{sum(iters) / 2:.2f}"
    assert [rows[1][key] for key in ("of_mean", "of_best", "iter_mean", "cpu_mean_s")] == [
        "nan"
    ] * 4


def test_sweep_reports_the_runs_own_elapsed_seconds(tmp_path, monkeypatch):
    # cpu_mean_s is the mean of RunReport.elapsed_total, not a second clock around run()
    inst_path = _generate(tmp_path)
    real_run = cli.run

    def timed(instance, config):
        report = real_run(instance, config)
        return dataclasses.replace(report, elapsed_total=40.0 + config.master_seed)

    monkeypatch.setattr(cli, "run", timed)
    csv_path = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--instance", str(inst_path), "--max-iter", "2", "--seed", "0", "--seeds", "2",
        "--theta", "0.5", "--mu", "1.5", "--out", str(csv_path),
    ]) == 0
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert [row["cpu_mean_s"] for row in rows] == ["40.500"]


@pytest.mark.parametrize("command", ["solve", "sweep", "generate"])
def test_negative_seed_is_rejected_up_front(tmp_path, capsys, command):
    inst_path = _generate(tmp_path)
    out_path = tmp_path / "out"
    argv = [command, "--seed", "-1", "--max-iter", "2", "--out", str(out_path)]
    if command == "generate":
        argv = [command, "--seed", "-1", "--out", str(out_path)]
    elif command == "solve":
        argv += ["--instance", str(inst_path)]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: --seed must be nonnegative, got -1\n")
    assert not out_path.exists()


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


def test_failed_phase_two_solve_exits_one(tmp_path, capsys, monkeypatch):
    # with no branch-and-bound node allowed, the first phase-two solve raises
    inst_path = tmp_path / "wien.json"
    argv = ["generate", "--family", "wien", "--stations", "90", "--seed", "1"]
    assert main(argv + ["--out", str(inst_path)]) == 0
    sol_path = tmp_path / "sol.json"
    monkeypatch.setattr(loading, "_NODE_LIMIT", 0)
    capsys.readouterr()
    argv = ["solve", "--instance", str(inst_path), "--max-iter", "20", "--seed", "0"]
    assert main(argv + ["--out", str(sol_path)]) == 1
    assert capsys.readouterr() == ("", "error: branch-and-bound node limit exceeded\n")
    assert not sol_path.exists()


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
