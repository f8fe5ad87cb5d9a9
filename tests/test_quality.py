"""The quality report of ``quality.py`` and its seed-by-seed sign test."""

import json

import pytest

from quality import main, report, sign_test

WORKLOADS = ["palma-28", "wien-90", "fleet-mixed"]


def test_report_shape():
    got = report(seeds=[1, 2], max_iter=2)
    assert (got["max_iter"], got["seeds"]) == (2, [1, 2])
    assert list(got["workloads"]) == WORKLOADS
    for name, row in got["workloads"].items():
        q1, median, q3 = row["best_quartiles"]
        assert min(row["best"]) <= q1 <= median <= q3 <= max(row["best"]), name
        assert len(row["best"]) == len(row["iteration_of_best"]) == 2
        assert all(i >= 1 for i in row["iteration_of_best"])
        assert row["median_iteration_of_best"] == sum(row["iteration_of_best"]) / 2
        above = sum(b > row["do_nothing"] for b in row["best"]) / 2
        assert row["share_above_do_nothing"] == above
        assert row["median_seconds"] > 0
    # wien-90's best is above do-nothing's total on every master seed
    assert got["workloads"]["wien-90"]["share_above_do_nothing"] == 1.0


def _report(best):
    return {"max_iter": 2, "seeds": list(range(1, len(best) + 1)), "workloads": {"w": {"best": best}}}


def test_sign_test_counts_seeds_and_gives_the_exact_p_value():
    before = _report([0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
    assert sign_test(before, before) == {"w": {"lower": 0, "higher": 0, "equal": 6, "p_value": 1.0}}
    after = _report([0.4, 0.4, 0.4, 0.4, 0.4, 0.5])
    # five of five lower: 2 * (1/2)**5
    assert sign_test(before, after) == {"w": {"lower": 5, "higher": 0, "equal": 1, "p_value": 0.0625}}
    mixed = _report([0.4, 0.6, 0.4, 0.5, 0.5, 0.5])
    assert sign_test(before, mixed)["w"] == {"lower": 2, "higher": 1, "equal": 3, "p_value": 1.0}
    with pytest.raises(ValueError, match="seeds or max_iter"):
        sign_test(before, _report([0.5]))


def test_compare_prints_the_sign_test(tmp_path, capsys):
    paths = [tmp_path / "before.json", tmp_path / "after.json"]
    for path, best in zip(paths, ([0.5, 0.5, 0.5], [0.4, 0.4, 0.4])):
        path.write_text(json.dumps(_report(best)))
    assert main(["--compare", *map(str, paths)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["w", "3", "0", "0", "0.25"]
