"""Verdicts of compare.py on synthetic result sets."""

import json

import pytest

import compare
from compare import agreement, pair_rule, spread


def test_sets_within_the_bound_agree():
    a = [100.0, 101.0, 99.0, 100.5, 99.5]
    b = [104.0, 105.0, 103.0, 104.5, 103.5]
    assert agreement(a, b, bound=0.10, better="lower") == "agree"


@pytest.mark.parametrize(
    "better, verdict", [("lower", "worse"), ("higher", "better")]
)
def test_sets_apart_by_more_than_the_bound_differ(better, verdict):
    a = [100.0, 101.0, 99.0, 100.5, 99.5]
    b = [120.0, 121.0, 119.0, 120.5, 119.5]
    assert agreement(a, b, bound=0.10, better=better) == verdict


def test_a_set_whose_spread_exceeds_the_bound_is_unresolved():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    noisy = [70.0, 130.0, 100.0, 80.0, 120.0]
    assert spread(noisy) > 0.10
    assert agreement(steady, noisy, bound=0.10, better="lower") == "unresolved"
    assert agreement(noisy, steady, bound=0.10, better="lower") == "unresolved"


def test_pair_rule_needs_ten_pairs():
    assert pair_rule([10.0] * 9, [5.0] * 9, "lower")[0] == "too few pairs"


def test_pair_rule_gain_needs_nine_wins_in_ten():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.1, 9.9]
    change = [8.0] * 9 + [11.0]
    assert pair_rule(parent, change, "lower") == ("gain", 9, 10)
    change = [8.0] * 8 + [11.0, 11.0]
    assert pair_rule(parent, change, "lower") == ("no gain", 8, 10)


def test_pair_rule_gain_needs_a_shift_beyond_the_parent_iqr():
    parent = [10.0, 12.0, 8.0, 11.0, 9.0, 10.0, 12.0, 8.0, 11.0, 9.0]
    change = [p - 0.5 for p in parent]  # wins every pair, shift < IQR
    assert pair_rule(parent, change, "lower") == ("no gain", 10, 10)
    assert pair_rule(parent, [p + 5 for p in parent], "higher")[0] == "gain"


def write_set(directory, values_by_seed, failed=0):
    directory.mkdir()
    for seed, value in values_by_seed.items():
        result = {
            "workload": "sample-small",
            "seed": seed,
            "trace": 0,
            "failed": failed,
            "end_to_end": {"latency_p10_ms": value},
        }
        (directory / f"sample-small-seed{seed}-trace0.json").write_text(json.dumps(result))


@pytest.fixture
def spec(tmp_path, monkeypatch):
    metrics = [{"name": "latency_p10_ms", "unit": "ms", "better": "lower", "bound": 0.1}]
    monkeypatch.setattr(compare, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))


def test_cli_reports_agreement_and_exit_status(tmp_path, capsys, spec):
    write_set(tmp_path / "a", {s: 44.0 + s / 100 for s in range(5)})
    write_set(tmp_path / "b", {s: 44.5 + s / 100 for s in range(5, 10)})
    write_set(tmp_path / "c", {s: 60.0 + s / 100 for s in range(5)})
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith("agree")
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
    assert capsys.readouterr().out.splitlines()[1].endswith("worse")


def test_cli_pairs_deny_a_gain_that_fails_more_operations(tmp_path, capsys, spec):
    write_set(tmp_path / "parent", {s: 44.0 + s / 100 for s in range(10)})
    write_set(tmp_path / "clean", {s: 2.0 + s / 100 for s in range(10)})
    write_set(tmp_path / "failing", {s: 2.0 + s / 100 for s in range(10)}, failed=1)
    compare.main(["--pairs", str(tmp_path / "parent"), str(tmp_path / "clean")])
    assert capsys.readouterr().out.splitlines()[1].split()[-2:] == ["0/0", "gain"]
    compare.main(["--pairs", str(tmp_path / "parent"), str(tmp_path / "failing")])
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split()[-3:] == ["0/10", "no", "gain"]  # failed parent/change
