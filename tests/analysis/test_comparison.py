"""Tests for the qualitative shape checks."""

from repro.analysis.comparison import (
    check_crossover,
    check_flat,
    check_monotonic,
    check_within,
    compare_policies,
)
from repro.experiments.harness import ExperimentResult


def make_result(label, duration=10.0, proc_new=2.5, tentative=100, consistent=True):
    return ExperimentResult(
        label=label,
        failure_duration=duration,
        chain_depth=1,
        policy=label,
        proc_new=proc_new,
        max_gap=proc_new,
        n_tentative=tentative,
        n_stable=1000,
        n_undos=1,
        n_rec_done=1,
        eventually_consistent=consistent,
    )


def test_check_within_passes_and_fails():
    assert check_within("ok", 2.9, 3.0).passed
    assert check_within("ok with slack", 3.4, 3.0, slack=0.5).passed
    assert not check_within("too slow", 3.6, 3.0, slack=0.5).passed


def test_check_flat():
    assert check_flat("flat", [2.8, 2.9, 2.85]).passed
    assert not check_flat("not flat", [2.0, 4.0]).passed
    assert check_flat("with abs tolerance", [0.1, 0.3], absolute_tolerance=0.25).passed
    assert not check_flat("empty", []).passed


def test_check_monotonic_increasing_and_decreasing():
    assert check_monotonic("up", [1, 2, 3]).passed
    assert not check_monotonic("not up", [1, 3, 2]).passed
    assert check_monotonic("down", [3, 2, 1], increasing=False).passed
    assert check_monotonic("noisy up", [1.0, 0.95, 2.0], tolerance=0.1).passed
    assert check_monotonic("single", [1.0]).passed


def test_check_crossover_expected_winners():
    xs = [5.0, 60.0]
    series = {"Delay & Delay": [50, 1000], "Process & Process": [90, 1010]}
    check = check_crossover(
        "delay wins short, tie long",
        xs,
        {5.0: "Delay & Delay", 60.0: "tie"},
        series,
        tie_tolerance=20,
    )
    assert check.passed


def test_check_crossover_detects_wrong_winner():
    xs = [5.0]
    series = {"a": [100], "b": [50]}
    check = check_crossover("a should win", xs, {5.0: "a"}, series)
    assert not check.passed
    assert "expected a" in check.detail


def test_check_crossover_higher_is_better():
    xs = [1.0]
    series = {"a": [10], "b": [5]}
    assert check_crossover("a wins", xs, {1.0: "a"}, series, lower_is_better=False).passed


def test_compare_policies_sums_metric():
    results = [
        make_result("a", tentative=10),
        make_result("a", tentative=20),
        make_result("b", tentative=5),
    ]
    totals = compare_policies(results)
    assert totals == {"a": 30.0, "b": 5.0}
    proc_totals = compare_policies(results, metric="proc_new")
    assert proc_totals["a"] == 5.0


def test_shape_check_row_format():
    check = check_within("latency", 2.0, 3.0)
    assert check.row().startswith("[PASS] latency")
    assert "[FAIL]" in check_within("latency", 5.0, 3.0).row()
