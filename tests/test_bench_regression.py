"""Unit tests for the benchmark trend-tracking comparison (CI regression gate)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "check_bench_regression.py"
_spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
cbr = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cbr)


def bench_json(path: Path, metrics: dict) -> Path:
    """Write a minimal pytest-benchmark JSON file with ``extra_info`` metrics."""
    payload = {
        "benchmarks": [
            {"name": test, "extra_info": extra} for test, extra in metrics.items()
        ]
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_tracked_direction_classification():
    assert cbr.tracked_direction("shard(4)_events") == 1
    assert cbr.tracked_direction("failure_8s_proc_new") == 1
    assert cbr.tracked_direction("shard(4)_stable_tuples") == -1
    # Bounded retention: more tuples left buffered, or growth with run length.
    assert cbr.tracked_direction("shard4_output_buffered_end") == 1
    assert cbr.tracked_direction("shard4_retention_ratio") == 1
    # The client's own stores: packed bytes per ledger tuple.
    assert cbr.tracked_direction("shard4_client_bytes_per_tuple") == 1
    # Wall-clock-derived metrics are informational, never trend-gated.
    assert cbr.tracked_direction("shard4_vs_chain_speedup") == 0
    assert cbr.tracked_direction("wall_seconds") == 0


def test_compare_flags_event_and_proc_new_regressions():
    baseline = {"t": {"x_events": 1000.0, "x_proc_new": 1.0, "x_stable_tuples": 500.0}}
    worse = {"t": {"x_events": 1101.0, "x_proc_new": 1.0, "x_stable_tuples": 500.0}}
    regressions, _ = cbr.compare(baseline, worse, tolerance=0.10)
    assert len(regressions) == 1 and "x_events" in regressions[0]
    slower = {"t": {"x_events": 1000.0, "x_proc_new": 1.2, "x_stable_tuples": 500.0}}
    regressions, _ = cbr.compare(baseline, slower, tolerance=0.10)
    assert len(regressions) == 1 and "x_proc_new" in regressions[0]


def test_compare_gates_output_buffer_retention():
    baseline = {"t": {"shard4_output_buffered_end": 3194.0, "shard4_retention_ratio": 1.0}}
    unbounded = {"t": {"shard4_output_buffered_end": 71028.0, "shard4_retention_ratio": 3.0}}
    regressions, _ = cbr.compare(baseline, unbounded, tolerance=0.10)
    assert len(regressions) == 2
    tighter = {"t": {"shard4_output_buffered_end": 1600.0, "shard4_retention_ratio": 1.0}}
    regressions, _ = cbr.compare(baseline, tighter, tolerance=0.10)
    assert not regressions
    # The checked-in baseline carries both, so dropping them fails the gate.
    checked_in = json.loads((_SCRIPT.parent / "BENCH_baseline.json").read_text(encoding="utf-8"))
    assert checked_in["test_shard4_deployment_hot_path"]["shard4_retention_ratio"] < 1.5
    assert "shard4_output_buffered_end" in checked_in["test_shard4_deployment_hot_path"]


def test_compare_gates_split_egress():
    baseline = {"t": {"filtered_split_egress_tuples": 18473.0}}
    full_stream_to_every_shard = {"t": {"filtered_split_egress_tuples": 72104.0}}
    regressions, _ = cbr.compare(baseline, full_stream_to_every_shard, tolerance=0.10)
    assert len(regressions) == 1 and "split_egress_tuples" in regressions[0]
    checked_in = json.loads((_SCRIPT.parent / "BENCH_baseline.json").read_text(encoding="utf-8"))
    assert "filtered_split_egress_tuples" in checked_in["test_filtered_subscription_split_egress"]


def test_compare_gates_client_store_bytes_per_tuple():
    baseline = {"t": {"shard4_client_bytes_per_tuple": 75.04}}
    objects_again = {"t": {"shard4_client_bytes_per_tuple": 630.0}}
    regressions, _ = cbr.compare(baseline, objects_again, tolerance=0.10)
    assert len(regressions) == 1 and "client_bytes_per_tuple" in regressions[0]
    assert not cbr.compare(baseline, {"t": {"shard4_client_bytes_per_tuple": 70.0}}, 0.10)[0]
    checked_in = json.loads((_SCRIPT.parent / "BENCH_baseline.json").read_text(encoding="utf-8"))
    assert checked_in["test_shard4_deployment_hot_path"]["shard4_client_bytes_per_tuple"] < 120


def test_compare_gates_calls_per_source_tuple_as_an_upper_bound():
    assert cbr.tracked_direction("calls_per_source_tuple") == 1
    bound = {"t": {"calls_per_source_tuple": 120.0}}
    # An upper bound, not a measurement: no tolerance above it, any value below passes.
    assert cbr.compare(bound, {"t": {"calls_per_source_tuple": 120.5}}, tolerance=0.10)[0]
    assert not cbr.compare(bound, {"t": {"calls_per_source_tuple": 77.1}}, tolerance=0.10)[0]
    assert cbr.compare(bound, {"t": {}}, tolerance=0.10)[0]  # dropping it fails too
    checked_in = json.loads((_SCRIPT.parent / "BENCH_baseline.json").read_text(encoding="utf-8"))
    assert checked_in["test_shard4_deployment_hot_path"]["calls_per_source_tuple"] <= 120


def test_compare_gates_failure_path_calls_per_source_tuple():
    """The window-crash and chain-4 disconnect call counters are upper bounds too."""
    checked_in = json.loads((_SCRIPT.parent / "BENCH_baseline.json").read_text(encoding="utf-8"))
    bounds = checked_in["test_failure_path_work_counters"]
    assert bounds["window_crash_calls_per_source_tuple"] <= 30  # 45.0 with a per-row pane loop
    assert bounds["chain4_disconnect_calls_per_source_tuple"] <= 450.3  # never above PR 20's
    baseline = {"test_failure_path_work_counters": bounds}
    per_row_again = {"test_failure_path_work_counters": {**bounds, "window_crash_calls_per_source_tuple": 45.0}}
    regressions, _ = cbr.compare(baseline, per_row_again, tolerance=0.10)
    assert len(regressions) == 1 and "window_crash_calls" in regressions[0]
    measured = {"window_crash_calls_per_source_tuple": 20.5, "chain4_disconnect_calls_per_source_tuple": 435.0}
    assert not cbr.compare(baseline, {"test_failure_path_work_counters": measured}, 0.10)[0]


def test_compare_gates_row_constructions_per_source_tuple(tmp_path):
    assert cbr.tracked_direction("row_constructions_per_source_tuple") == 1
    bound = {"t": {"row_constructions_per_source_tuple": 4.0}}
    per_row_loop_again = {"t": {"row_constructions_per_source_tuple": 21.1}}
    regressions, _ = cbr.compare(bound, per_row_loop_again, tolerance=0.10)
    assert len(regressions) == 1 and "row_constructions" in regressions[0]
    assert not cbr.compare(bound, {"t": {"row_constructions_per_source_tuple": 0.0}}, 0.10)[0]
    checked_in = json.loads((_SCRIPT.parent / "BENCH_baseline.json").read_text(encoding="utf-8"))
    assert checked_in["test_shard4_deployment_hot_path"]["row_constructions_per_source_tuple"] <= 4
    # Rewriting the baseline from a run keeps the bound, not the measurement.
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(bound), encoding="utf-8")
    run = bench_json(tmp_path / "run.json", {"t": {"row_constructions_per_source_tuple": 0.3}})
    assert cbr.main([str(run), "--baseline", str(baseline), "--write-baseline"]) == 0
    assert json.loads(baseline.read_text(encoding="utf-8")) == bound


def test_compare_inverts_delivered_tuple_direction():
    baseline = {"t": {"x_stable_tuples": 500.0}}
    # Fewer delivered tuples is a regression ...
    regressions, _ = cbr.compare(baseline, {"t": {"x_stable_tuples": 400.0}})
    assert regressions
    # ... more is an improvement, as are fewer events.
    regressions, _ = cbr.compare(baseline, {"t": {"x_stable_tuples": 600.0}})
    assert not regressions
    baseline = {"t": {"x_events": 1000.0}}
    regressions, _ = cbr.compare(baseline, {"t": {"x_events": 500.0}})
    assert not regressions


def test_wall_clock_metrics_warn_but_never_fail():
    assert cbr.wall_direction("fragment_wall_ms") == 1
    assert cbr.wall_direction("shard(4)_tuples_per_sec") == -1
    assert cbr.wall_direction("x_events") == 0
    baseline = {"t": {"x_wall_ms": 100.0, "x_tuples_per_sec": 1000.0}}
    # A 3x wall-clock blowup: warned about, but never a failing regression.
    regressions, lines = cbr.compare(
        baseline, {"t": {"x_wall_ms": 300.0, "x_tuples_per_sec": 300.0}}
    )
    assert not regressions
    assert sum("WALL-CLOCK WARNING" in line for line in lines) == 2
    # Within the generous tolerance: plain trajectory lines.
    regressions, lines = cbr.compare(
        baseline, {"t": {"x_wall_ms": 120.0, "x_tuples_per_sec": 900.0}}
    )
    assert not regressions
    assert sum("[wall ok]" in line for line in lines) == 2
    # A benchmark with only wall metrics may be skipped without failing, and
    # a dropped wall metric is noted, not failed.
    regressions, lines = cbr.compare(baseline, {})
    assert not regressions and any("not measured" in line for line in lines)
    regressions, lines = cbr.compare(baseline, {"t": {"x_wall_ms": 100.0}})
    assert not regressions
    assert any("x_tuples_per_sec" in line and "not measured" in line for line in lines)


def test_compare_within_tolerance_passes():
    baseline = {"t": {"x_events": 1000.0}}
    regressions, lines = cbr.compare(baseline, {"t": {"x_events": 1099.0}}, tolerance=0.10)
    assert not regressions
    assert any("+9.9%" in line for line in lines)


def test_new_tests_and_metrics_never_fail_but_dropped_metrics_do():
    baseline = {"t": {"x_events": 1000.0}}
    # A brand-new benchmark is reported, not failed.
    regressions, lines = cbr.compare(baseline, {"t2": {"y_events": 5.0}, "t": {"x_events": 1000.0}})
    assert not regressions
    assert any("NEW" in line for line in lines)
    # Silently dropping a tracked baseline metric fails.
    regressions, _ = cbr.compare(baseline, {"t": {"other_events": 1.0}})
    assert regressions and "missing" in regressions[0]


def test_dropping_a_whole_tracked_benchmark_fails():
    """Not running a tracked benchmark must not silently disable the gate."""
    baseline = {"t": {"x_events": 1000.0}, "info_only": {"note_count": 3.0}}
    regressions, lines = cbr.compare(baseline, {})
    assert len(regressions) == 1 and regressions[0].startswith("t:")
    # A baseline test with no *tracked* metrics may be skipped freely.
    assert any("info_only: not measured" in line for line in lines)


def test_zero_baseline_growth_respects_metric_direction():
    # Growth from a zero baseline: regression for larger-is-worse metrics ...
    regressions, _ = cbr.compare({"t": {"x_events": 0.0}}, {"t": {"x_events": 5.0}})
    assert regressions
    # ... improvement for smaller-is-worse metrics.
    regressions, _ = cbr.compare(
        {"t": {"x_stable_tuples": 0.0}}, {"t": {"x_stable_tuples": 500.0}}
    )
    assert not regressions
    # Zero -> zero is no change either way.
    regressions, _ = cbr.compare({"t": {"x_events": 0.0}}, {"t": {"x_events": 0.0}})
    assert not regressions


def test_main_round_trip(tmp_path):
    results = bench_json(
        tmp_path / "run.json", {"t": {"x_events": 100, "x_stable_tuples": 50, "note": "x"}}
    )
    baseline = tmp_path / "baseline.json"
    assert cbr.main([str(results), "--baseline", str(baseline), "--write-baseline"]) == 0
    # Identical run: clean pass.
    assert cbr.main([str(results), "--baseline", str(baseline)]) == 0
    # Regressed run: exit 1.
    worse = bench_json(
        tmp_path / "worse.json", {"t": {"x_events": 200, "x_stable_tuples": 50}}
    )
    assert cbr.main([str(worse), "--baseline", str(baseline)]) == 1
    # Missing baseline: exit 2.
    assert cbr.main([str(results), "--baseline", str(tmp_path / "nope.json")]) == 2


def test_subset_compares_only_benchmarks_present(tmp_path):
    """``--subset``: a deliberate partial run (the live-smoke job) skips the
    missing-benchmark gate for benchmarks it never attempted."""
    baseline = tmp_path / "baseline.json"
    full = bench_json(
        tmp_path / "full.json", {"t": {"x_events": 100}, "live": {"x_wall_ms": 50.0}}
    )
    assert cbr.main([str(full), "--baseline", str(baseline), "--write-baseline"]) == 0
    partial = bench_json(tmp_path / "partial.json", {"live": {"x_wall_ms": 60.0}})
    # Without --subset the tracked benchmark 't' is flagged as missing.
    assert cbr.main([str(partial), "--baseline", str(baseline)]) == 1
    # With --subset only the benchmarks actually run are compared.
    assert cbr.main([str(partial), "--baseline", str(baseline), "--subset"]) == 0


def test_repo_baseline_matches_benchmark_metric_names():
    """The checked-in baseline must track the metrics the benchmarks emit."""
    baseline = json.loads(
        (_SCRIPT.parent / "BENCH_baseline.json").read_text(encoding="utf-8")
    )
    assert "test_shard_throughput_scaling" in baseline
    assert "test_diamond_branch_crash" in baseline
    tracked = [
        metric
        for metrics in baseline.values()
        for metric in metrics
        if cbr.tracked_direction(metric)
    ]
    assert tracked, "baseline contains no trend-tracked metrics"
    for expected in ("shard(4)_events", "shard(4)_proc_new", "chain(10)_events"):
        assert expected in baseline["test_shard_throughput_scaling"]
