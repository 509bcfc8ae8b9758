"""Unit tests for latency and consistency metrics."""

import pytest

from repro.metrics.consistency import ConsistencyTracker, duplicate_stable_values, eventually_consistent
from repro.metrics.collector import MetricsCollector
from repro.metrics.latency import LatencySummary, LatencyTracker, proc_new
from repro.spe.tuples import StreamTuple


def test_latency_tracker_counts_only_new_tuples():
    tracker = LatencyTracker()
    # observe() returns whether the tuple was new output (no record is allocated).
    assert tracker.observe(arrival_time=1.0, stime=0.8, tuple_type="insertion") is True
    assert tracker.observe(arrival_time=2.0, stime=1.8, tuple_type="tentative") is True
    # A correction for an old stime is not new output.
    assert tracker.observe(arrival_time=10.0, stime=0.9, tuple_type="insertion") is False
    assert [record.is_new for record in tracker.records] == [True, True, False]
    assert tracker.new_tuples == 2
    assert tracker.proc_new == pytest.approx(0.2)


def test_latency_tracker_max_gap():
    tracker = LatencyTracker()
    tracker.observe(1.0, 0.9, "insertion")
    tracker.observe(4.0, 3.9, "insertion")
    assert tracker.max_gap == pytest.approx(3.0)


def test_delay_new_subtracts_normal_processing():
    tracker = LatencyTracker()
    tracker.observe(3.0, 0.0, "tentative")
    assert tracker.delay_new(normal_latency=0.5) == pytest.approx(2.5)
    assert tracker.delay_new(normal_latency=10.0) == 0.0


def test_proc_new_helper_and_average():
    tracker = LatencyTracker()
    tracker.observe(1.0, 0.5, "insertion")
    tracker.observe(2.0, 1.0, "insertion")
    assert proc_new(tracker.records) == pytest.approx(1.0)
    assert tracker.average_latency() == pytest.approx(0.75)


def test_latency_summary_statistics():
    summary = LatencySummary.from_values([0.01, 0.02, 0.03])
    assert summary.count == 3
    assert summary.minimum == pytest.approx(0.01)
    assert summary.maximum == pytest.approx(0.03)
    assert summary.average == pytest.approx(0.02)
    scaled = summary.scaled(1000.0)
    assert scaled.average == pytest.approx(20.0)
    empty = LatencySummary.from_values([])
    assert empty.count == 0 and empty.maximum == 0.0


def test_consistency_tracker_counts_and_ledger():
    tracker = ConsistencyTracker()
    tracker.observe(StreamTuple.insertion(0, 0.0, {"seq": 0}))
    tracker.observe(StreamTuple.tentative(1, 0.1, {"seq": 1}))
    tracker.observe(StreamTuple.tentative(2, 0.2, {"seq": 2}))
    assert tracker.total_tentative == 2 and tracker.n_tentative == 2
    tracker.observe(StreamTuple.undo(3, 0.2, undo_from_id=0))
    assert tracker.n_tentative == 0
    assert tracker.stable_values("seq") == [0]
    tracker.observe(StreamTuple.insertion(4, 0.1, {"seq": 1}))
    tracker.observe(StreamTuple.rec_done(5, 0.3))
    assert tracker.stable_values("seq") == [0, 1]
    assert tracker.total_undos == 1 and tracker.total_rec_done == 1
    assert not tracker.has_pending_tentative()


def test_undo_with_no_stable_prefix_clears_ledger():
    tracker = ConsistencyTracker()
    tracker.observe(StreamTuple.tentative(0, 0.0, {"seq": 0}))
    tracker.observe(StreamTuple.undo(1, 0.0, undo_from_id=-1))
    assert tracker.ledger == []


def test_eventual_consistency_comparison():
    reference = [StreamTuple.insertion(i, i * 0.1, {"seq": i}) for i in range(3)]
    received = [StreamTuple.insertion(i + 10, i * 0.1, {"seq": i}) for i in range(3)]
    assert eventually_consistent(received, reference, "seq")
    assert not eventually_consistent(received[:-1], reference, "seq")


def test_duplicate_stable_values_detection():
    items = [
        StreamTuple.insertion(0, 0.0, {"seq": 1}),
        StreamTuple.insertion(1, 0.1, {"seq": 1}),
        StreamTuple.tentative(2, 0.2, {"seq": 1}),
    ]
    assert duplicate_stable_values(items, "seq") == [1]


def test_metrics_collector_combines_trackers():
    collector = MetricsCollector(stream="out")
    collector.observe(StreamTuple.insertion(0, 0.5, {"seq": 0}), now=1.0)
    collector.observe(StreamTuple.tentative(1, 1.5, {"seq": 1}), now=2.0)
    collector.observe(StreamTuple.undo(2, 1.5, undo_from_id=0), now=2.1)
    summary = collector.summary()
    assert summary["total_stable"] == 1
    assert summary["total_tentative"] == 1
    assert summary["total_undos"] == 1
    assert summary["proc_new"] == pytest.approx(0.5)
    assert len(collector.trace) == 3
