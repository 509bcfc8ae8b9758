"""Unit tests for per-input-stream monitors (detection, healing, redo buffer)."""

from repro.core.input_streams import InputStreamMonitor
from repro.core.states import NodeState
from repro.spe.tuples import StreamTuple


def monitor_with_source():
    monitor = InputStreamMonitor(stream="s1")
    monitor.add_producer("src", is_source=True)
    monitor.last_boundary_arrival = 0.0
    return monitor


def monitor_with_replicas():
    monitor = InputStreamMonitor(stream="x")
    monitor.add_producer("n1")
    monitor.add_producer("n1'")
    monitor.last_boundary_arrival = 0.0
    return monitor


def test_first_producer_becomes_primary():
    monitor = monitor_with_replicas()
    assert monitor.primary == "n1"


def test_boundary_arrivals_update_evidence_and_buffer():
    monitor = monitor_with_source()
    monitor.record_tuple(StreamTuple.boundary(0, 1.0), now=1.0)
    assert monitor.last_boundary_stime == 1.0
    assert monitor.boundary_silent_for(1.5) == 0.5
    assert len(monitor.stable_buffer) == 1


def test_stable_arrivals_counted_and_buffered():
    monitor = monitor_with_source()
    assert monitor.record_tuple(StreamTuple.insertion(0, 0.1, {"seq": 0}), now=0.1) == "accept"
    assert monitor.stable_received == 1
    assert monitor.stable_buffer.data_rows == 1


def test_stable_seq_deduplication():
    monitor = monitor_with_replicas()
    first = StreamTuple.insertion(0, 0.1, {"seq": 0}).with_stable_seq(0)
    dup = StreamTuple.insertion(7, 0.1, {"seq": 0}).with_stable_seq(0)
    nxt = StreamTuple.insertion(8, 0.2, {"seq": 1}).with_stable_seq(1)
    assert monitor.record_tuple(first, now=0.1) == "accept"
    assert monitor.record_tuple(dup, now=0.2) == "duplicate"
    assert monitor.record_tuple(nxt, now=0.3) == "accept"
    assert monitor.stable_received == 2
    assert monitor.stable_buffer.data_rows == 2


def test_tentative_arrivals_tracked_but_not_buffered():
    monitor = monitor_with_source()
    monitor.record_tuple(StreamTuple.tentative(0, 0.1, {}), now=0.1)
    assert monitor.tentative_received == 1
    assert monitor.tentative_since_stable == 1
    assert monitor.stable_buffer.data_rows == 0


def test_undo_resets_tentative_counter():
    monitor = monitor_with_source()
    monitor.record_tuple(StreamTuple.tentative(0, 0.1, {}), now=0.1)
    monitor.record_tuple(StreamTuple.undo(1, 0.1, undo_from_id=-1), now=0.2)
    assert monitor.tentative_since_stable == 0
    assert monitor.undos_received == 1


def test_failure_detection_on_missing_boundaries():
    monitor = monitor_with_source()
    monitor.record_tuple(StreamTuple.boundary(0, 1.0), now=1.0)
    assert not monitor.detect_failure(now=1.1, timeout=0.25)
    assert monitor.detect_failure(now=2.0, timeout=0.25)
    assert monitor.failed and monitor.failure_detected_at == 2.0
    # Detection reported only once.
    assert not monitor.detect_failure(now=3.0, timeout=0.25)


def test_failure_detection_on_tentative_arrival():
    monitor = monitor_with_replicas()
    monitor.last_boundary_arrival = 10.0
    monitor.record_tuple(StreamTuple.tentative(0, 10.0, {}), now=10.0)
    assert monitor.detect_failure(now=10.05, timeout=0.25)


def test_source_stream_heals_when_boundaries_flow_again():
    monitor = monitor_with_source()
    monitor.record_tuple(StreamTuple.boundary(0, 1.0), now=1.0)
    monitor.detect_failure(now=2.0, timeout=0.25)
    assert not monitor.is_healed(now=2.0, timeout=0.25)
    monitor.record_tuple(StreamTuple.boundary(1, 2.0), now=2.05)
    assert monitor.is_healed(now=2.1, timeout=0.25)
    monitor.mark_healed()
    assert not monitor.failed


def test_node_stream_requires_rec_done_and_stable_primary():
    monitor = monitor_with_replicas()
    monitor.producers["n1"].advertised_state = NodeState.UP_FAILURE
    monitor.producers["n1"].last_response_at = 5.0
    monitor.record_tuple(StreamTuple.tentative(0, 5.0, {}), now=5.0)
    monitor.detect_failure(now=5.1, timeout=0.25)
    monitor.record_tuple(StreamTuple.boundary(1, 5.2), now=5.2)
    assert not monitor.is_healed(now=5.3, timeout=0.25)
    monitor.producers["n1"].advertised_state = NodeState.STABLE
    monitor.producers["n1"].last_response_at = 5.3
    assert not monitor.is_healed(now=5.35, timeout=0.25)  # still no REC_DONE
    monitor.record_tuple(StreamTuple.rec_done(2, 5.3), now=5.35)
    assert monitor.is_healed(now=5.4, timeout=0.25)


def test_unfailed_stream_is_trivially_healed():
    monitor = monitor_with_source()
    assert monitor.is_healed(now=100.0, timeout=0.25)


def test_producer_effective_state_uses_silence():
    monitor = monitor_with_replicas()
    info = monitor.producers["n1"]
    info.advertised_state = NodeState.STABLE
    info.last_response_at = 1.0
    assert info.effective_state(now=1.1, timeout=0.5) is NodeState.STABLE
    assert info.effective_state(now=5.0, timeout=0.5) is NodeState.FAILURE


def test_clear_stable_buffer():
    monitor = monitor_with_source()
    monitor.record_tuple(StreamTuple.insertion(0, 0.1, {}), now=0.1)
    monitor.clear_stable_buffer()
    assert monitor.stable_buffer.data_rows == 0
