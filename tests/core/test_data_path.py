"""Unit tests for output stream managers (buffering, subscription, replay)."""

import pytest

from repro.core.data_path import DataPath, OutputStreamManager
from repro.core.protocol import SubscribeRequest
from repro.errors import BufferTruncatedError, ProtocolError
from repro.spe.tuples import StreamTuple, TupleType


def stable(i):
    return StreamTuple.insertion(i, i * 0.1, {"seq": i})


def tentative(i):
    return StreamTuple.tentative(i, i * 0.1, {"seq": i})


def test_append_relabels_and_stamps_stable_seq():
    mgr = OutputStreamManager("out", owner="node1")
    first = mgr.append(stable(10))
    second = mgr.append(tentative(11))
    third = mgr.append(stable(12))
    assert first.tuple_id == 0 and first.stable_seq == 0
    assert second.is_tentative and second.stable_seq is None
    assert third.stable_seq == 1
    assert mgr.stable_seq == 1
    assert mgr.stable_produced == 2 and mgr.tentative_produced == 1


def test_undo_after_tuple_zero_keeps_its_position():
    """Only a missing ``undo_from_id`` becomes -1: "undo everything after tuple 0"
    (an SOutput that had forwarded exactly one stable tuple) is not "undo everything"."""
    mgr = OutputStreamManager("s", "n")
    assert mgr.append(StreamTuple.undo(5, 1.0, 0)).undo_from_id == 0
    assert mgr.append(StreamTuple.undo(6, 1.0, 7)).undo_from_id == 7
    assert mgr.append(StreamTuple(TupleType.UNDO, 8, 1.0)).undo_from_id == -1
    assert [t.undo_from_id for t in mgr.buffered_items()] == [0, 7, -1]
    assert mgr.undos_produced == 3


def test_subscribe_from_scratch_replays_everything():
    mgr = OutputStreamManager("out", owner="node1")
    mgr.append_all([stable(0), stable(1)])
    replay = mgr.subscribe(SubscribeRequest(stream="out", subscriber="d", last_stable_seq=-1))
    assert [t.value("seq") for t in replay] == [0, 1]


def test_subscribe_resumes_after_last_stable_seq():
    mgr = OutputStreamManager("out", owner="node1")
    mgr.append_all([stable(0), stable(1), stable(2)])
    replay = mgr.subscribe(SubscribeRequest(stream="out", subscriber="d", last_stable_seq=0))
    assert [t.value("seq") for t in replay] == [1, 2]


def test_subscribe_with_had_tentative_prepends_undo():
    mgr = OutputStreamManager("out", owner="node1")
    mgr.append_all([stable(0), stable(1)])
    replay = mgr.subscribe(
        SubscribeRequest(stream="out", subscriber="d", last_stable_seq=0, had_tentative=True)
    )
    assert replay[0].is_undo
    assert [t.value("seq") for t in replay if t.is_data] == [1]


def test_subscribe_skips_tentative_tail_unless_requested():
    mgr = OutputStreamManager("out", owner="node1")
    mgr.append_all([stable(0), tentative(1), tentative(2)])
    no_tail = mgr.subscribe(SubscribeRequest(stream="out", subscriber="d", last_stable_seq=-1))
    assert [t.value("seq") for t in no_tail if t.is_data] == [0]
    with_tail = mgr.subscribe(
        SubscribeRequest(stream="out", subscriber="e", last_stable_seq=-1, replay_tentative=True)
    )
    assert [t.value("seq") for t in with_tail if t.is_data] == [0, 1, 2]


def test_pending_and_mark_delivered_cursor():
    mgr = OutputStreamManager("out", owner="node1")
    mgr.subscribe(SubscribeRequest(stream="out", subscriber="d", last_stable_seq=-1))
    mgr.append_all([stable(0), stable(1)])
    assert [t.value("seq") for t in mgr.pending_for("d")] == [0, 1]
    mgr.mark_delivered("d")
    assert mgr.pending_for("d") == []
    mgr.append(stable(2))
    assert [t.value("seq") for t in mgr.pending_for("d")] == [2]


def test_unsubscribe_stops_delivery():
    mgr = OutputStreamManager("out", owner="node1")
    mgr.subscribe(SubscribeRequest(stream="out", subscriber="d", last_stable_seq=-1))
    mgr.unsubscribe("d")
    mgr.append(stable(0))
    assert mgr.pending_for("d") == []
    assert "d" not in mgr.subscribers()


def test_truncate_delivered_drops_acknowledged_prefix():
    mgr = OutputStreamManager("out", owner="node1")
    mgr.subscribe(SubscribeRequest(stream="out", subscriber="d", last_stable_seq=-1))
    mgr.append_all([stable(i) for i in range(10)])
    assert mgr.truncate_delivered() == 0  # nothing delivered yet
    mgr.mark_delivered("d")
    assert mgr.truncate_delivered() == 10
    assert mgr.buffered_tuples == 0


def test_replay_from_truncated_position_raises():
    mgr = OutputStreamManager("out", owner="node1")
    mgr.subscribe(SubscribeRequest(stream="out", subscriber="d", last_stable_seq=-1))
    mgr.append_all([stable(i) for i in range(5)])
    mgr.mark_delivered("d")
    mgr.truncate_delivered()
    with pytest.raises(ProtocolError):
        mgr.subscribe(SubscribeRequest(stream="out", subscriber="late", last_stable_seq=1))


# --------------------------------------------------------------------------- acknowledged truncation
def boundary(i):
    return StreamTuple.boundary(i, i * 0.1)


def acked_manager(*consumers, n=10):
    mgr = OutputStreamManager("out", owner="node1")
    for consumer in consumers:
        mgr.add_consumer(consumer)
    mgr.append_all([stable(i) for i in range(n)])
    return mgr


def test_acknowledge_truncates_through_the_minimum_over_all_consumers():
    mgr = acked_manager("a", "b")
    assert mgr.acknowledge("a", 6) == 0  # b has not acknowledged: pinned
    assert mgr.acked_through == -1 and mgr.buffered_tuples == 10
    assert mgr.acknowledge("b", 3) == 4
    assert mgr.acked_through == 3 and mgr.truncated_tuples == 4
    assert [t.stable_seq for t in mgr.buffered_items()] == [4, 5, 6, 7, 8, 9]
    assert mgr.acknowledge("b", 9) == 3  # now a's 6 is the minimum
    assert mgr.acked_through == 6 and mgr.buffered_tuples == 3


def test_unsubscribed_backup_replica_truncates_on_acks_alone():
    """Consumers are subscribed to the *other* producer replica; this one has
    no subscription at all and must still be able to drop what they cover."""
    mgr = acked_manager("a", "b")
    assert mgr.subscribers() == []
    mgr.acknowledge("a", 4)
    assert mgr.acknowledge("b", 7) == 5
    assert mgr.truncate_delivered() == 0  # the delivery-cursor rule has nothing to go on


def test_silent_consumer_pins_the_buffer():
    mgr = acked_manager("up", "down")
    for through in range(10):
        assert mgr.acknowledge("up", through) == 0
    assert mgr.buffered_tuples == 10 and mgr.truncated_tuples == 0


def test_without_declared_consumers_nothing_is_truncated():
    mgr = acked_manager()
    assert mgr.acknowledge("stranger", 9) == 0
    assert mgr.buffered_tuples == 10 and mgr.acked_through == -1


def test_acknowledgments_of_filtered_slices_quote_stamps_with_gaps():
    """Each filtered consumer acknowledges the last stamp of *its* slice; the
    minimum is still a stamped position of the full stream."""
    mgr = acked_manager("even", "odd")
    mgr.acknowledge("even", 8)  # received stamps 0, 2, ..., 8
    assert mgr.acknowledge("odd", 5) == 6  # received stamps 1, 3, 5
    assert mgr.buffered_items()[0].stable_seq == 6
    # The odd consumer resubscribes from its own cursor: 7 and 9 are replayed.
    replay = mgr.subscribe(SubscribeRequest(stream="out", subscriber="odd", last_stable_seq=5))
    assert [t.stable_seq for t in replay] == [6, 7, 8, 9]


def test_ack_below_the_truncation_point_is_a_noop():
    mgr = acked_manager("a")
    assert mgr.acknowledge("a", 5) == 6
    assert mgr.acknowledge("a", 2) == 0  # a re-acknowledged an older adopted cursor
    assert mgr.acked_through == 2  # the latest acknowledgment wins ...
    assert mgr.truncated_tuples == 6  # ... but nothing comes back
    assert mgr.acknowledge("a", 5) == 0
    assert mgr.acknowledge("a", 6) == 1


def test_ack_ahead_of_local_production_is_a_noop():
    """A replica that adopted an older partner checkpoint trails its consumers."""
    mgr = acked_manager("a", n=3)
    assert mgr.acknowledge("a", 7) == 0
    assert mgr.buffered_tuples == 3


def test_truncation_keeps_control_tuples_after_the_acknowledged_position():
    mgr = OutputStreamManager("out", owner="node1")
    mgr.add_consumer("a")
    mgr.append_all([boundary(0), stable(1), boundary(2), tentative(3), stable(4), boundary(5)])
    assert mgr.acknowledge("a", 0) == 2  # the leading boundary goes with stable #0
    assert [t.is_boundary for t in mgr.buffered_items()] == [True, False, False, True]
    replay = mgr.subscribe(SubscribeRequest(stream="out", subscriber="a", last_stable_seq=0))
    assert [t.tuple_id for t in replay] == [2, 3, 4]  # through the last stable tuple


def test_resubscribe_at_the_truncation_point_replays_the_retained_suffix():
    mgr = acked_manager("a")
    mgr.acknowledge("a", 5)
    replay = mgr.subscribe(SubscribeRequest(stream="out", subscriber="a", last_stable_seq=5))
    assert [t.stable_seq for t in replay] == [6, 7, 8, 9]


@pytest.mark.parametrize("position", [-1, 0, 4])
def test_replay_from_inside_the_truncated_prefix_raises_typed_error(position):
    """A full replay (or any cursor below the truncation point) must not
    silently replay only the retained suffix."""
    mgr = acked_manager("a")
    mgr.acknowledge("a", 5)
    with pytest.raises(BufferTruncatedError) as error:
        mgr.subscribe(SubscribeRequest(stream="out", subscriber="late", last_stable_seq=position))
    assert "truncated through stable seq 5" in str(error.value)
    assert "first retained index 6" in str(error.value)
    assert isinstance(error.value, ProtocolError)


def test_stale_inflight_subscribe_is_served_when_the_subscribers_own_ack_covers_it():
    """The subscriber caught up through its old connection and acknowledged
    while its SUBSCRIBE (quoting the older cursor) was still in flight."""
    mgr = acked_manager("a", "b")
    mgr.acknowledge("a", 6)
    mgr.acknowledge("b", 6)
    replay = mgr.subscribe(SubscribeRequest(stream="out", subscriber="a", last_stable_seq=3))
    assert [t.stable_seq for t in replay] == [7, 8, 9]
    # A respawned incarnation first withdraws what its predecessor vouched for.
    mgr.acknowledge("a", -1)
    with pytest.raises(BufferTruncatedError):
        mgr.subscribe(SubscribeRequest(stream="out", subscriber="a", last_stable_seq=-1))


def test_attach_subscriber_needs_no_history():
    """Scale-out wires a fresh subscriber to a running, truncated stream."""
    mgr = acked_manager("a")
    mgr.acknowledge("a", 5)
    mgr.attach_subscriber("fresh")
    assert mgr.pending_for("fresh") == []
    mgr.append(stable(10))
    assert [t.stable_seq for t in mgr.pending_for("fresh")] == [10]


def test_removed_consumer_stops_pinning():
    mgr = acked_manager("a", "retired")
    mgr.acknowledge("a", 7)
    mgr.remove_consumer("retired")
    assert mgr.acknowledge("a", 8) == 9


def test_snapshot_and_restore_carry_the_truncation_point():
    donor = acked_manager("a")
    donor.acknowledge("a", 5)
    adopter = OutputStreamManager("out", owner="node1'")
    adopter.add_consumer("a")
    adopter.restore_state(donor.snapshot_state())
    assert adopter.truncated_tuples == 6 and adopter.buffered_tuples == 4
    with pytest.raises(BufferTruncatedError):
        adopter.subscribe(SubscribeRequest(stream="out", subscriber="a", last_stable_seq=2))
    assert adopter.acknowledge("a", 7) == 2  # stamps located in the adopted buffer


def test_truncation_observer_sees_every_dropped_prefix():
    mgr = acked_manager("a")
    seen = []
    mgr.truncation_observer = lambda dropped: seen.extend(t.stable_seq for t in dropped)
    mgr.acknowledge("a", 2)
    mgr.acknowledge("a", 6)
    assert seen == [0, 1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("by_block", [True, False], ids=["append_all", "append"])
def test_attached_subscriber_is_sent_every_appended_row(by_block):
    """Buffers have no capacity: only acknowledgments drop rows, so nothing is
    dropped before a subscriber has been sent it."""
    mgr = OutputStreamManager("out", owner="node1")
    mgr.attach_subscriber("d")
    rows = [stable(i) if i % 7 else tentative(i) for i in range(500)]
    if by_block:
        mgr.append_all(rows)
    else:
        for row in rows:
            mgr.append(row)
    assert mgr.buffered_tuples == 500 and mgr.truncated_tuples == 0
    assert [t.value("seq") for t in mgr.pending_for("d")] == list(range(500))


def test_retention_grows_while_a_consumer_is_silent_and_shrinks_when_it_acks():
    """A consumer in an outage pins the buffer; its resumed acks release it."""
    mgr = acked_manager("up", "down", n=0)
    for start in range(0, 1000, 100):
        mgr.append_all([stable(i) for i in range(start, start + 100)])
        mgr.acknowledge("up", start + 99)
    assert mgr.buffered_tuples == 1000 and mgr.truncated_tuples == 0
    assert mgr.acknowledge("down", 949) == 950
    assert mgr.buffered_tuples == 50 and mgr.acked_through == 949


def test_subscribe_for_wrong_stream_rejected():
    mgr = OutputStreamManager("out", owner="node1")
    with pytest.raises(ProtocolError):
        mgr.subscribe(SubscribeRequest(stream="other", subscriber="d"))


def test_data_path_manages_multiple_outputs():
    path = DataPath(owner="node1")
    path.add_output("a")
    path.add_output("b")
    assert sorted(path.output_streams()) == ["a", "b"]
    with pytest.raises(ProtocolError):
        path.add_output("a")
    with pytest.raises(ProtocolError):
        path.output("missing")
    kind, batch = path.make_batch("a", [stable(0)])
    assert kind == "data" and batch.producer == "node1"
