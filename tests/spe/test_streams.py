"""Unit tests for stream writers, logs, and undo application."""

import pytest

from repro.errors import StreamError
from repro.spe.streams import StreamLog, StreamWriter, apply_undo
from repro.spe.tuples import StreamTuple


def test_writer_assigns_increasing_ids():
    writer = StreamWriter("s")
    ids = [writer.insertion(i * 0.1, {"seq": i}).tuple_id for i in range(5)]
    assert ids == [0, 1, 2, 3, 4]


def test_writer_boundary_must_not_go_backwards():
    writer = StreamWriter("s")
    writer.boundary(1.0)
    with pytest.raises(StreamError):
        writer.boundary(0.5)
    writer.boundary(1.0)  # equal is fine


def test_writer_snapshot_restore():
    writer = StreamWriter("s")
    writer.insertion(0.0, {})
    writer.boundary(1.0)
    snap = writer.snapshot()
    writer.insertion(1.5, {})
    writer.restore(snap)
    assert writer.next_id == 2
    assert writer.last_boundary_stime == 1.0


def test_log_append_requires_increasing_ids():
    log = StreamLog("s")
    log.append(StreamTuple.insertion(0, 0.0, {}))
    log.append(StreamTuple.insertion(5, 0.1, {}))
    with pytest.raises(StreamError):
        log.append(StreamTuple.insertion(3, 0.2, {}))


def test_log_replay_after():
    log = StreamLog("s")
    log.extend(StreamTuple.insertion(i, i * 0.1, {"seq": i}) for i in range(10))
    replay = log.replay_after(6)
    assert [t.tuple_id for t in replay] == [7, 8, 9]
    assert log.replay_after(100) == []


def test_log_truncation_and_replay_limits():
    log = StreamLog("s")
    log.extend(StreamTuple.insertion(i, i * 0.1, {}) for i in range(10))
    removed = log.truncate_through(4)
    assert removed == 5
    assert log.truncated_through == 4
    assert len(log) == 5
    with pytest.raises(StreamError):
        log.replay_after(2)
    with pytest.raises(StreamError):
        log.append(StreamTuple.insertion(3, 0.3, {}))
    assert [t.tuple_id for t in log.replay_after(4)] == [5, 6, 7, 8, 9]


def test_log_last_stable_id():
    log = StreamLog("s")
    log.append(StreamTuple.insertion(0, 0.0, {}))
    log.append(StreamTuple.tentative(1, 0.1, {}))
    log.append(StreamTuple.tentative(2, 0.2, {}))
    assert log.last_stable_id() == 0


def test_log_keeps_every_tuple_until_truncated():
    log = StreamLog("s")
    log.extend(StreamTuple.insertion(i, i * 0.1, {"seq": i}) for i in range(1000))
    assert len(log) == 1000 and log.truncated_through == -1
    assert [t.tuple_id for t in log.replay_after(-1)] == list(range(1000))
    log.truncate_through(899)
    assert [t.tuple_id for t in log] == list(range(900, 1000))


def test_apply_undo_removes_suffix():
    items = [StreamTuple.insertion(i, i * 0.1, {"seq": i}) for i in range(5)]
    undo = StreamTuple.undo(99, 0.5, undo_from_id=2)
    kept = apply_undo(items, undo)
    assert [t.tuple_id for t in kept] == [0, 1, 2]


def test_apply_undo_requires_undo_tuple():
    with pytest.raises(StreamError):
        apply_undo([], StreamTuple.insertion(0, 0.0, {}))
