"""Property-based tests for output-stream replay and the consistency ledger."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.data_path import OutputStreamManager
from repro.core.protocol import SubscribeRequest
from repro.errors import BufferTruncatedError
from repro.metrics.consistency import ConsistencyTracker
from repro.spe.tuples import StreamTuple

COMMON = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- output replay
@COMMON
@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=-1, max_value=45),
)
def test_subscribe_replays_exact_stable_suffix(n_stable, last_seen):
    manager = OutputStreamManager("out", owner="node1")
    for i in range(n_stable):
        manager.append(StreamTuple.insertion(i, float(i), {"seq": i}))
    request = SubscribeRequest(stream="out", subscriber="down", last_stable_seq=last_seen)
    if last_seen >= n_stable:
        # Subscriber claims to be ahead of everything buffered: nothing to replay.
        replay = manager.subscribe(request)
        assert [t for t in replay if t.is_data] == []
        return
    replay = manager.subscribe(request)
    stable = [t for t in replay if t.is_stable]
    assert [t.stable_seq for t in stable] == list(range(last_seen + 1, n_stable))


@COMMON
@given(
    st.lists(st.sampled_from(["stable", "tentative"]), min_size=0, max_size=30),
)
def test_subscriber_without_tentative_interest_never_receives_tentative_tail(kinds):
    manager = OutputStreamManager("out", owner="node1")
    for i, kind in enumerate(kinds):
        if kind == "stable":
            manager.append(StreamTuple.insertion(i, float(i), {"seq": i}))
        else:
            manager.append(StreamTuple.tentative(i, float(i), {"seq": i}))
    replay = manager.subscribe(
        SubscribeRequest(stream="out", subscriber="down", last_stable_seq=-1, replay_tentative=False)
    )
    data = [t for t in replay if t.is_data]
    # Everything after the last stable tuple is trimmed, so the replay never
    # *ends* with tentative data the subscriber did not ask for; when nothing
    # stable was ever produced, no data is replayed at all.
    if data:
        assert data[-1].is_stable
    if not any(kind == "stable" for kind in kinds):
        assert data == []


@COMMON
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=10))
def test_truncate_delivered_never_drops_undelivered_tuples(n_tuples, batches):
    manager = OutputStreamManager("out", owner="node1")
    manager.subscribe(SubscribeRequest(stream="out", subscriber="down", last_stable_seq=-1))
    produced = 0
    for batch in range(batches):
        for _ in range(n_tuples):
            manager.append(StreamTuple.insertion(produced, float(produced), {"seq": produced}))
            produced += 1
        pending_before = len(manager.pending_for("down"))
        manager.truncate_delivered()
        # Truncation only removes what the subscriber already received.
        assert len(manager.pending_for("down")) == pending_before
        manager.mark_delivered("down")
        manager.truncate_delivered()
        assert manager.pending_for("down") == []
    assert manager.stable_produced == produced


_KINDS = st.sampled_from(["stable", "stable", "stable", "tentative", "boundary", "undo"])


def _append(manager, kind, i):
    if kind == "stable":
        manager.append(StreamTuple.insertion(i, float(i), {"seq": i}))
    elif kind == "tentative":
        manager.append(StreamTuple.tentative(i, float(i), {"seq": i}))
    elif kind == "boundary":
        manager.append(StreamTuple.boundary(i, float(i)))
    else:
        manager.append(StreamTuple.undo(i, float(i), -1))


@COMMON
@given(
    st.lists(_KINDS, min_size=0, max_size=60),
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(min_value=-1, max_value=50)),
        max_size=12,
    ),
    st.integers(min_value=-1, max_value=50),
)
def test_acknowledged_truncation_matches_a_linear_scan_model(kinds, acks, cursor):
    """The stamp lookup is a binary search over a buffer with unstamped
    entries; a plain list scan over an untruncated twin is the oracle.  A
    resubscribe at or past the truncation point gets exactly the untruncated
    replay, one below it gets the typed error unless the subscriber itself
    acknowledged past it."""
    manager = OutputStreamManager("out", owner="node1")
    reference = OutputStreamManager("out", owner="node1")  # never truncated
    for consumer in "abc":
        manager.add_consumer(consumer)
    for i, kind in enumerate(kinds):
        _append(manager, kind, i)
        _append(reference, kind, i)
    history = reference.buffered_items()
    stamps = [t.stable_seq for t in history]
    latest = {"a": -1, "b": -1, "c": -1}
    dropped = 0
    for consumer, through in acks:
        manager.acknowledge(consumer, through)
        latest[consumer] = through
        safe = min(latest.values())
        if safe in stamps:
            dropped = max(dropped, stamps.index(safe) + 1)
        assert manager.truncated_tuples == dropped
        assert manager.buffered_items() == history[dropped:]
    request = SubscribeRequest(
        stream="out", subscriber="a", last_stable_seq=cursor, replay_tentative=True
    )
    dropped_stamps = [stamp for stamp in stamps[:dropped] if stamp is not None]
    if not dropped_stamps or cursor >= dropped_stamps[-1]:
        assert manager.subscribe(request) == reference.subscribe(request)
    elif latest["a"] >= dropped_stamps[-1]:
        # Stale in-flight request of a subscriber whose own acknowledgment
        # covers the truncated prefix: served from the truncation point.
        assert manager.subscribe(request) == history[dropped:]
    else:
        with pytest.raises(BufferTruncatedError):
            manager.subscribe(request)


# --------------------------------------------------------------------------- consistency ledger
@COMMON
@given(
    st.lists(st.sampled_from(["stable", "tentative", "undo"]), min_size=0, max_size=40),
)
def test_ledger_undo_always_removes_the_tentative_suffix(events):
    tracker = ConsistencyTracker()
    stable_seen = 0
    for tuple_id, event in enumerate(events):
        if event == "stable":
            tracker.observe(StreamTuple.insertion(tuple_id, float(tuple_id), {"v": tuple_id}))
            stable_seen += 1
        elif event == "tentative":
            tracker.observe(StreamTuple.tentative(tuple_id, float(tuple_id), {"v": tuple_id}))
        else:
            tracker.observe(StreamTuple.undo(tuple_id, float(tuple_id), undo_from_id=-1))
            # Immediately after an undo the tentative suffix is gone and the
            # per-stream inconsistency counter (Definition 2) resets to zero.
            assert not tracker.ledger or not tracker.ledger[-1].is_tentative
            assert tracker.n_tentative == 0
    # Stable tuples are never removed by undos: the ledger keeps all of them.
    assert sum(1 for t in tracker.ledger if t.is_stable) == tracker.total_stable == stable_seen
    assert tracker.total_tentative >= sum(1 for t in tracker.ledger if t.is_tentative)
