"""Unit tests for the SUnion serializing operator."""

from repro.spe.operators import SUnion
from repro.spe.tuples import StreamTuple, TupleType


def boundary(stime, tid=0):
    return StreamTuple.boundary(tid, stime)


def test_sunion_emits_nothing_until_all_inputs_have_boundaries():
    op = SUnion("su", arity=2, bucket_size=1.0)
    op.process(0, StreamTuple.insertion(0, 0.5, {"seq": 0}))
    assert op.process(0, boundary(5.0)) == []
    out = op.process(1, boundary(5.0))
    data = [t for t in out if t.is_data]
    assert [t.value("seq") for t in data] == [0]


def test_sunion_deterministic_order_across_interleavings():
    def run(order):
        op = SUnion("su", arity=2, bucket_size=1.0)
        for port, item in order:
            op.process(port, item)
        out = op.process(0, boundary(10.0)) + op.process(1, boundary(10.0))
        return [t.value("seq") for t in out if t.is_data]

    a = [(0, StreamTuple.insertion(0, 0.3, {"seq": 1})), (1, StreamTuple.insertion(0, 0.1, {"seq": 2}))]
    b = list(reversed(a))
    assert run(a) == run(b) == [2, 1]  # ordered by stime, not by arrival


def test_sunion_orders_by_stime_then_port_then_id():
    op = SUnion("su", arity=2, bucket_size=1.0)
    op.process(1, StreamTuple.insertion(7, 0.5, {"seq": "b"}))
    op.process(0, StreamTuple.insertion(3, 0.5, {"seq": "a"}))
    op.process(0, boundary(2.0))
    out = op.process(1, boundary(2.0))
    assert [t.value("seq") for t in out if t.is_data] == ["a", "b"]


def test_bucket_stability_follows_equation_1():
    # Figure 7 of the paper: a bucket is stable only when boundaries on every
    # stream pass its upper edge.
    op = SUnion("su", arity=3, bucket_size=5.0)
    for port in range(3):
        op.process(port, StreamTuple.insertion(port, 17.0, {"seq": port}))
    op.process(0, boundary(25.0))
    op.process(1, boundary(20.0))
    out = op.process(2, boundary(22.0))
    # min boundary = 20 -> the bucket [15, 20) is stable, tuples at 17 emitted.
    assert len([t for t in out if t.is_data]) == 3


def test_sunion_emits_boundary_with_min_stime():
    op = SUnion("su", arity=2, bucket_size=1.0)
    op.process(0, boundary(4.0))
    out = op.process(1, boundary(6.0))
    bounds = [t for t in out if t.tuple_type is TupleType.BOUNDARY]
    assert len(bounds) == 1 and bounds[0].stime == 4.0


def test_force_emit_pending_labels_tentative():
    op = SUnion("su", arity=2, bucket_size=1.0)
    op.process(0, StreamTuple.insertion(0, 0.5, {"seq": 0}))
    out = op.force_emit_pending()
    assert len(out) == 1 and out[0].is_tentative
    assert op.pending_tuples == 0


def test_force_emit_held_longer_than_uses_arrival_clock():
    now = [100.0]
    op = SUnion("su", arity=1, bucket_size=1.0)
    op.arrival_clock = lambda: now[0]
    op.process(0, StreamTuple.insertion(0, 99.5, {"seq": 0}))
    now[0] = 101.0
    op.process(0, StreamTuple.insertion(1, 100.5, {"seq": 1}))
    out = op.force_emit_held_longer_than(102.0, min_hold=1.5)
    # Only the first bucket has been held for >= 1.5 s.
    assert [t.value("seq") for t in out] == [0]
    assert all(t.is_tentative for t in out)


def test_late_arrivals_for_emitted_buckets_are_dropped():
    op = SUnion("su", arity=1, bucket_size=1.0)
    op.process(0, StreamTuple.insertion(0, 0.5, {"seq": 0}))
    op.process(0, boundary(5.0))
    assert op.process(0, StreamTuple.insertion(1, 0.7, {"seq": 1})) == []
    assert op.late_drops == 1


def test_hold_buckets_blocks_watermark_emission():
    op = SUnion("su", arity=1, bucket_size=1.0)
    op.hold_buckets = True
    op.process(0, StreamTuple.insertion(0, 0.5, {"seq": 0}))
    out = op.process(0, boundary(5.0))
    assert [t for t in out if t.is_data] == []
    assert op.pending_tuples == 1
    op.hold_buckets = False
    released = op.release_held_buckets()
    assert [t.value("seq") for t in released] == [0]
    assert released[0].is_stable


def test_drop_tentative_removes_only_tentative():
    op = SUnion("su", arity=1, bucket_size=1.0)
    op.process(0, StreamTuple.insertion(0, 0.5, {"seq": 0}))
    op.process(0, StreamTuple.tentative(1, 0.6, {"seq": 1}))
    assert op.drop_tentative() == 1
    assert op.pending_tuples == 1


def test_checkpoint_restore_preserves_buckets_and_progress():
    op = SUnion("su", arity=1, bucket_size=1.0)
    op.arrival_clock = lambda: 0.0
    op.process(0, StreamTuple.insertion(0, 0.5, {"seq": 0}))
    snapshot = op.checkpoint()
    op.process(0, boundary(5.0))
    assert op.pending_tuples == 0
    op.restore(snapshot)
    assert op.pending_tuples == 1
    out = op.process(0, boundary(5.0))
    assert [t.value("seq") for t in out if t.is_data] == [0]


def test_tentative_input_stays_tentative_through_serialization():
    op = SUnion("su", arity=1, bucket_size=1.0)
    op.process(0, StreamTuple.tentative(0, 0.5, {"seq": 0}))
    out = op.process(0, boundary(5.0))
    assert [t for t in out if t.is_data][0].is_tentative


def test_batch_with_undo_keeps_bucketing_later_data():
    """Regression: a mid-batch control fallback must not orphan the buckets.

    handle_undo on a checkpointed SUnion restores the checkpoint, which
    *rebinds* the internal bucket dict; the batch fast path must refresh its
    hoisted locals or every data tuple after the undo lands in the orphaned
    dict and is silently lost.
    """
    op = SUnion("su", arity=1, bucket_size=1.0)
    op.process(0, StreamTuple.insertion(0, 0.5, {"seq": 0}))
    op.checkpoint()
    out = op.process_batch(
        0,
        [
            StreamTuple.undo(1, 0.6, undo_from_id=0),
            StreamTuple.insertion(2, 0.7, {"seq": 1}),
            StreamTuple.insertion(3, 0.8, {"seq": 2}),
        ],
    )
    assert [t for t in out if t.is_undo]
    # The post-undo data tuples must live in the *current* bucket dict...
    assert op.pending_tuples == 3  # the checkpointed tuple + the two new ones
    # ...and stabilize normally once a boundary closes the bucket.
    emitted = op.process(0, boundary(2.0, tid=4))
    assert [t.value("seq") for t in emitted if t.is_data] == [0, 1, 2]


def test_batch_boundary_then_late_data_is_dropped_like_per_tuple_path():
    """The hoisted late-drop bound must refresh after a mid-batch boundary."""
    op = SUnion("su", arity=1, bucket_size=1.0)
    out = op.process_batch(
        0,
        [
            StreamTuple.insertion(0, 0.5, {"seq": 0}),
            boundary(2.0, tid=1),  # stabilizes and emits bucket 0
            StreamTuple.insertion(2, 0.4, {"seq": 99}),  # late: bucket 0 closed
        ],
    )
    assert [t.value("seq") for t in out if t.is_data] == [0]
    assert op.late_drops == 1
    assert op.pending_tuples == 0


def test_tuple_at_an_emitted_boundary_stime_opens_the_next_bucket():
    """``75.3 / 0.1`` floors to bucket 752, whose edge ``753 * 0.1`` is 75.3.

    A boundary at 75.3 emits bucket 752; a tuple stamped 75.3 belongs to
    bucket 753 on the same float grid and must not be counted late.
    """
    op = SUnion("su", arity=1, bucket_size=0.1)
    op.process(0, StreamTuple.insertion(0, 75.25, {"seq": 0}))
    op.process(0, boundary(75.3, tid=1))
    assert op.process(0, StreamTuple.insertion(2, 75.3, {"seq": 1})) == []
    assert op.late_drops == 0
    out = op.process(0, boundary(75.5, tid=3))
    assert [t.value("seq") for t in out if t.is_data] == [1]
