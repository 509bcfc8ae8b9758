"""Unit tests for the windowed Join and the serialized SJoin."""

import pytest

from repro.errors import OperatorError
from repro.spe.operators import Join, SJoin
from repro.spe.tuples import StreamTuple


def test_join_matches_within_window():
    op = Join("j", window=1.0)
    op.process(0, StreamTuple.insertion(0, 1.0, {"k": "a"}))
    out = op.process(1, StreamTuple.insertion(0, 1.5, {"k": "b"}))
    assert len(out) == 1
    assert out[0].values == {"left_k": "a", "right_k": "b"}
    assert out[0].stime == 1.5


def test_join_rejects_outside_window_and_predicate():
    op = Join("j", window=1.0, predicate=lambda l, r: l["k"] == r["k"])
    op.process(0, StreamTuple.insertion(0, 1.0, {"k": "a"}))
    assert op.process(1, StreamTuple.insertion(0, 5.0, {"k": "a"})) == []
    assert op.process(1, StreamTuple.insertion(1, 1.2, {"k": "b"})) == []
    assert len(op.process(1, StreamTuple.insertion(2, 1.2, {"k": "a"}))) == 1


def test_join_tentative_propagation():
    op = Join("j", window=1.0)
    op.process(0, StreamTuple.tentative(0, 1.0, {"k": "a"}))
    out = op.process(1, StreamTuple.insertion(0, 1.0, {"k": "b"}))
    assert out[0].is_tentative


def test_join_state_pruned_by_watermark():
    op = Join("j", window=1.0)
    op.process(0, StreamTuple.insertion(0, 1.0, {"k": "a"}))
    op.process(1, StreamTuple.boundary(0, 10.0))
    op.process(0, StreamTuple.boundary(0, 10.0))
    assert op.buffered_tuples == 0


def test_join_state_size_limit():
    op = Join("j", window=100.0, state_size=2)
    for i in range(5):
        op.process(0, StreamTuple.insertion(i, float(i), {"k": i}))
    assert op.buffered_tuples == 2


def test_join_invalid_parameters():
    with pytest.raises(OperatorError):
        Join("j", window=-1.0)
    with pytest.raises(OperatorError):
        Join("j", window=1.0, state_size=0)


def test_join_checkpoint_restore():
    op = Join("j", window=10.0)
    op.process(0, StreamTuple.insertion(0, 1.0, {"k": "a"}))
    snap = op.checkpoint()
    op.process(0, StreamTuple.insertion(1, 2.0, {"k": "b"}))
    op.restore(snap)
    assert op.buffered_tuples == 1


def test_sjoin_default_is_stateful_pass_through():
    op = SJoin("sj", state_size=10)
    out = []
    for i in range(5):
        out += op.process(0, StreamTuple.insertion(i, i * 0.1, {"seq": i}))
    assert [t.value("seq") for t in out] == [0, 1, 2, 3, 4]
    assert op.buffered_tuples == 5


def test_sjoin_state_size_bound():
    op = SJoin("sj", state_size=3)
    for i in range(10):
        op.process(0, StreamTuple.insertion(i, i * 0.1, {"seq": i}))
    assert op.buffered_tuples == 3


def test_sjoin_checkpoint_restore_and_tentative():
    op = SJoin("sj", state_size=5)
    op.process(0, StreamTuple.insertion(0, 0.0, {"seq": 0}))
    snap = op.checkpoint()
    op.process(0, StreamTuple.tentative(1, 0.1, {"seq": 1}))
    op.restore(snap)
    assert op.buffered_tuples == 1
    out = op.process(0, StreamTuple.tentative(1, 0.1, {"seq": 1}))
    assert out[0].is_tentative
