"""Unit tests for Filter, Map, and Union."""

import pytest

from repro.errors import OperatorError
from repro.spe.operators import Filter, Map, Union, chain_process
from repro.spe.operators.base import Operator
from repro.spe.tuples import StreamTuple, TupleType


def make_stream(n=5, start_id=0, tentative=False):
    factory = StreamTuple.tentative if tentative else StreamTuple.insertion
    return [factory(start_id + i, i * 0.1, {"seq": i, "value": i * 10}) for i in range(n)]


def test_filter_passes_matching_tuples():
    op = Filter("f", predicate=lambda v: v["value"] >= 20)
    out = op.process_batch(0, make_stream(5))
    assert [t.value("seq") for t in out] == [2, 3, 4]
    assert all(t.is_stable for t in out)


def test_filter_preserves_tentative_label():
    op = Filter("f", predicate=lambda v: True)
    out = op.process_batch(0, make_stream(3, tentative=True))
    assert all(t.is_tentative for t in out)


def test_map_transforms_values_and_keeps_stime():
    op = Map("m", transform=lambda v: {"double": v["value"] * 2})
    out = op.process(0, StreamTuple.insertion(0, 1.25, {"value": 3}))
    assert out[0].values == {"double": 6}
    assert out[0].stime == 1.25


def test_operator_rejects_invalid_port():
    op = Map("m", transform=dict)
    with pytest.raises(OperatorError):
        op.process(1, StreamTuple.insertion(0, 0.0, {}))


def test_operator_requires_positive_arity():
    with pytest.raises(OperatorError):
        Union("u", arity=0)


def test_union_merges_in_arrival_order():
    op = Union("u", arity=2)
    out = []
    out += op.process(0, StreamTuple.insertion(0, 0.0, {"seq": 0}))
    out += op.process(1, StreamTuple.insertion(0, 0.05, {"seq": 100}))
    out += op.process(0, StreamTuple.insertion(1, 0.1, {"seq": 1}))
    assert [t.value("seq") for t in out] == [0, 100, 1]
    assert [t.tuple_id for t in out] == [0, 1, 2]


def test_union_forwards_each_tuples_label():
    op = Union("u", arity=2)
    out = op.process(0, StreamTuple.tentative(0, 0.0, {"seq": 0}))
    assert out[0].is_tentative
    out = op.process(1, StreamTuple.insertion(0, 0.1, {"seq": 1}))
    assert out[0].is_stable


def test_operator_without_a_run_strategy_refuses_data():
    # The base class has no per-row fallback: a data run reaching an operator
    # that does not implement _process_run is an error naming the operator.
    op = Operator("bare", arity=1)
    with pytest.raises(NotImplementedError, match="Operator 'bare' does not process data runs"):
        op.process(0, StreamTuple.insertion(0, 0.0, {"seq": 0}))
    # Control tuples still flow through the base class.
    assert [t.is_boundary for t in op.process(0, StreamTuple.boundary(1, 1.0))] == [True]


def test_boundary_forwarding_uses_minimum_across_ports():
    op = Union("u", arity=2)
    out = op.process(0, StreamTuple.boundary(0, 5.0))
    assert out == []  # port 1 has no boundary yet
    out = op.process(1, StreamTuple.boundary(0, 3.0))
    boundaries = [t for t in out if t.tuple_type is TupleType.BOUNDARY]
    assert len(boundaries) == 1 and boundaries[0].stime == 3.0
    out = op.process(1, StreamTuple.boundary(1, 7.0))
    boundaries = [t for t in out if t.tuple_type is TupleType.BOUNDARY]
    assert len(boundaries) == 1 and boundaries[0].stime == 5.0


def test_chain_process_utility():
    ops = [
        Filter("f", predicate=lambda v: v["seq"] % 2 == 0),
        Map("m", transform=lambda v: {"seq": v["seq"] * 100}),
    ]
    out = chain_process(ops, make_stream(4))
    assert [t.value("seq") for t in out] == [0, 200]


def test_checkpoint_restore_round_trip_on_stateless_operator():
    op = Filter("f", predicate=lambda v: True)
    op.process(0, StreamTuple.insertion(0, 0.0, {"seq": 0}))
    snapshot = op.checkpoint()
    op.process(0, StreamTuple.insertion(1, 0.1, {"seq": 1}))
    op.restore(snapshot)
    out = op.process(0, StreamTuple.insertion(1, 0.1, {"seq": 1}))
    # The writer id picks up exactly where the checkpoint left it.
    assert out[0].tuple_id == 1


def test_restore_rejects_foreign_checkpoint():
    op_a = Filter("a", predicate=lambda v: True)
    op_b = Filter("b", predicate=lambda v: True)
    with pytest.raises(OperatorError):
        op_b.restore(op_a.checkpoint())
