"""Unit tests for the DPC-extended tuple data model."""

import pytest

from repro.spe.tuples import (
    StreamTuple,
    TupleType,
    data_only,
    max_stime,
)


def test_insertion_is_stable_data():
    t = StreamTuple.insertion(3, 1.5, {"seq": 7})
    assert t.is_data and t.is_stable and not t.is_tentative
    assert t.tuple_type is TupleType.INSERTION
    assert t.value("seq") == 7
    assert t.value("missing", "default") == "default"


def test_tentative_tuple_flags():
    t = StreamTuple.tentative(1, 0.5, {"seq": 1})
    assert t.is_data and t.is_tentative and not t.is_stable


def test_boundary_undo_recdone_are_not_data():
    b = StreamTuple.boundary(0, 2.0)
    u = StreamTuple.undo(1, 2.0, undo_from_id=5)
    r = StreamTuple.rec_done(2, 2.0)
    assert not b.is_data and b.is_boundary
    assert not u.is_data and u.is_undo and u.undo_from_id == 5
    assert not r.is_data and r.is_rec_done


def test_as_tentative_and_as_stable_round_trip():
    stable = StreamTuple.insertion(1, 1.0, {"x": 1})
    tentative = stable.as_tentative()
    assert tentative.is_tentative
    assert tentative.values == stable.values
    assert tentative.as_stable().is_stable


def test_as_tentative_on_control_tuple_is_identity():
    boundary = StreamTuple.boundary(0, 1.0)
    assert boundary.as_tentative() is boundary
    assert boundary.as_stable() is boundary


def test_with_id_preserves_everything_else():
    t = StreamTuple.insertion(1, 1.0, {"x": 1}).with_stable_seq(9)
    t2 = t.with_id(42)
    assert t2.tuple_id == 42
    assert t2.stime == t.stime
    assert t2.values == t.values
    assert t2.stable_seq == 9


def test_data_only_and_max_stime():
    items = [
        StreamTuple.insertion(0, 0.0, {}),
        StreamTuple.tentative(1, 0.1, {}),
        StreamTuple.tentative(2, 0.2, {}),
        StreamTuple.boundary(3, 0.3),
    ]
    assert len(data_only(items)) == 3
    assert max_stime(items) == pytest.approx(0.3)
    assert max_stime([]) == float("-inf")


def test_tuples_reject_foreign_attributes():
    """``__slots__``: no per-instance dict, no accidental attribute growth."""
    t = StreamTuple.insertion(0, 0.0, {"x": 1})
    with pytest.raises(AttributeError):
        t.not_a_field = 5.0
    assert not hasattr(t, "__dict__")


def test_tuples_are_unhashable():
    """Payload mappings are mutable, so tuples must not silently hash."""
    with pytest.raises(TypeError):
        hash(StreamTuple.insertion(0, 0.0, {"x": 1}))


def test_predicate_flags_match_tuple_type():
    cases = {
        TupleType.INSERTION: "is_stable",
        TupleType.TENTATIVE: "is_tentative",
        TupleType.BOUNDARY: "is_boundary",
        TupleType.UNDO: "is_undo",
        TupleType.REC_DONE: "is_rec_done",
    }
    for tuple_type, flag in cases.items():
        t = StreamTuple(tuple_type, 0, 0.0, undo_from_id=0)
        assert getattr(t, flag), tuple_type
        others = set(cases.values()) - {flag}
        assert not any(getattr(t, other) for other in others), tuple_type
        assert t.is_data == (tuple_type in (TupleType.INSERTION, TupleType.TENTATIVE))


def test_equality_matches_field_comparison():
    a = StreamTuple.insertion(1, 2.0, {"x": 1})
    b = StreamTuple.insertion(1, 2.0, {"x": 1})
    assert a == b
    assert a != b.with_stable_seq(0)
    assert a != StreamTuple.tentative(1, 2.0, {"x": 1})
    assert a != "not a tuple"


def test_copy_and_deepcopy_return_the_tuple_itself():
    """Tuples are immutable by convention: checkpoint containers that
    deep-copy captured state hold buffered tuples by reference."""
    import copy

    original = StreamTuple.insertion(7, 1.25, {"seq": 7}).with_stable_seq(3)
    assert copy.copy(original) is original
    assert copy.deepcopy(original) is original
    assert copy.deepcopy({"buffer": [original]})["buffer"][0] is original


def test_pickle_round_trips_slots():
    """Live checkpoints cross processes by pickle; slots must survive."""
    import pickle

    original = StreamTuple.insertion(7, 1.25, {"seq": 7}).with_stable_seq(3)
    clone = pickle.loads(pickle.dumps(original, protocol=pickle.HIGHEST_PROTOCOL))
    assert clone == original and clone is not original
    assert clone.values == original.values and clone.values is not original.values
    assert clone.is_stable and clone.stable_seq == 3


# --------------------------------------------------------------------------- relabeling semantics
def test_as_tentative_drops_stable_seq_and_undo_from_id():
    """A relabeled copy is a new fact: positional metadata must not survive.

    ``stable_seq`` names a position in a producer's logical *stable* stream;
    a tentative copy has no such position (only stable tuples are numbered).
    Regression-pinned so the slotted rewrite (and any future one) cannot
    silently start leaking the ancestor's position onto corrections.
    """
    stamped = StreamTuple.insertion(4, 2.0, {"seq": 9}).with_stable_seq(17)
    downgraded = stamped.as_tentative()
    assert downgraded.is_tentative
    assert downgraded.stable_seq is None
    assert downgraded.undo_from_id is None
    assert downgraded.tuple_id == 4 and downgraded.stime == 2.0


def test_as_stable_drops_stable_seq_and_undo_from_id():
    """Upgrades must not inherit a position stamped on the tentative ancestor."""
    stamped = StreamTuple.tentative(4, 2.0, {"seq": 9}).with_stable_seq(17)
    upgraded = stamped.as_stable()
    assert upgraded.is_stable
    assert upgraded.stable_seq is None
    assert upgraded.undo_from_id is None


def test_relabeled_copies_share_the_payload_mapping():
    """Allocation-free transforms: the payload is shared, never copied."""
    stable = StreamTuple.insertion(1, 1.0, {"x": 1})
    assert stable.as_tentative().values is stable.values
    assert stable.as_tentative().as_stable().values is stable.values
    assert stable.with_id(9).values is stable.values
    assert stable.with_stable_seq(2).values is stable.values
