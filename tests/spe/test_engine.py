"""Unit tests for the local execution engine (push, checkpoint, restore)."""

import pytest

from repro.errors import CheckpointError, DiagramError
from repro.spe.engine import LocalEngine
from repro.spe.operators import Filter, Map, SJoin, SOutput, SUnion
from repro.spe.query_diagram import QueryDiagram
from repro.spe.tuples import StreamTuple


def build_fragment():
    diagram = QueryDiagram("frag")
    su = SUnion("su", arity=1, bucket_size=1.0)
    sj = SJoin("sj", state_size=10, window=100.0)
    so = SOutput("so")
    for op in (su, sj, so):
        diagram.add_operator(op)
    diagram.connect(su, sj)
    diagram.connect(sj, so)
    diagram.bind_input("in", su)
    diagram.bind_output("out", so)
    return diagram


def test_push_propagates_through_fragment():
    engine = LocalEngine(build_fragment())
    tuples = [StreamTuple.insertion(i, i * 0.1, {"seq": i}) for i in range(5)]
    tuples.append(StreamTuple.boundary(5, 10.0))
    outputs = engine.push("in", tuples)
    assert [t.value("seq") for t in outputs["out"] if t.is_data] == [0, 1, 2, 3, 4]
    assert engine.tuples_processed > 0


def test_push_unknown_stream_raises():
    engine = LocalEngine(build_fragment())
    with pytest.raises(DiagramError):
        engine.push("nope", [])


def test_push_operator_outputs_routes_downstream():
    engine = LocalEngine(build_fragment())
    produced = [StreamTuple.tentative(0, 0.5, {"seq": 0})]
    outputs = engine.push_operator_outputs("su", produced)
    assert len(outputs["out"]) == 1
    assert outputs["out"][0].is_tentative


def test_checkpoint_restore_resets_operator_state_except_soutput():
    diagram = build_fragment()
    engine = LocalEngine(diagram)
    engine.push("in", [StreamTuple.insertion(0, 0.1, {"seq": 0}), StreamTuple.boundary(1, 5.0)])
    checkpoint = engine.checkpoint(created_at=1.0)
    engine.push("in", [StreamTuple.insertion(2, 5.1, {"seq": 1}), StreamTuple.boundary(3, 10.0)])
    sjoin = diagram.operator("sj")
    soutput = diagram.operator("so")
    stable_before_restore = soutput.stable_forwarded
    assert sjoin.buffered_tuples == 2
    engine.restore(checkpoint)
    assert sjoin.buffered_tuples == 1  # rolled back
    assert soutput.stable_forwarded == stable_before_restore  # not rolled back


def test_soutput_duplicate_suppression_survives_failover_rollback():
    """checkpoint -> tentative processing -> restore -> redo, as in a failover.

    The engine restores every operator from the checkpoint *except* SOutput:
    its duplicate-suppression counters must drop the stable tuples the redo
    regenerates, and the physical identity of the output stream (tuple ids
    seen downstream) must continue across the rollback instead of resetting.
    """
    diagram = build_fragment()
    engine = LocalEngine(diagram)
    soutput = engine.soutput_for("out")

    # Stable prefix, then a fragment checkpoint (the node checkpoints before
    # processing anything tentative).
    stable_in = [StreamTuple.insertion(0, 0.1, {"seq": 0}), StreamTuple.boundary(1, 5.0)]
    out_before = engine.push("in", stable_in)["out"]
    checkpoint = engine.checkpoint(created_at=1.0)
    engine.note_checkpoint_on_outputs()
    last_stable_id_before = soutput.last_stable_out_id

    # More stable output after the checkpoint (will be regenerated by the
    # redo and must be suppressed), then tentative output during the failure.
    engine.push("in", [StreamTuple.insertion(2, 5.1, {"seq": 1}), StreamTuple.boundary(3, 10.0)])
    # Tentative emission during the failure takes the node's force-emit path:
    # the SUnion's buffered bucket is pushed straight to its consumers.
    tentative_out = engine.push_operator_outputs(
        "su", [StreamTuple.tentative(4, 10.5, {"seq": 2})]
    )["out"]
    assert [t.is_tentative for t in tentative_out] == [True]

    # --- failover reconciliation: rollback + redo ---------------------------
    soutput.begin_reconciliation()
    engine.restore(checkpoint)
    redo_out = engine.push(
        "in", [StreamTuple.insertion(2, 5.1, {"seq": 1}), StreamTuple.boundary(3, 10.0)]
    )["out"]
    tail = soutput.end_reconciliation(stime=12.0)

    redo_data = [t for t in redo_out if t.is_data]
    # The regenerated stable tuple was already forwarded before the rollback:
    # duplicate suppression must drop it instead of emitting it twice ...
    assert redo_data == []
    # ... but the tentative suffix is revoked and the burst closed.
    undo = [t for t in tail if t.is_undo]
    assert len(undo) == 1
    assert undo[0].undo_from_id == soutput.last_stable_out_id
    assert [t.is_rec_done for t in tail][-1]

    # Output-stream identity survived: new output ids continue the old
    # sequence rather than restarting from the checkpointed writer state.
    out_after = engine.push(
        "in", [StreamTuple.insertion(5, 10.6, {"seq": 3}), StreamTuple.boundary(6, 20.0)]
    )["out"]
    new_ids = [t.tuple_id for t in out_after if t.is_data]
    old_ids = [t.tuple_id for t in out_before if t.is_data]
    assert new_ids and min(new_ids) > max(old_ids)
    assert soutput.last_stable_out_id > last_stable_id_before


def test_restore_rejects_mismatched_checkpoint():
    engine_a = LocalEngine(build_fragment())
    other = QueryDiagram("other")
    other.add_operator(Map("m", transform=dict))
    other.bind_input("in", "m")
    other.bind_output("out", "m")
    engine_b = LocalEngine(other)
    with pytest.raises(CheckpointError):
        engine_b.restore(engine_a.checkpoint())


def test_soutput_helpers():
    engine = LocalEngine(build_fragment())
    assert [op.name for op in engine.soutputs()] == ["so"]
    assert engine.soutput_for("out").name == "so"
    with pytest.raises(DiagramError):
        engine.soutput_for("missing")


def test_soutput_for_requires_soutput_producer():
    diagram = QueryDiagram("q")
    m = Filter("f", predicate=lambda v: True)
    diagram.add_operator(m)
    diagram.bind_input("in", m)
    diagram.bind_output("out", m)
    engine = LocalEngine(diagram)
    with pytest.raises(DiagramError):
        engine.soutput_for("out")


def test_entry_operators():
    engine = LocalEngine(build_fragment())
    assert engine.entry_operators("in") == [("su", 0)]
    assert engine.entry_operators("unknown") == []


def test_checkpoint_shares_each_operator_capture_and_stays_frozen():
    """One deep copy per operator: the fragment snapshot holds the operators' own
    captures, and later processing (before or after a restore) changes neither."""
    diagram = build_fragment()
    engine = LocalEngine(diagram)
    engine.push("in", [StreamTuple.insertion(0, 0.1, {"seq": 0}), StreamTuple.boundary(1, 5.0)])
    checkpoint = engine.checkpoint(created_at=1.0)
    frozen = {name: snapshot.state_copy() for name, snapshot in checkpoint.operators.items()}
    for name, operator in diagram.operators.items():
        assert checkpoint.operators[name] is operator._own_checkpoint

    def mutate():
        engine.push("in", [StreamTuple.insertion(2, 5.1, {"seq": 1}), StreamTuple.boundary(3, 10.0)])
        assert diagram.operator("sj").checkpoint_state() != frozen["sj"]
        for name, operator in diagram.operators.items():
            assert checkpoint.operators[name].state == frozen[name]
            assert operator._own_checkpoint.state == frozen[name]

    mutate()
    engine.restore(checkpoint)
    assert diagram.operator("sj").checkpoint_state() == frozen["sj"]
    mutate()  # the restored state is a copy too, not the snapshot's own containers
