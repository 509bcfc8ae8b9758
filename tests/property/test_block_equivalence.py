"""Block-split equivalence: however a row sequence is cut into blocks, the result is the same.

The data path moves tuples as column blocks (``repro.spe.tuples.TupleBlock``)
and splits a block at its control rows.  That is a replacement of the
row-at-a-time path, not a second mode, so for every converted component the
reference is itself fed one row at a time: outputs (type, id, stime, payload,
``stable_seq``, ``undo_from_id``) and ``checkpoint_state()`` must not depend
on where the block boundaries fall.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.data_path import OutputStreamManager
from repro.core.input_streams import InputStreamMonitor
from repro.core.protocol import SubscribeRequest
from repro.deploy.filters import SubscriptionFilter
from repro.errors import BufferTruncatedError
from repro.spe.engine import LocalEngine
from repro.spe.operators import (
    Aggregate,
    AggregateSpec,
    Filter,
    Join,
    Map,
    SJoin,
    SOutput,
    SUnion,
    Union,
)
from repro.spe.query_diagram import QueryDiagram
from repro.spe.tuple_codec import decode_tuples, encode_tuples
from repro.spe.tuples import BOUNDARY, StreamTuple, TupleBlock, TupleType
from repro.spe.windows import WindowSpec

COMMON = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])

KINDS = st.sampled_from(
    ["stable"] * 6 + ["tentative"] * 2 + ["boundary"] * 2 + ["undo", "rec_done"]
)


@st.composite
def streams(draw, min_size=1, max_size=40, kinds=KINDS, stamped=False):
    """A well-formed stream: increasing ids, non-decreasing boundaries, jittered stimes."""
    rows, boundary, stime, seq = [], 0.0, 0.0, draw(st.integers(0, 5))
    for tuple_id in range(draw(st.integers(min_size, max_size))):
        kind = draw(kinds)
        stime = max(0.0, stime + draw(st.sampled_from([0.0, 0.01, 0.04, 0.09, -0.03])))
        if kind == "boundary":
            boundary = max(boundary, stime)
            rows.append(StreamTuple.boundary(tuple_id, boundary))
        elif kind == "undo":
            rows.append(StreamTuple.undo(tuple_id, stime, draw(st.sampled_from([-1, 0, tuple_id]))))
        elif kind == "rec_done":
            rows.append(StreamTuple.rec_done(tuple_id, stime))
        else:
            values = {"seq": tuple_id, "value": float(tuple_id % 7)}
            stable_seq = None
            if kind == "stable" and stamped:
                stable_seq, seq = seq, seq + draw(st.integers(1, 2))  # gaps: a filtered slice
            rows.append(StreamTuple.data(tuple_id, stime, values, kind == "stable", stable_seq))
    return rows


@st.composite
def cut_into_blocks(draw, rows):
    """``rows`` as consecutive blocks at drawn cut points (empty blocks included)."""
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=6)))
    edges = [0, *cuts, len(rows)]
    return [TupleBlock.of(rows[a:b]) for a, b in zip(edges, edges[1:])]


def fields(rows):
    return [
        (r.tuple_type, r.tuple_id, r.stime, r.values, r.stable_seq, r.undo_from_id) for r in rows
    ]


def plain(state):
    """A checkpoint state with every block replaced by its rows (block cuts erased)."""
    if isinstance(state, TupleBlock):
        return fields(state)
    if isinstance(state, dict):
        if "buckets" in state:  # SUnion: (port, block) entries -> (port, row) entries
            state = dict(state)
            state["buckets"] = {
                index: [(port, row) for port, block in entries for row in fields(block)]
                for index, entries in state["buckets"].items()
            }
        return {key: plain(value) for key, value in state.items()}
    if isinstance(state, (list, tuple)):
        return [plain(value) for value in state]
    return state


def assert_same_operator(make, rows, blocks, port_of=lambda row: 0, prepare=lambda op: None):
    by_row, by_block = make(), make()
    prepare(by_row), prepare(by_block)
    expected = [out for row in rows for out in by_row.process(port_of(row), row)]
    produced = []
    for block in blocks:
        # A block arrives on one port: cut it further wherever the port changes.
        start = 0
        for position in range(1, len(block) + 1):
            if position == len(block) or port_of(block[position]) != port_of(block[start]):
                produced += by_block.process_batch(port_of(block[start]), block[start:position])
                start = position
    assert fields(produced) == fields(expected)
    assert plain(by_block.checkpoint_state()) == plain(by_row.checkpoint_state())
    return by_row, by_block


# --------------------------------------------------------------------------- operators
@COMMON
@given(st.data())
def test_stateless_and_join_operators(data):
    rows = data.draw(streams())
    blocks = data.draw(cut_into_blocks(rows))
    assert_same_operator(lambda: Filter("f", lambda v: v["seq"] % 3 != 0), rows, blocks)
    assert_same_operator(lambda: Map("m", lambda v: {**v, "twice": v["seq"] * 2}), rows, blocks)
    assert_same_operator(lambda: SJoin("j", window=0.2, state_size=5), rows, blocks)
    ports = data.draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
    port_by_id = {row.tuple_id: port for row, port in zip(rows, ports)}
    assert_same_operator(
        lambda: Union("u", arity=3), rows, blocks, port_of=lambda row: port_by_id[row.tuple_id]
    )
    assert_same_operator(
        lambda: Join("jm", window=0.2, state_size=5,
                     predicate=lambda left, right: left["seq"] % 2 == right["seq"] % 2),
        rows, blocks, port_of=lambda row: port_by_id[row.tuple_id] % 2,
    )
    assert_same_operator(
        lambda: Aggregate(
            "a", WindowSpec.sliding(size=0.2, slide=0.1),
            [AggregateSpec("n", "count"), AggregateSpec("total", "sum", "value")],
            group_by=("value",),
        ),
        rows, blocks,
    )


@st.composite
def unsorted_grouped_rows(draw):
    """Data rows whose stimes jump across pane edges in both directions, with
    ``None`` / missing attributes, mixed numeric types, TENTATIVE rows and the
    occasional boundary: what a pane Aggregate sees during and after a redo."""
    rows, stime, boundary = [], 1.0, 0.0
    for tuple_id in range(draw(st.integers(1, 40))):
        stime = max(0.0, stime + draw(st.sampled_from([0.0, 0.01, 0.04, 0.1, 0.35, -0.03, -0.3])))
        if draw(st.integers(0, 9)) == 0:
            boundary = max(boundary, stime)
            rows.append(StreamTuple.boundary(tuple_id, boundary))
            continue
        values = {
            "seq": tuple_id,
            "value": draw(st.sampled_from([None, 1, 1.0, True, 2.5, -3, 0.1])),
            "rank": draw(st.sampled_from([1, 1.0, True, 2, 0.5])),  # never None: min([]) raises
        }
        group = draw(st.sampled_from(["a", "b", None, "absent"]))
        if group != "absent":
            values["g"] = group
        rows.append(StreamTuple.data(tuple_id, stime, values, draw(st.integers(0, 4)) != 0))
    return rows


@COMMON
@given(st.data())
def test_grouped_pane_aggregate_over_unsorted_runs(data):
    rows = data.draw(unsorted_grouped_rows())
    blocks = data.draw(cut_into_blocks(rows))
    specs = [
        AggregateSpec("n", "count"), AggregateSpec("known", "count", "value"),
        AggregateSpec("total", "sum", "value"), AggregateSpec("mean", "avg", "value"),
        AggregateSpec("lo", "min", "rank"), AggregateSpec("hi", "max", "rank"),
    ]
    for group_by in (("g",), ()):
        by_row, by_block = assert_same_operator(
            lambda: Aggregate("a", WindowSpec.sliding(size=0.5, slide=0.125), specs, group_by=group_by),
            rows, blocks,
        )
        # Equal is not enough where 1 == 1.0 == True: the kept objects must match too.
        assert repr(by_block.checkpoint_state()) == repr(by_row.checkpoint_state())
        closing = StreamTuple.boundary(10_000, 100.0)
        assert repr(fields(by_block.process(0, closing))) == repr(fields(by_row.process(0, closing)))


@COMMON
@given(st.data(), st.booleans())
def test_sunion_single_port(data, hold):
    rows = data.draw(streams())
    blocks = data.draw(cut_into_blocks(rows))

    def prepare(op):
        op.hold_buckets = hold

    by_row, by_block = assert_same_operator(
        lambda: SUnion("u", arity=1, bucket_size=0.1), rows, blocks, prepare=prepare
    )
    assert by_block.late_drops == by_row.late_drops
    assert fields(by_block.force_emit_pending()) == fields(by_row.force_emit_pending())


@COMMON
@given(st.data())
def test_sunion_three_ports_with_port_removal(data):
    rows = data.draw(streams(kinds=st.sampled_from(["stable"] * 5 + ["tentative", "boundary"])))
    ports = data.draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
    port_by_id = {row.tuple_id: port for row, port in zip(rows, ports)}
    blocks = data.draw(cut_into_blocks(rows))
    by_row, by_block = assert_same_operator(
        lambda: SUnion("u", arity=3, bucket_size=0.1), rows, blocks,
        port_of=lambda row: port_by_id[row.tuple_id],
    )
    for op in (by_row, by_block):
        op.remove_port(1)
    assert plain(by_block.checkpoint_state()) == plain(by_row.checkpoint_state())
    closing = StreamTuple.boundary(10_000, 100.0)
    outputs = [
        fields(list(op.process(0, closing)) + list(op.process(1, closing)))
        for op in (by_row, by_block)
    ]
    assert outputs[0] == outputs[1]


@COMMON
@given(st.data(), st.booleans(), st.integers(0, 4))
def test_soutput_modes(data, downgrade, already_forwarded):
    rows = data.draw(streams())
    blocks = data.draw(cut_into_blocks(rows))

    def prepare(op):
        # A reconciliation in progress: some regenerated stable tuples are
        # duplicates to drop, and a tentative suffix awaits its UNDO.
        for i in range(already_forwarded):
            op.process(0, StreamTuple.insertion(i, 0.0, {"seq": -i}))
        op.process(0, StreamTuple.tentative(99, 0.0, {"seq": -99}))
        op.begin_reconciliation()
        op.downgrade_to_tentative = downgrade

    by_row, by_block = assert_same_operator(lambda: SOutput("o"), rows, blocks, prepare=prepare)
    for name in ("stable_forwarded", "tentative_forwarded", "undos_emitted",
                 "last_stable_out_id", "is_reconciling", "_duplicates_to_drop", "_undo_pending"):
        assert getattr(by_block, name) == getattr(by_row, name), name
    assert fields(by_block.end_reconciliation(9.0)) == fields(by_row.end_reconciliation(9.0))


# --------------------------------------------------------------------------- one fragment hop
def _fragment(join: bool) -> LocalEngine:
    """A replica's fragment: SUnion -> [pass-through SJoin ->] SOutput."""
    diagram = QueryDiagram(name="hop")
    operators = [SUnion("u", arity=1, bucket_size=0.1)]
    if join:
        operators.append(SJoin("j", window=0.2, state_size=5))
    operators.append(SOutput("o"))
    for operator in operators:
        diagram.add_operator(operator)
    for upstream, downstream in zip(operators, operators[1:]):
        diagram.connect(upstream, downstream)
    diagram.bind_input("in", operators[0])
    diagram.bind_output("out", operators[-1])
    return LocalEngine(diagram)


def _row_at_a_time(engine: LocalEngine):
    """The reference hop: every operator fed one row at a time, each boundary its own row.

    Returns ``push(row) -> (output rows, data rows processed)`` over the
    engine's operators (a chain); no segment ever holds a run and its
    boundary, so no relabel or boundary is fused anywhere.
    """
    chain = [engine.diagram.operator(name) for name in engine.diagram.topological_order()]
    for operator in chain:
        operator._emit_boundary = (
            lambda stime, out, writer=operator.writer: out.append(writer.control(BOUNDARY, stime))
        )

    def push(row):
        rows, processed = [row], 0
        for operator in chain:
            processed += sum(1 for item in rows if item.is_data)
            rows = [out for item in rows for out in operator.process(0, item)]
        return rows, processed

    return push


@COMMON
@given(st.data(), st.booleans(), st.sampled_from(["plain", "hold", "dirty", "reconciling"]))
def test_fused_hop_matches_row_at_a_time(data, join, mode):
    """Whole batches through the engine and into the output buffer, against one row at a time.

    The batch path keeps a data run and its boundary in one segment through
    every operator (an operator appends its boundary to the run it just
    numbered; a pass-through relabels both with one id take) and hands the
    engine's output to ``append_all`` as it is.  The reference feeds every
    operator and the buffer one row at a time, each boundary a row of its
    own: the outputs, the buffer and every operator's state must agree.
    """
    rows = data.draw(streams())
    blocks = data.draw(cut_into_blocks(rows))
    hops = []
    for _ in range(2):
        engine, manager = _fragment(join), OutputStreamManager("out", "n")
        manager.attach_subscriber("down")
        union, soutput = engine.diagram.operator("u"), engine.diagram.operator("o")
        if mode == "hold":
            union.hold_buckets = True
        elif mode == "dirty":
            soutput.downgrade_to_tentative = True
        elif mode == "reconciling":
            for i in range(3):
                engine.push("in", [StreamTuple.insertion(i, 0.01 * i, {"seq": -i})])
            engine.push("in", [StreamTuple.boundary(3, 0.05), StreamTuple.boundary(4, 0.1)])
            soutput.begin_reconciliation()
        hops.append((engine, manager))
    (by_row, row_buffer), (by_block, block_buffer) = hops
    push_row, row_out, row_processed = _row_at_a_time(by_row), [], by_row.tuples_processed
    for row in rows:
        produced, processed = push_row(row)
        row_out += [row_buffer.append(item) for item in produced]
        row_processed += processed
    block_out = []
    for block in blocks:
        block_out += block_buffer.append_all(by_block.push("in", block)["out"])
    assert fields(block_out) == fields(row_out)
    assert fields(block_buffer.buffered_items()) == fields(row_buffer.buffered_items())
    assert fields(block_buffer.pending_for("down")) == fields(row_buffer.pending_for("down"))
    for name in ("stable_seq", "stable_produced", "tentative_produced", "undos_produced",
                 "last_appended_stime"):
        assert getattr(block_buffer, name) == getattr(row_buffer, name), name
    assert_same_replays(row_buffer, block_buffer)
    assert by_block.tuples_processed == row_processed
    for name, operator in by_block.diagram.operators.items():
        reference = by_row.diagram.operator(name)
        assert plain(operator.checkpoint_state()) == plain(reference.checkpoint_state()), name


def test_a_run_and_its_boundary_cross_the_fragment_as_one_block():
    engine = _fragment(join=True)
    batch = TupleBlock.of([
        StreamTuple.insertion(0, 0.01, {"seq": 0}),
        StreamTuple.insertion(1, 0.02, {"seq": 1}),
        StreamTuple.boundary(2, 0.1),
    ])
    out = engine.push("in", batch)["out"]
    # One bucket and its boundary: relabeled once per operator, never split.
    assert out.codes == batch.codes and out.ids == range(0, 3)
    assert [row.tuple_type for row in out] == [row.tuple_type for row in batch]
    manager = OutputStreamManager("out", "n")
    assert fields(manager.append_all(out)) == fields(
        [StreamTuple.data(0, 0.01, {"seq": 0}, True, 0), StreamTuple.data(1, 0.02, {"seq": 1}, True, 1),
         StreamTuple.boundary(2, 0.1)]
    )
    # A run out of stime order is not passed through: the bucket sorts it.
    late_first = TupleBlock.of([
        StreamTuple.insertion(3, 0.15, {"seq": 3}),
        StreamTuple.insertion(4, 0.12, {"seq": 4}),
        StreamTuple.boundary(5, 0.2),
    ])
    assert [row.stime for row in engine.push("in", late_first)["out"]] == [0.12, 0.15, 0.2]


# --------------------------------------------------------------------------- input monitor
MONITOR_FIELDS = (
    "last_boundary_arrival", "last_boundary_stime", "last_data_arrival", "tentative_since_stable",
    "rec_done_received", "stable_received", "source_position", "awaiting_replay",
    "tentative_received", "undos_received",
)


#: Failure-time traffic: runs of tentative rows, corrections after an UNDO, REC_DONE.
FAILURE_KINDS = st.sampled_from(["tentative"] * 6 + ["stable"] * 2 + ["boundary", "undo", "rec_done"])


@COMMON
@given(st.data(), st.booleans(), st.booleans(), st.integers(0, 8), st.sampled_from([KINDS, FAILURE_KINDS]))
def test_input_monitor(data, from_source, awaiting_replay, already_received, kinds):
    """``record_block`` on columns equals ``record_tuple`` row by row: the rows it keeps,
    every counter, and the redo buffer -- duplicates by position or by id, the
    replay gate, and stamped positions with gaps (a filtered slice) included."""
    rows = data.draw(streams(stamped=not from_source, kinds=kinds))
    blocks = data.draw(cut_into_blocks(rows))

    def monitor():
        m = InputStreamMonitor(stream="s")
        m.add_producer("up", is_source=from_source)
        # Part of the stream was already delivered (by another replica, or
        # before a cursor rewind): a duplicate prefix by position or by id.
        m.stable_received = already_received
        m.source_position = already_received - 1 if from_source else -1
        m.awaiting_replay = awaiting_replay
        return m

    by_row, by_block = monitor(), monitor()
    expected = [row for row in rows if by_row.record_tuple(row, 1.5) == "accept"]
    accepted = [row for block in blocks for row in by_block.record_block(block, 1.5)]
    assert fields(accepted) == fields(expected)
    for name in MONITOR_FIELDS:
        assert getattr(by_block, name) == getattr(by_row, name), name
    assert len(by_block.stable_buffer) == len(by_row.stable_buffer)  # in rows
    assert fields(by_block.stable_buffer[:]) == fields(by_row.stable_buffer[:])
    assert by_block.stable_buffer.data_rows == by_row.stable_buffer.data_rows


# --------------------------------------------------------------------------- output buffer
def feed(manager, pieces, acks):
    """Append ``pieces`` -- blocks, or lists of rows appended one at a time.

    After each piece both subscribers are flushed (``pending_for``, then
    ``mark_delivered``) and the declared consumer ``"plain"`` acknowledges
    through its drawn position, capped at the last stable seq it was sent.
    Returns the physical rows and the rows each subscriber was sent.
    """
    physical, sent = [], {"plain": [], "filtered": []}
    for piece, through in zip(pieces, acks):
        if isinstance(piece, TupleBlock):
            physical += manager.append_all(piece)
        else:
            physical += [manager.append(row) for row in piece]
        for subscriber, rows in sent.items():
            rows += manager.pending_for(subscriber)
            manager.mark_delivered(subscriber)
        seqs = [row.stable_seq for row in sent["plain"] if row.stable_seq is not None]
        manager.acknowledge("plain", min(through, max(seqs, default=-1)))
    return physical, sent


@COMMON
@given(st.data())
def test_output_buffer(data):
    rows = data.draw(streams())
    blocks = data.draw(cut_into_blocks(rows))
    acks = data.draw(
        st.lists(st.integers(-1, len(rows)), min_size=len(blocks), max_size=len(blocks))
    )
    by_row, by_block = OutputStreamManager("s", "n"), OutputStreamManager("s", "n")
    # A filtered subscription whose predicate changes at a cut (two epochs).
    filter_ = SubscriptionFilter(lambda v: v["seq"] % 2 == 0, "slice")
    filter_.advance(0.15, lambda v: v["seq"] % 3 == 0)
    for manager in (by_row, by_block):
        manager.attach_subscriber("filtered", filter_)
        manager.attach_subscriber("plain")
        manager.add_consumer("plain")
    # Acknowledgments land at the same stream positions (the block ends) on both.
    expected, sent_by_row = feed(by_row, [list(block) for block in blocks], acks)
    physical, sent = feed(by_block, blocks, acks)
    assert fields(physical) == fields(expected)
    # Truncation never outruns delivery: "plain" was sent every physical row exactly once.
    assert fields(sent["plain"]) == fields(physical)
    # Row by row: control rows always pass, data rows by their stime's epoch.
    modulus = {True: 2, False: 3}
    assert fields(sent["filtered"]) == fields(
        [
            row
            for row in physical
            if not row.is_data or row.values["seq"] % modulus[row.stime < 0.15] == 0
        ]
    )
    for subscriber, rows in sent.items():
        assert fields(sent_by_row[subscriber]) == fields(rows)
    assert fields(by_block.buffered_items()) == fields(by_row.buffered_items())
    assert by_block.truncated_tuples == by_row.truncated_tuples
    assert_same_replays(by_row, by_block)


def assert_same_replays(by_row, by_block):
    """Both buffers answer a subscription from every stable position alike."""
    for position in range(-1, by_row.stable_seq + 2):
        outcomes = []
        for manager in (by_row, by_block):
            manager = copy.copy(manager)  # subscribe() may spend an id; probe a shallow copy
            manager._writer = copy.copy(manager._writer)
            manager._id_skips = list(manager._id_skips)
            manager._subscriptions = dict(manager._subscriptions)
            request = SubscribeRequest(
                stream=manager.stream, subscriber="late", last_stable_seq=position,
                had_tentative=position % 2 == 0, replay_tentative=position % 3 == 0,
            )
            try:
                outcomes.append(fields(manager.subscribe(request)))
            except BufferTruncatedError:
                outcomes.append("truncated")
        assert outcomes[0] == outcomes[1], position


# --------------------------------------------------------------------------- codec
@COMMON
@given(st.data())
def test_codec_round_trips_blocks_with_sparse_columns_and_schema_runs(data):
    rows = data.draw(streams(min_size=0, stamped=data.draw(st.booleans())))
    if rows and data.draw(st.booleans()):  # a second schema run
        rows.append(StreamTuple.data(len(rows), 9.0, {"other": "x", "n": 2**70}, True, None))
    block = TupleBlock.of(rows)
    decoded = decode_tuples(encode_tuples(block))
    assert isinstance(decoded, TupleBlock)
    assert decoded == block and fields(decoded) == fields(rows)
    assert encode_tuples(decoded) == encode_tuples(rows)  # rows and blocks encode alike
    for cut in data.draw(st.lists(st.integers(0, len(rows)), max_size=3)):
        assert decode_tuples(encode_tuples(block[:cut])) + decode_tuples(
            encode_tuples(block[cut:])
        ) == block


def test_a_row_is_a_block_of_one():
    row = StreamTuple(TupleType.UNDO, 3, 1.5, undo_from_id=0)
    block = TupleBlock.of([row])
    assert len(block) == 1 and block[0] == row and list(block) == [row]
    assert block.undo_from_ids == [0] and block.stable_seqs is None
    assert TupleBlock.of(block) is block and block.runs() == [block]
    with pytest.raises(IndexError):
        block[1]
