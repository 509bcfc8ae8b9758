"""Payload runs: every block operation gives the rows the row-list reference gives.

A block holds its payload as schema runs -- the typed values of each stretch
of rows sharing a key tuple, control rows joined in with ``None`` values --
and builds a row's mapping only when someone reads rows.  The reference is
the plain list of rows.  Blocks here mix schemas (key sets and key orders),
control rows and value types (ints, big ints, floats, strings, bools,
``None``), and every comparison is exact: key order and the type of every
value included.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.data_path import OutputStreamManager
from repro.spe.streams import StreamLog
from repro.spe.tuple_codec import decode_tuples, encode_tuples
from repro.spe.tuples import BlockBuffer, StreamTuple, TupleBlock

COMMON = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])

SCHEMAS = st.sampled_from(
    [("seq", "value"), ("seq", "value"), ("value", "seq"), ("seq",), ("key", "seq", "tag"), ()]
)
VALUES = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([2**70, -(2**63), 2**63 - 1]),
    st.floats(allow_nan=False),
    st.sampled_from(["a", "", "zone-1"]),
    st.booleans(),
    st.none(),
)
KINDS = st.sampled_from(["data"] * 6 + ["tentative", "boundary", "undo", "rec_done"])


@st.composite
def rows(draw, max_size=30):
    """Rows with increasing ids, mixed schemas, control rows and value types."""
    out, seq = [], 0
    for tuple_id in range(draw(st.integers(0, max_size))):
        kind, stime = draw(KINDS), draw(st.sampled_from([0.0, 0.5, 1.25, 2.0]))
        if kind == "boundary":
            out.append(StreamTuple.boundary(tuple_id, stime))
        elif kind == "undo":
            out.append(StreamTuple.undo(tuple_id, stime, draw(st.integers(-1, tuple_id))))
        elif kind == "rec_done":
            out.append(StreamTuple.rec_done(tuple_id, stime))
        else:
            values = {key: draw(VALUES) for key in draw(SCHEMAS)}
            stable = kind == "data"
            out.append(StreamTuple.data(tuple_id, stime, values, stable, seq if stable else None))
            seq += stable
    return out


@st.composite
def blocks(draw, rows):
    """``rows`` cut into consecutive blocks (empty ones included)."""
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=5)))
    edges = [0, *cuts, len(rows)]
    return [TupleBlock.of(rows[a:b]) for a, b in zip(edges, edges[1:])]


def exact(items):
    """Every field of every row, with each payload's key order and value types."""
    return [
        (
            row.tuple_type,
            row.tuple_id,
            row.stime,
            [(key, type(value), repr(value)) for key, value in row.values.items()],
            row.stable_seq,
            row.undo_from_id,
        )
        for row in items
    ]


def payloads(items):
    return [[(key, type(value), repr(value)) for key, value in row.values.items()] for row in items]


@COMMON
@given(st.data())
def test_reading_a_block_gives_its_rows(data):
    reference = data.draw(rows())
    block = TupleBlock.concat(data.draw(blocks(reference)))
    assert exact(block) == exact(reference)
    assert exact(block[index] for index in range(-len(block), len(block))) == exact(
        reference[index] for index in range(-len(reference), len(reference))
    )
    assert payloads(block) == [
        [(k, type(v), repr(v)) for k, v in values.items()] for values in block.mappings()
    ]
    for key, default in (("seq", None), ("value", 0), ("missing", -1)):
        assert list(block.column(key, default)) == [
            row.values.get(key, default) for row in reference
        ]


@COMMON
@given(st.data())
def test_slices_takes_and_relabels(data):
    reference = data.draw(rows())
    block = TupleBlock.concat(data.draw(blocks(reference)))
    bound = st.one_of(st.none(), st.integers(-len(reference) - 2, len(reference) + 2))
    start, stop = data.draw(bound), data.draw(bound)
    cuts = [(block[start:stop], reference[start:stop])]
    if reference:
        picks = data.draw(st.lists(st.integers(0, len(reference) - 1), max_size=40))
        cuts.append((block.take(picks), [reference[pick] for pick in picks]))
    for part, expected in cuts:
        assert exact(part) == exact(expected)
        assert exact(decode_tuples(encode_tuples(part))) == exact(expected)
        assert list(part.column("seq")) == [row.values.get("seq") for row in expected]
    ids = range(100, 100 + len(reference))
    relabeled = block.relabeled(ids)
    assert list(relabeled.ids) == list(ids)
    assert payloads(relabeled) == payloads(reference)


@COMMON
@given(st.data())
def test_runs_segments_and_the_codec(data):
    reference = data.draw(rows())
    block = TupleBlock.concat(data.draw(blocks(reference)))
    for pieces, edges in ((block.runs(), block.run_edges()), (block.segments(), block.segment_edges())):
        assert [exact(piece) for piece in pieces] == [exact(reference[a:b]) for a, b in edges]
    assert exact(decode_tuples(encode_tuples(block))) == exact(reference)
    # The bytes do not depend on how the rows were cut into blocks.
    assert encode_tuples(block) == encode_tuples(TupleBlock.of(reference))


@COMMON
@given(st.data())
def test_buffers_grow_and_trim_like_lists(data):
    reference = data.draw(rows())
    parts = data.draw(blocks(reference))
    buffer, log, expected = BlockBuffer(), StreamLog("s"), []
    for part in parts:
        buffer.extend(part)
        log.extend(part)
        expected += list(part)
        if expected and data.draw(st.booleans()):
            cut = data.draw(st.integers(0, len(expected)))
            if data.draw(st.booleans()):
                del buffer[:cut]
                del expected[:cut]
            else:
                del buffer[cut:]
                del expected[cut:]
        assert exact(buffer) == exact(expected)
        assert exact(buffer[1:-1]) == exact(expected[1:-1])
    after = data.draw(st.integers(-1, len(reference)))
    assert exact(log.replay_after(after)) == exact([r for r in reference if r.tuple_id > after])
    log.truncate_through(after)
    assert exact(log) == exact([r for r in reference if r.tuple_id > after])


@COMMON
@given(st.data())
def test_output_buffer_keeps_the_payloads(data):
    reference = data.draw(rows())
    manager = OutputStreamManager("out", "node")
    for part in data.draw(blocks(reference)):
        manager.append_all(part)
    assert payloads(manager.buffered_items()) == payloads(reference)
    adopted = OutputStreamManager("out", "replica")
    adopted.restore_state(manager.snapshot_state())
    assert exact(adopted.buffered_items()) == exact(manager.buffered_items())
    dropped = data.draw(st.integers(0, len(reference)))
    if dropped:
        manager._drop_oldest(dropped)
    assert payloads(manager.buffered_items()) == payloads(reference[dropped:])
