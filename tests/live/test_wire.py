"""Round-trip property tests for the live backend's wire codec.

The codec must be round-trip *exact*: for every payload the protocol can
produce, ``decode(encode(x)) == x``.  Hypothesis drives randomized tuples,
batches and control messages through the codec; deterministic cases pin the
versioning and filter-registry behavior.
"""

import math
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.protocol import (
    CHECKPOINT_ACK,
    CHECKPOINT_REQUEST,
    CHECKPOINT_RESPONSE,
    DATA,
    HEARTBEAT_RESPONSE,
    RECONCILE_REPLY,
    RECONCILE_REQUEST,
    SOURCE_RESUBSCRIBE,
    SUBSCRIBE,
    UNSUBSCRIBE,
    CheckpointAck,
    CheckpointRequest,
    CheckpointResponse,
    DataBatch,
    HeartbeatResponse,
    ReconcileReply,
    ReconcileRequest,
    SourceResubscribe,
    SubscribeRequest,
    UnsubscribeRequest,
)
from repro.core.states import NodeState
from repro.deploy.filters import SubscriptionFilter
from repro.live import wire
from repro.spe.tuples import DATA_TYPES, StreamTuple, TupleType

COMMON = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# ---------------------------------------------------------------------- strategies
# Finite floats only where round trips are compared with ==: stime/payload
# floats in this system are arithmetic on finite inputs, and NaN breaks ==
# comparison, not the codec (the bit-exactness tests below cover NaN/inf).
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(min_size=0, max_size=12)
payload_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # unbounded: beyond +-2**63 a column falls back to varints
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    finite_floats,
    st.sampled_from([-0.0, 0.0, 2.0**63, -(2.0**63)]),
    st.text(max_size=20),
    st.tuples(st.integers(), st.text(max_size=5)),  # exercises the pickle escape hatch
)
payloads = st.dictionaries(st.text(max_size=10), payload_values, max_size=6)

node_states = st.sampled_from(list(NodeState))
opt_node_states = st.one_of(st.none(), node_states)


@st.composite
def stream_tuples(draw):
    tuple_type = draw(st.sampled_from(list(TupleType)))
    tuple_id = draw(st.integers(min_value=-(2**40), max_value=2**40))
    stime = draw(finite_floats)
    values = draw(payloads) if tuple_type in DATA_TYPES else {}
    undo_from_id = (
        draw(st.integers(min_value=-(2**40), max_value=2**40))
        if tuple_type is TupleType.UNDO
        else None
    )
    stable_seq = (
        draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2**40)))
        if tuple_type in DATA_TYPES
        else None
    )
    return StreamTuple(
        tuple_type=tuple_type,
        tuple_id=tuple_id,
        stime=stime,
        values=values,
        undo_from_id=undo_from_id,
        stable_seq=stable_seq,
    )


# What a columnar codec can get wrong and a row-wise one cannot: columns.
# A *schema* fixes the key tuple (so consecutive tuples form one run) and a
# per-key value strategy: homogeneous int64 / float64 columns take the packed
# encodings, the mixed one falls back to tagged values.
_column_kinds = st.sampled_from(
    [
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.integers(min_value=-(2**70), max_value=2**70),
        finite_floats,
        st.booleans(),
        st.text(max_size=6),
        payload_values,
    ]
)
schemas = st.lists(
    st.tuples(st.text(max_size=6), _column_kinds), max_size=4, unique_by=lambda kv: kv[0]
)


@st.composite
def schema_runs(draw):
    """Consecutive data tuples sharing one key tuple (possibly the empty one)."""
    schema = draw(schemas)
    tentative = draw(st.booleans())
    items = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        values = {key: draw(kind) for key, kind in schema}
        items.append(
            StreamTuple(
                tuple_type=TupleType.TENTATIVE if tentative else TupleType.INSERTION,
                tuple_id=draw(st.integers(min_value=-(2**40), max_value=2**40)),
                stime=draw(finite_floats),
                values=values,
                # tentative tuples never carry a stable position
                stable_seq=None if tentative else draw(
                    st.one_of(st.none(), st.integers(min_value=0, max_value=2**40))
                ),
            )
        )
    return items


@st.composite
def data_batches(draw):
    # Mixed-schema batches: runs of same-schema data tuples interleaved with
    # arbitrary tuples (control tuples are the empty schema); an empty list
    # and control-only lists are drawn too.
    chunks = draw(st.lists(st.one_of(schema_runs(), st.lists(stream_tuples(), max_size=3)),
                           max_size=4))
    return DataBatch(
        stream=draw(names),
        tuples=tuple(item for chunk in chunks for item in chunk),
        producer=draw(names),
        producer_node_state=draw(opt_node_states),
        producer_stream_state=draw(opt_node_states),
        replay=draw(st.booleans()),
    )


def _bit_exact(value):
    """Comparable form that tells -0.0 from 0.0 and keeps NaN equal to itself."""
    if type(value) is float:
        return ("f64", struct.pack(">d", value))
    return (type(value).__name__, value)


# ---------------------------------------------------------------------- tuples
@COMMON
@given(stream_tuples())
def test_tuple_round_trip(item):
    assert wire.decode_tuple(wire.encode_tuple(item)) == item


@COMMON
@given(stream_tuples())
def test_tuple_round_trip_preserves_flags(item):
    decoded = wire.decode_tuple(wire.encode_tuple(item))
    assert decoded.tuple_type is item.tuple_type
    assert decoded.is_stable == item.is_stable
    assert decoded.is_tentative == item.is_tentative
    assert decoded.stable_seq == item.stable_seq
    assert decoded.undo_from_id == item.undo_from_id


def test_tuple_float_exactness():
    # IEEE doubles must survive bit-exactly, including awkward values.
    for stime in (0.1 + 0.2, 1e-308, math.pi, -0.0, 1e300):
        item = StreamTuple.insertion(1, stime, {"v": stime})
        decoded = wire.decode_tuple(wire.encode_tuple(item))
        assert decoded.stime == stime and repr(decoded.stime) == repr(stime)
        assert decoded.values["v"] == stime


def test_shared_payload_not_required_to_stay_shared():
    # as_stable() shares the values dict between two tuples; decoding may
    # materialize separate dicts, but equality must hold for both.
    base = StreamTuple.tentative(3, 1.5, {"k": 7})
    stable = base.as_stable()
    batch = DataBatch.of("s", (base, stable), "p")
    _, decoded = wire.decode_message(wire.encode_message(DATA, batch))
    assert decoded == batch


# ---------------------------------------------------------------------- batches
@COMMON
@given(data_batches())
def test_batch_round_trip(batch):
    kind, decoded = wire.decode_message(wire.encode_message(DATA, batch))
    assert kind == DATA
    assert decoded == batch
    assert decoded.replay == batch.replay


@COMMON
@given(data_batches())
def test_batch_round_trip_preserves_key_order_and_value_types(batch):
    _, decoded = wire.decode_message(wire.encode_message(DATA, batch))
    assert len(decoded.tuples) == len(batch.tuples)
    for got, want in zip(decoded.tuples, batch.tuples):
        # dict == ignores order and 1 == 1.0 == True: pin both explicitly.
        assert list(got.values) == list(want.values)
        assert [_bit_exact(v) for v in got.values.values()] == [
            _bit_exact(v) for v in want.values.values()
        ]
        assert got.tuple_type is want.tuple_type


@COMMON
@given(data_batches(), names, names)
def test_envelope_round_trip(batch, sender, receiver):
    frame = wire.encode_envelope(sender, receiver, DATA, batch)
    assert wire.decode_envelope(frame) == (sender, receiver, DATA, batch)
    # The fan-out form is the same bytes, and any bytes-like object decodes.
    assert frame == wire.encode_envelope_prefix(sender, receiver) + wire.encode_payload(
        DATA, batch
    )
    assert wire.decode_envelope(memoryview(b"\x00" + frame)[1:])[3] == batch


def _mixed_batch():
    """Every column shape in one batch: three schema runs plus control tuples."""
    run_a = [
        StreamTuple(TupleType.INSERTION, i, 0.5 * i, {"seq": i, "value": i / 4, "s": i % 3},
                    stable_seq=i)
        for i in range(4)
    ]
    run_b = [
        StreamTuple(TupleType.TENTATIVE, 10 + i, 9.0, {"value": v, "seq": 2**64 + i})
        for i, v in enumerate([None, True, 1, 2.5, "x", (1, "p")])
    ]
    empty = [StreamTuple(TupleType.INSERTION, 20, 9.5, {}, stable_seq=4)]
    control = [
        StreamTuple.undo(21, 9.5, undo_from_id=3),
        StreamTuple.boundary(22, 10.0),
        StreamTuple.rec_done(23, 10.0),
    ]
    return DataBatch.of(
        "s", run_a + control[:1] + run_b + empty + control[1:], "p",
        NodeState.STABLE, NodeState.UP_FAILURE, replay=True,
    )


def test_mixed_schema_batch_round_trip():
    batch = _mixed_batch()
    kind, decoded = wire.decode_message(wire.encode_message(DATA, batch))
    assert (kind, decoded) == (DATA, batch)
    assert [list(t.values) for t in decoded.tuples] == [list(t.values) for t in batch.tuples]
    undo = decoded.tuples[4]
    assert undo.is_undo and undo.undo_from_id == 3 and undo.stable_seq is None
    assert all(t.stable_seq is None for t in decoded.tuples if t.is_tentative)
    assert decoded.tuples[5].values["value"] is None
    assert decoded.tuples[6].values["value"] is True
    assert type(decoded.tuples[7].values["value"]) is int
    assert decoded.tuples[10].values["value"] == (1, "p")


@pytest.mark.parametrize(
    "tuples",
    [
        (),
        (StreamTuple.boundary(1, 2.0),),
        (StreamTuple.boundary(1, 2.0), StreamTuple.undo(2, 2.0, 0), StreamTuple.rec_done(3, 2.0)),
        (StreamTuple.insertion(1, 2.0, {}), StreamTuple.insertion(2, 2.0, {})),
    ],
    ids=["empty", "one-boundary", "control-only", "data-without-values"],
)
def test_degenerate_batches_round_trip(tuples):
    batch = DataBatch.of("s", tuples, "p")
    assert wire.decode_message(wire.encode_message(DATA, batch)) == (DATA, batch)


def test_key_names_written_once_per_schema_run():
    def frame(n):
        items = [StreamTuple.insertion(i, 1.0, {"a-long-attribute-name": i}) for i in range(n)]
        return wire.encode_message(DATA, DataBatch.of("s", items, "p"))

    assert frame(50).count(b"a-long-attribute-name") == 1
    # int64 column + id + stime + type byte: 25 bytes per extra tuple, no names.
    assert len(frame(50)) - len(frame(49)) == 25


def test_float_columns_are_bit_exact():
    specials = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]
    items = [StreamTuple.insertion(i, v, {"v": v}) for i, v in enumerate(specials)]
    _, decoded = wire.decode_message(wire.encode_message(DATA, DataBatch.of("s", items, "p")))
    for got, want in zip(decoded.tuples, specials):
        assert _bit_exact(got.stime) == _bit_exact(want)
        assert _bit_exact(got.values["v"]) == _bit_exact(want)
    # ...and in a mixed (tagged) column as well.
    items = [StreamTuple.insertion(i, 1.0, {"v": v}) for i, v in enumerate([None, *specials])]
    _, decoded = wire.decode_message(wire.encode_message(DATA, DataBatch.of("s", items, "p")))
    assert [_bit_exact(t.values["v"]) for t in decoded.tuples[1:]] == [
        _bit_exact(v) for v in specials
    ]


def test_int_column_beyond_64_bits_falls_back_per_column():
    items = [
        StreamTuple.insertion(i, 1.0, {"big": big, "small": i})
        for i, big in enumerate([2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**200])
    ]
    batch = DataBatch.of("s", items, "p")
    _, decoded = wire.decode_message(wire.encode_message(DATA, batch))
    assert decoded == batch
    assert all(type(t.values["big"]) is int for t in decoded.tuples)


def test_tuple_id_beyond_64_bits_is_an_encode_error():
    with pytest.raises(wire.WireError, match="packed column"):
        wire.encode_tuple(StreamTuple.boundary(2**63, 1.0))


# ---------------------------------------------------------------------- control messages
@st.composite
def control_messages(draw):
    # The codec table is the one list of message kinds: a kind added to or
    # retired from it cannot drift from what this strategy covers.
    kind = draw(st.sampled_from([kind for kind in wire._CODECS if kind != DATA]))
    if kind == SUBSCRIBE:
        payload = SubscribeRequest(
            stream=draw(names),
            subscriber=draw(names),
            last_stable_seq=draw(st.integers(min_value=-1, max_value=2**40)),
            had_tentative=draw(st.booleans()),
            replay_tentative=draw(st.booleans()),
        )
    elif kind == UNSUBSCRIBE:
        payload = UnsubscribeRequest(stream=draw(names), subscriber=draw(names))
    elif kind == HEARTBEAT_RESPONSE:
        payload = HeartbeatResponse(
            responder=draw(names),
            node_state=draw(node_states),
            stream_states=draw(st.dictionaries(names, node_states, max_size=5)),
        )
    elif kind == RECONCILE_REQUEST:
        payload = ReconcileRequest(
            requester=draw(names), request_id=draw(st.integers(min_value=0, max_value=2**40))
        )
    elif kind == RECONCILE_REPLY:
        payload = ReconcileReply(
            responder=draw(names),
            request_id=draw(st.integers(min_value=0, max_value=2**40)),
            granted=draw(st.booleans()),
        )
    elif kind == CHECKPOINT_REQUEST:
        payload = CheckpointRequest(requester=draw(names))
    elif kind == CHECKPOINT_RESPONSE:
        payload = CheckpointResponse(responder=draw(names), checkpoint=None)
    elif kind == SOURCE_RESUBSCRIBE:
        payload = SourceResubscribe(
            stream=draw(names),
            subscriber=draw(names),
            after_tuple_id=draw(st.integers(min_value=-1, max_value=2**40)),
        )
    elif kind == CHECKPOINT_ACK:
        payload = CheckpointAck(
            stream=draw(names),
            consumer=draw(names),
            through=draw(st.integers(min_value=-1, max_value=2**40)),
        )
    else:
        raise AssertionError(f"no payload strategy for codec kind {kind!r}")
    return kind, payload


@COMMON
@given(control_messages())
def test_control_message_round_trip(message):
    kind, payload = message
    decoded_kind, decoded = wire.decode_message(wire.encode_message(kind, payload))
    assert decoded_kind == kind
    if kind == HEARTBEAT_RESPONSE:
        # stream_states is typed Mapping; compare contents.
        assert decoded.responder == payload.responder
        assert decoded.node_state is payload.node_state
        assert dict(decoded.stream_states) == dict(payload.stream_states)
    else:
        assert decoded == payload


def test_checkpoint_ack_is_a_small_typed_frame_without_pickle():
    """One acknowledgment per producer per checkpoint interval: it must stay
    a few bytes of varints and strings, and never touch the pickle escape."""
    ack = CheckpointAck(stream="node1.out", consumer="node2'", through=123456)
    frame = wire.encode_envelope("node2'", "node1", CHECKPOINT_ACK, ack)
    assert wire.decode_envelope(frame) == ("node2'", "node1", CHECKPOINT_ACK, ack)
    assert len(frame) < 40
    assert b"\x80\x05" not in frame  # no pickle protocol header anywhere
    nothing_yet = CheckpointAck(stream="s", consumer="c", through=-1)
    assert wire.decode_message(wire.encode_message(CHECKPOINT_ACK, nothing_yet))[1] == nothing_yet


# ---------------------------------------------------------------------- filters
def test_subscribe_filter_travels_by_name():
    wire.clear_filters()
    try:
        f = SubscriptionFilter(lambda item: item.values.get("k", 0) > 0, name="sink.slice")
        wire.register_filter(f)
        request = SubscribeRequest(stream="s", subscriber="sink", filter=f)
        _, decoded = wire.decode_message(wire.encode_message(SUBSCRIBE, request))
        assert decoded.filter is f
    finally:
        wire.clear_filters()


def test_unregistered_filter_rejected():
    wire.clear_filters()
    f = SubscriptionFilter(lambda item: True, name="nobody.slice")
    frame = wire.encode_message(SUBSCRIBE, SubscribeRequest("s", "sub", filter=f))
    with pytest.raises(wire.WireError, match="not registered"):
        wire.decode_message(frame)


# ---------------------------------------------------------------------- checkpoints
def test_checkpoint_response_round_trip():
    from repro.statexfer import RecoveryCheckpoint, StreamCursor

    checkpoint = RecoveryCheckpoint(
        created_at=4.5,
        owner="n1",
        operator_order=("u", "j"),
        operator_states=(),
        input_cursors={"s": StreamCursor(stable_received=3, source_position=17)},
        output_states={"out": {"next_seq": 9}},
        item_count=12,
    )
    response = CheckpointResponse(responder="n1'", checkpoint=checkpoint)
    kind, decoded = wire.decode_message(wire.encode_message(CHECKPOINT_RESPONSE, response))
    assert kind == CHECKPOINT_RESPONSE
    assert decoded.responder == "n1'"
    assert decoded.checkpoint == checkpoint


# ---------------------------------------------------------------------- versioning / robustness
def test_unknown_version_rejected():
    frame = bytearray(wire.encode_message(CHECKPOINT_REQUEST, CheckpointRequest("r")))
    frame[0] = wire.WIRE_VERSION + 1
    with pytest.raises(wire.WireError, match="unsupported wire version"):
        wire.decode_message(bytes(frame))
    with pytest.raises(wire.WireError, match="unsupported wire version"):
        wire.decode_envelope(bytes(frame))
    with pytest.raises(wire.WireError, match="unsupported wire version"):
        wire.decode_tuple(bytes(frame))


def test_v1_frame_rejected():
    # A version-1 worker's frame must fail loudly, not be parsed as columns.
    v1 = bytes((1,)) + wire.encode_message(CHECKPOINT_REQUEST, CheckpointRequest("r"))[1:]
    for decode in (wire.decode_message, wire.decode_envelope, wire.decode_tuple):
        with pytest.raises(wire.WireError, match="unsupported wire version 1"):
            decode(v1)
    assert wire.WIRE_VERSION == 2


def _fuzz_frames():
    wire.clear_filters()
    subscribe = SubscribeRequest("s", "sub", 4, True, False)
    return [
        wire.encode_envelope("node1", "node2", DATA, _mixed_batch()),
        wire.encode_envelope("src", "node1", DATA, DataBatch.of("s", (), "src")),
        wire.encode_envelope("a", "b", SUBSCRIBE, subscribe),
        wire.encode_envelope(
            "a", "b", HEARTBEAT_RESPONSE,
            HeartbeatResponse("a", NodeState.STABLE, {"s": NodeState.FAILURE}),
        ),
        wire.encode_envelope("a", "b", RECONCILE_REPLY, ReconcileReply("a", 7, True)),
        wire.encode_envelope("a", "b", CHECKPOINT_RESPONSE, CheckpointResponse("a", {"k": [1]})),
        wire.encode_envelope("node2", "node1", CHECKPOINT_ACK, CheckpointAck("s", "node2", 70000)),
    ]


def _decodes_or_wire_error(frame: bytes) -> bool:
    try:
        wire.decode_envelope(frame)
        return True
    except wire.WireError:
        return False


def test_truncation_at_every_offset_raises_wire_error_only():
    for frame in _fuzz_frames():
        assert _decodes_or_wire_error(frame)
        for cut in range(len(frame)):
            assert not _decodes_or_wire_error(frame[:cut]), f"prefix of {cut} bytes decoded"


def test_byte_flips_raise_wire_error_only():
    rng = random.Random(20260926)
    for frame in _fuzz_frames():
        for _ in range(1500):
            mutated = bytearray(frame)
            for _ in range(rng.choice((1, 1, 2, 4))):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            _decodes_or_wire_error(bytes(mutated))  # any other exception fails the test


def test_absurd_counts_fail_before_allocating():
    # A batch announcing 2**62 tuples in a 30-byte frame: the type column
    # cannot fit, so decoding stops there instead of sizing lists by the claim.
    head = wire.encode_message(DATA, DataBatch.of("s", (), "p"))[:-1]
    huge = bytearray()
    wire._w_uvarint(huge, 2**62)
    with pytest.raises(wire.WireError, match="truncated"):
        wire.decode_message(head + bytes(huge) + b"\x00" * 16)


def test_empty_and_truncated_frames_rejected():
    with pytest.raises(wire.WireError):
        wire.decode_message(b"")
    good = wire.encode_message(DATA, DataBatch.of("s", (StreamTuple.boundary(1, 2.0),), "p"))
    with pytest.raises(wire.WireError):
        wire.decode_message(good[:-1])


def test_trailing_bytes_rejected():
    good = wire.encode_message(CHECKPOINT_REQUEST, CheckpointRequest("r"))
    with pytest.raises(wire.WireError, match="trailing"):
        wire.decode_message(good + b"\x00")


def test_unknown_kind_rejected():
    frame = bytearray(wire.encode_message(CHECKPOINT_REQUEST, CheckpointRequest("r")))
    # 3 is the retired keep-alive probe's index, 250 was never assigned.
    for index in (3, 250):
        frame[1] = index
        with pytest.raises(wire.WireError, match=f"unknown message kind index {index}"):
            wire.decode_message(bytes(frame))


def test_unknown_encode_kind_rejected():
    with pytest.raises(wire.WireError, match="unknown message kind"):
        wire.encode_message("gossip", None)
