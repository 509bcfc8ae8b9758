"""Versioned wire codec for the live execution backend.

Everything that crosses a socket between live workers is framed by this
module: :class:`~repro.spe.tuples.StreamTuple`,
:class:`~repro.core.protocol.DataBatch` and every control message of
``repro.core.protocol``.  The format is **round-trip exact**:
``decode(encode(x)) == x`` for every payload the protocol produces, which
the Hypothesis property suite pins.

Tuples travel **columnar** (wire format v2, byte-level layout in DESIGN.md,
"Wire format"): a batch is one type-code column, packed little-endian
``tuple_id`` / ``stime`` columns, two sparse columns (``undo_from_id``,
``stable_seq``) and then *schema runs* -- maximal stretches of consecutive
tuples with the same key tuple.  A run writes its key names once and one
column per key: packed int64 or float64 when every value of the column has
exactly that type, otherwise the tagged per-value stream (``_w_value``) for
that column alone.  The choice is made from the column's contents; there is
no option that selects an encoding.  Control messages keep the compact
scalar encoding (zigzag varints, length-prefixed UTF-8).

Every frame starts with a single version byte (:data:`WIRE_VERSION`);
decoding any other version raises :class:`WireError` so incompatible
workers fail loudly instead of mis-parsing each other.  A malformed frame
(truncated, bit-flipped, absurd lengths) raises :class:`WireError` and
nothing else: every read is bounds-checked against the remaining bytes
before anything is allocated.

Two payload kinds cannot be encoded field-by-field:

* **Subscription filters** hold closure predicates, so they travel *by
  name*: each worker process rebuilds the deployment's filters from the
  (fork-inherited) placement and registers them with
  :func:`register_filter`; decoding resolves the name against that
  process-local registry.  Filter epochs only advance during a simulated
  rebalance, so name-identified filters stay equivalent across workers.
* **Recovery checkpoints** (:class:`~repro.statexfer.RecoveryCheckpoint`)
  carry operator state of arbitrary shape; they are pickled inside the
  frame with a filter-aware pickler (filters inside a checkpoint also
  travel by name).  This is a documented deviation from the
  field-exact encoding (see DESIGN.md, "Live backend").
"""

from __future__ import annotations

import io
import pickle
import struct
import sys
from array import array
from itertools import groupby
from typing import Any, Callable, Sequence

from ..core.protocol import (
    CHECKPOINT_ACK,
    CHECKPOINT_REQUEST,
    CHECKPOINT_RESPONSE,
    DATA,
    HEARTBEAT_REQUEST,
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
    HeartbeatRequest,
    HeartbeatResponse,
    ReconcileReply,
    ReconcileRequest,
    SourceResubscribe,
    SubscribeRequest,
    UnsubscribeRequest,
)
from ..core.states import NodeState
from ..deploy.filters import SubscriptionFilter
from ..errors import ReproError
from ..spe.tuples import StreamTuple, TupleType

#: Current wire format version; bump on any incompatible change.
#: 2 = columnar tuple batches (1 was one self-describing record per tuple).
WIRE_VERSION = 2


class WireError(ReproError):
    """A frame could not be encoded or decoded."""


# --------------------------------------------------------------------------- enum tables
#: Fixed on-wire order of tuple types (index = wire byte).  Append-only.
_TUPLE_TYPES: tuple[TupleType, ...] = (
    TupleType.INSERTION,
    TupleType.TENTATIVE,
    TupleType.BOUNDARY,
    TupleType.UNDO,
    TupleType.REC_DONE,
    TupleType.UP_FAILURE,
    TupleType.REC_REQUEST,
)
_TUPLE_TYPE_INDEX = {member: index for index, member in enumerate(_TUPLE_TYPES)}

#: Fixed on-wire order of node states (0 is reserved for "absent").
_NODE_STATES: tuple[NodeState, ...] = (
    NodeState.STABLE,
    NodeState.UP_FAILURE,
    NodeState.STABILIZATION,
    NodeState.FAILURE,
)
_NODE_STATE_INDEX = {member: index + 1 for index, member in enumerate(_NODE_STATES)}


# --------------------------------------------------------------------------- primitives
def _w_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise WireError(f"uvarint cannot encode negative value {value}")
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _r_uvarint(buf: memoryview, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise WireError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _w_zigzag(out: bytearray, value: int) -> None:
    # Arbitrary-precision zigzag (payload ints are unbounded Python ints).
    _w_uvarint(out, value << 1 if value >= 0 else ((-value) << 1) - 1)


def _r_zigzag(buf: memoryview, pos: int) -> tuple[int, int]:
    raw, pos = _r_uvarint(buf, pos)
    return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), pos


def _r_byte(buf: memoryview, pos: int) -> tuple[int, int]:
    if pos >= len(buf):
        raise WireError("truncated frame")
    return buf[pos], pos + 1


def _r_span(buf: memoryview, pos: int, length: int) -> tuple[memoryview, int]:
    """``length`` bytes at ``pos`` (a view, no copy), checked against the frame."""
    end = pos + length
    if end > len(buf):
        raise WireError(f"truncated frame: {length} bytes wanted, {len(buf) - pos} left")
    return buf[pos:end], end


def _w_str(out: bytearray, value: str) -> None:
    data = value.encode("utf-8")
    _w_uvarint(out, len(data))
    out += data


def _r_str(buf: memoryview, pos: int) -> tuple[str, int]:
    length, pos = _r_uvarint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise WireError("truncated string")
    try:
        return str(buf[pos:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise WireError(f"malformed string: {exc}") from None


def _w_bytes(out: bytearray, value: bytes) -> None:
    _w_uvarint(out, len(value))
    out += value


def _r_bytes(buf: memoryview, pos: int) -> tuple[memoryview, int]:
    length, pos = _r_uvarint(buf, pos)
    return _r_span(buf, pos, length)


# Packed columns are little-endian on the wire whatever the host is.
_SWAP = sys.byteorder != "little"
_INT64 = "q"
_FLOAT64 = "d"
_ONE_FLOAT = struct.Struct("<d")


def _packed(typecode: str, values: Sequence) -> bytes:
    """8 bytes per value; OverflowError/TypeError when a value does not fit."""
    column = array(typecode, values)
    if _SWAP:
        column.byteswap()
    return column.tobytes()


def _r_packed(buf: memoryview, pos: int, typecode: str, count: int) -> tuple[list, int]:
    end = pos + 8 * count
    if end > len(buf):
        raise WireError(f"truncated column: {count} values announced, {len(buf) - pos} bytes left")
    column = array(typecode)
    column.frombytes(buf[pos:end])
    if _SWAP:
        column.byteswap()
    return column.tolist(), end


# --------------------------------------------------------------------------- values
# Payload values are overwhelmingly ints / floats / strs; a tag byte plus a
# pickle escape hatch covers the rest without inflating the common case.
_V_NONE, _V_FALSE, _V_TRUE, _V_INT, _V_FLOAT, _V_STR, _V_PICKLE = range(7)


def _w_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_V_NONE)
    elif value is False:
        out.append(_V_FALSE)
    elif value is True:
        out.append(_V_TRUE)
    elif type(value) is int:
        out.append(_V_INT)
        _w_zigzag(out, value)
    elif type(value) is float:
        out.append(_V_FLOAT)
        out += _ONE_FLOAT.pack(value)
    elif type(value) is str:
        out.append(_V_STR)
        _w_str(out, value)
    else:
        out.append(_V_PICKLE)
        _w_bytes(out, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _r_value(buf: memoryview, pos: int) -> tuple[Any, int]:
    tag, pos = _r_byte(buf, pos)
    if tag == _V_NONE:
        return None, pos
    if tag == _V_FALSE:
        return False, pos
    if tag == _V_TRUE:
        return True, pos
    if tag == _V_INT:
        return _r_zigzag(buf, pos)
    if tag == _V_FLOAT:
        span, pos = _r_span(buf, pos, 8)
        return _ONE_FLOAT.unpack(span)[0], pos
    if tag == _V_STR:
        return _r_str(buf, pos)
    if tag == _V_PICKLE:
        data, pos = _r_bytes(buf, pos)
        return _unpickle(pickle.loads, data), pos
    raise WireError(f"unknown value tag {tag}")


def _unpickle(loads: Callable[[Any], Any], data: Any) -> Any:
    try:
        return loads(data)
    except WireError:
        raise
    except Exception as exc:  # corrupt pickle bytes can raise anything
        raise WireError(f"malformed pickled value: {type(exc).__name__}: {exc}") from None


def _w_opt_state(out: bytearray, state: NodeState | None) -> None:
    out.append(0 if state is None else _NODE_STATE_INDEX[state])


def _r_opt_state(buf: memoryview, pos: int) -> tuple[NodeState | None, int]:
    index, pos = _r_byte(buf, pos)
    if index == 0:
        return None, pos
    if index > len(_NODE_STATES):
        raise WireError(f"unknown node state index {index}")
    return _NODE_STATES[index - 1], pos


# --------------------------------------------------------------------------- filter registry
#: Process-local registry of the deployment's subscription filters.  Filters
#: hold closure predicates, so they cross the wire by name; each worker
#: rebuilds the full set from its fork-inherited placement and registers it
#: here before any frame is decoded.
_FILTERS: dict[str, SubscriptionFilter] = {}


def register_filter(filter: SubscriptionFilter) -> None:
    """Make ``filter`` resolvable by name when frames are decoded."""
    _FILTERS[filter.name] = filter


def resolve_filter(name: str) -> SubscriptionFilter:
    try:
        return _FILTERS[name]
    except KeyError:
        raise WireError(
            f"subscription filter {name!r} is not registered in this process; "
            f"known filters: {sorted(_FILTERS)}"
        ) from None


def clear_filters() -> None:
    """Reset the registry (tests, or between deployments in one process)."""
    _FILTERS.clear()


def _w_filter(out: bytearray, filter: object | None) -> None:
    if filter is None:
        out.append(0)
        return
    name = getattr(filter, "name", None)
    if not isinstance(name, str) or not name:
        raise WireError(f"cannot serialize subscription filter without a name: {filter!r}")
    out.append(1)
    _w_str(out, name)


def _r_filter(buf: memoryview, pos: int) -> tuple[object | None, int]:
    flag, pos = _r_byte(buf, pos)
    if flag == 0:
        return None, pos
    name, pos = _r_str(buf, pos)
    return resolve_filter(name), pos


# --------------------------------------------------------------------------- checkpoints
class _CheckpointPickler(pickle.Pickler):
    """Pickler that externalizes subscription filters by name."""

    def persistent_id(self, obj: Any) -> Any:  # noqa: D102 - pickle hook
        if isinstance(obj, SubscriptionFilter):
            return ("subscription-filter", obj.name)
        return None


class _CheckpointUnpickler(pickle.Unpickler):
    def persistent_load(self, pid: Any) -> Any:  # noqa: D102 - pickle hook
        if isinstance(pid, tuple) and len(pid) == 2 and pid[0] == "subscription-filter":
            return resolve_filter(pid[1])
        raise WireError(f"unknown persistent id in checkpoint frame: {pid!r}")


def _dumps_checkpoint(checkpoint: Any) -> bytes:
    out = io.BytesIO()
    _CheckpointPickler(out, protocol=pickle.HIGHEST_PROTOCOL).dump(checkpoint)
    return out.getvalue()


def _loads_checkpoint(data: memoryview) -> Any:
    return _CheckpointUnpickler(io.BytesIO(data)).load()


# --------------------------------------------------------------------------- tuples (columnar)
#: Value-column encodings, chosen per column from its contents.
_C_INT64, _C_FLOAT64, _C_TAGGED = range(3)
_ALL_INT = {int}
_ALL_FLOAT = {float}


def _w_sparse(out: bytearray, column: list) -> None:
    """Optional int64 column: ``0`` (all ``None``) or ``1`` + presence bytes + values."""
    if column.count(None) == len(column):
        out.append(0)
        return
    out.append(1)
    out += bytes([value is not None for value in column])
    out += _packed(_INT64, [value for value in column if value is not None])


def _r_sparse(buf: memoryview, pos: int, count: int) -> tuple[list, int]:
    mode, pos = _r_byte(buf, pos)
    if mode == 0:
        return [None] * count, pos
    if mode != 1:
        raise WireError(f"unknown sparse column mode {mode}")
    span, pos = _r_span(buf, pos, count)
    presence = bytes(span)
    present = presence.count(1)
    if present + presence.count(0) != count:
        raise WireError("sparse column presence bytes must be 0 or 1")
    values, pos = _r_packed(buf, pos, _INT64, present)
    following = iter(values)
    return [next(following) if flag else None for flag in presence], pos


def _w_column(out: bytearray, column: tuple) -> None:
    kinds = set(map(type, column))
    if kinds == _ALL_FLOAT:
        out.append(_C_FLOAT64)
        out += _packed(_FLOAT64, column)
        return
    if kinds == _ALL_INT:
        try:
            packed = _packed(_INT64, column)
        except OverflowError:  # an int beyond 64 bits: varints for this column
            pass
        else:
            out.append(_C_INT64)
            out += packed
            return
    out.append(_C_TAGGED)
    for value in column:
        _w_value(out, value)


def _r_column(buf: memoryview, pos: int, count: int) -> tuple[list, int]:
    encoding, pos = _r_byte(buf, pos)
    if encoding == _C_INT64:
        return _r_packed(buf, pos, _INT64, count)
    if encoding == _C_FLOAT64:
        return _r_packed(buf, pos, _FLOAT64, count)
    if encoding != _C_TAGGED:
        raise WireError(f"unknown value column encoding {encoding}")
    column = []
    for _ in range(count):
        value, pos = _r_value(buf, pos)
        column.append(value)
    return column, pos


def _w_tuples(out: bytearray, tuples: Sequence[StreamTuple]) -> None:
    count = len(tuples)
    _w_uvarint(out, count)
    if not count:
        return
    try:
        out += bytes([_TUPLE_TYPE_INDEX[item.tuple_type] for item in tuples])
    except KeyError as exc:
        raise WireError(f"unknown tuple type {exc.args[0]!r}") from None
    try:
        out += _packed(_INT64, [item.tuple_id for item in tuples])
        out += _packed(_FLOAT64, [item.stime for item in tuples])
        _w_sparse(out, [item.undo_from_id for item in tuples])
        _w_sparse(out, [item.stable_seq for item in tuples])
    except (OverflowError, TypeError) as exc:
        raise WireError(f"tuple header field does not fit its packed column: {exc}") from None
    # Schema runs: key names once per run, then one column per key.
    payloads = [item.values for item in tuples]
    start = 0
    for keys, run in groupby(map(tuple, payloads)):
        length = len(list(run))
        _w_uvarint(out, length)
        _w_uvarint(out, len(keys))
        if keys:
            for key in keys:
                _w_str(out, key)
            rows = [payload.values() for payload in payloads[start : start + length]]
            for column in zip(*rows):
                _w_column(out, column)
        start += length


def _r_tuples(buf: memoryview, pos: int) -> tuple[list[StreamTuple], int]:
    count, pos = _r_uvarint(buf, pos)
    if not count:
        return [], pos
    # The type column needs ``count`` bytes, so a corrupt count fails here
    # before any list of that size exists.
    span, pos = _r_span(buf, pos, count)
    try:
        types = [_TUPLE_TYPES[code] for code in span]
    except IndexError:
        raise WireError(f"unknown tuple type index {max(span)}") from None
    ids, pos = _r_packed(buf, pos, _INT64, count)
    stimes, pos = _r_packed(buf, pos, _FLOAT64, count)
    undo_from_ids, pos = _r_sparse(buf, pos, count)
    stable_seqs, pos = _r_sparse(buf, pos, count)
    payloads: list[dict] = []
    while len(payloads) < count:
        length, pos = _r_uvarint(buf, pos)
        if not 0 < length <= count - len(payloads):
            raise WireError(f"schema run of {length} tuples in a batch of {count}")
        n_keys, pos = _r_uvarint(buf, pos)
        if not n_keys:
            payloads += [{} for _ in range(length)]
            continue
        keys = []
        for _ in range(n_keys):
            key, pos = _r_str(buf, pos)
            keys.append(key)
        columns = []
        for _ in range(n_keys):
            column, pos = _r_column(buf, pos, length)
            columns.append(column)
        payloads += [dict(zip(keys, row)) for row in zip(*columns)]
    return StreamTuple.from_columns(types, ids, stimes, payloads, undo_from_ids, stable_seqs), pos


def encode_tuple(item: StreamTuple) -> bytes:
    """Standalone versioned encoding of one tuple (tests, debugging)."""
    out = bytearray((WIRE_VERSION,))
    _w_tuples(out, (item,))
    return bytes(out)


def decode_tuple(data: bytes) -> StreamTuple:
    buf = memoryview(data)
    _check_version(buf)
    items, pos = _r_tuples(buf, 1)
    _check_consumed(buf, pos)
    if len(items) != 1:
        raise WireError(f"expected one tuple, frame holds {len(items)}")
    return items[0]


# --------------------------------------------------------------------------- payload codecs
def _w_batch(out: bytearray, batch: DataBatch) -> None:
    _w_str(out, batch.stream)
    _w_str(out, batch.producer)
    _w_opt_state(out, batch.producer_node_state)
    _w_opt_state(out, batch.producer_stream_state)
    out.append(bool(batch.replay))
    _w_tuples(out, batch.tuples)


def _r_batch(buf: memoryview, pos: int) -> tuple[DataBatch, int]:
    stream, pos = _r_str(buf, pos)
    producer, pos = _r_str(buf, pos)
    node_state, pos = _r_opt_state(buf, pos)
    stream_state, pos = _r_opt_state(buf, pos)
    replay, pos = _r_byte(buf, pos)
    tuples, pos = _r_tuples(buf, pos)
    return (
        DataBatch(
            stream=stream,
            tuples=tuple(tuples),
            producer=producer,
            producer_node_state=node_state,
            producer_stream_state=stream_state,
            replay=bool(replay),
        ),
        pos,
    )


def _w_subscribe(out: bytearray, request: SubscribeRequest) -> None:
    _w_str(out, request.stream)
    _w_str(out, request.subscriber)
    _w_zigzag(out, request.last_stable_seq)
    out.append(bool(request.had_tentative) | (bool(request.replay_tentative) << 1))
    _w_filter(out, request.filter)


def _r_subscribe(buf: memoryview, pos: int) -> tuple[SubscribeRequest, int]:
    stream, pos = _r_str(buf, pos)
    subscriber, pos = _r_str(buf, pos)
    last_stable_seq, pos = _r_zigzag(buf, pos)
    flags, pos = _r_byte(buf, pos)
    filter, pos = _r_filter(buf, pos)
    return (
        SubscribeRequest(
            stream=stream,
            subscriber=subscriber,
            last_stable_seq=last_stable_seq,
            had_tentative=bool(flags & 1),
            replay_tentative=bool(flags & 2),
            filter=filter,
        ),
        pos,
    )


def _w_unsubscribe(out: bytearray, request: UnsubscribeRequest) -> None:
    _w_str(out, request.stream)
    _w_str(out, request.subscriber)


def _r_unsubscribe(buf: memoryview, pos: int) -> tuple[UnsubscribeRequest, int]:
    stream, pos = _r_str(buf, pos)
    subscriber, pos = _r_str(buf, pos)
    return UnsubscribeRequest(stream=stream, subscriber=subscriber), pos


def _w_heartbeat_request(out: bytearray, request: HeartbeatRequest) -> None:
    _w_str(out, request.requester)
    _w_uvarint(out, len(request.streams))
    for stream in request.streams:
        _w_str(out, stream)


def _r_heartbeat_request(buf: memoryview, pos: int) -> tuple[HeartbeatRequest, int]:
    requester, pos = _r_str(buf, pos)
    count, pos = _r_uvarint(buf, pos)
    streams = []
    for _ in range(count):
        stream, pos = _r_str(buf, pos)
        streams.append(stream)
    return HeartbeatRequest(requester=requester, streams=tuple(streams)), pos


def _w_heartbeat_response(out: bytearray, response: HeartbeatResponse) -> None:
    _w_str(out, response.responder)
    _w_opt_state(out, response.node_state)
    _w_uvarint(out, len(response.stream_states))
    for stream, state in response.stream_states.items():
        _w_str(out, stream)
        _w_opt_state(out, state)


def _r_heartbeat_response(buf: memoryview, pos: int) -> tuple[HeartbeatResponse, int]:
    responder, pos = _r_str(buf, pos)
    node_state, pos = _r_opt_state(buf, pos)
    if node_state is None:
        raise WireError("heartbeat response without a node state")
    count, pos = _r_uvarint(buf, pos)
    stream_states: dict[str, NodeState] = {}
    for _ in range(count):
        stream, pos = _r_str(buf, pos)
        state, pos = _r_opt_state(buf, pos)
        if state is None:
            raise WireError(f"heartbeat response stream {stream!r} without a state")
        stream_states[stream] = state
    return (
        HeartbeatResponse(
            responder=responder, node_state=node_state, stream_states=stream_states
        ),
        pos,
    )


def _w_reconcile_request(out: bytearray, request: ReconcileRequest) -> None:
    _w_str(out, request.requester)
    _w_zigzag(out, request.request_id)


def _r_reconcile_request(buf: memoryview, pos: int) -> tuple[ReconcileRequest, int]:
    requester, pos = _r_str(buf, pos)
    request_id, pos = _r_zigzag(buf, pos)
    return ReconcileRequest(requester=requester, request_id=request_id), pos


def _w_reconcile_reply(out: bytearray, reply: ReconcileReply) -> None:
    _w_str(out, reply.responder)
    _w_zigzag(out, reply.request_id)
    out.append(bool(reply.granted))


def _r_reconcile_reply(buf: memoryview, pos: int) -> tuple[ReconcileReply, int]:
    responder, pos = _r_str(buf, pos)
    request_id, pos = _r_zigzag(buf, pos)
    granted, pos = _r_byte(buf, pos)
    return (
        ReconcileReply(responder=responder, request_id=request_id, granted=bool(granted)),
        pos,
    )


def _w_checkpoint_request(out: bytearray, request: CheckpointRequest) -> None:
    _w_str(out, request.requester)


def _r_checkpoint_request(buf: memoryview, pos: int) -> tuple[CheckpointRequest, int]:
    requester, pos = _r_str(buf, pos)
    return CheckpointRequest(requester=requester), pos


def _w_checkpoint_response(out: bytearray, response: CheckpointResponse) -> None:
    _w_str(out, response.responder)
    if response.checkpoint is None:
        out.append(0)
    else:
        out.append(1)
        _w_bytes(out, _dumps_checkpoint(response.checkpoint))


def _r_checkpoint_response(buf: memoryview, pos: int) -> tuple[CheckpointResponse, int]:
    responder, pos = _r_str(buf, pos)
    flag, pos = _r_byte(buf, pos)
    checkpoint = None
    if flag:
        data, pos = _r_bytes(buf, pos)
        checkpoint = _unpickle(_loads_checkpoint, data)
    return CheckpointResponse(responder=responder, checkpoint=checkpoint), pos


def _w_source_resubscribe(out: bytearray, request: SourceResubscribe) -> None:
    _w_str(out, request.stream)
    _w_str(out, request.subscriber)
    _w_zigzag(out, request.after_tuple_id)


def _r_source_resubscribe(buf: memoryview, pos: int) -> tuple[SourceResubscribe, int]:
    stream, pos = _r_str(buf, pos)
    subscriber, pos = _r_str(buf, pos)
    after_tuple_id, pos = _r_zigzag(buf, pos)
    return (
        SourceResubscribe(stream=stream, subscriber=subscriber, after_tuple_id=after_tuple_id),
        pos,
    )


def _w_checkpoint_ack(out: bytearray, ack: CheckpointAck) -> None:
    _w_str(out, ack.stream)
    _w_str(out, ack.consumer)
    _w_zigzag(out, ack.through)


def _r_checkpoint_ack(buf: memoryview, pos: int) -> tuple[CheckpointAck, int]:
    stream, pos = _r_str(buf, pos)
    consumer, pos = _r_str(buf, pos)
    through, pos = _r_zigzag(buf, pos)
    return CheckpointAck(stream=stream, consumer=consumer, through=through), pos


#: kind -> (wire index, encoder, decoder).  The index is the on-wire byte;
#: the table order is frozen (append-only) so workers of one version agree.
_CODECS: dict[str, tuple[int, Callable, Callable]] = {
    DATA: (0, _w_batch, _r_batch),
    SUBSCRIBE: (1, _w_subscribe, _r_subscribe),
    UNSUBSCRIBE: (2, _w_unsubscribe, _r_unsubscribe),
    HEARTBEAT_REQUEST: (3, _w_heartbeat_request, _r_heartbeat_request),
    HEARTBEAT_RESPONSE: (4, _w_heartbeat_response, _r_heartbeat_response),
    RECONCILE_REQUEST: (5, _w_reconcile_request, _r_reconcile_request),
    RECONCILE_REPLY: (6, _w_reconcile_reply, _r_reconcile_reply),
    CHECKPOINT_REQUEST: (7, _w_checkpoint_request, _r_checkpoint_request),
    CHECKPOINT_RESPONSE: (8, _w_checkpoint_response, _r_checkpoint_response),
    SOURCE_RESUBSCRIBE: (9, _w_source_resubscribe, _r_source_resubscribe),
    CHECKPOINT_ACK: (10, _w_checkpoint_ack, _r_checkpoint_ack),
}
_DECODERS = {index: (kind, decoder) for kind, (index, _, decoder) in _CODECS.items()}


def _check_version(buf: memoryview) -> None:
    if len(buf) == 0:
        raise WireError("empty frame")
    if buf[0] != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {buf[0]} (this process speaks {WIRE_VERSION})"
        )


def _check_consumed(buf: memoryview, pos: int) -> None:
    if pos != len(buf):
        raise WireError(f"{len(buf) - pos} trailing bytes after decoded frame")


def _w_message(out: bytearray, kind: str, payload: Any) -> None:
    try:
        index, encoder, _ = _CODECS[kind]
    except KeyError:
        raise WireError(f"unknown message kind {kind!r}") from None
    out.append(index)
    encoder(out, payload)


def _r_message(buf: memoryview, pos: int) -> tuple[str, Any]:
    """Kind byte + payload filling the rest of the frame."""
    index, pos = _r_byte(buf, pos)
    try:
        kind, decoder = _DECODERS[index]
    except KeyError:
        raise WireError(f"unknown message kind index {index}") from None
    payload, pos = decoder(buf, pos)
    _check_consumed(buf, pos)
    return kind, payload


# --------------------------------------------------------------------------- public API
def encode_message(kind: str, payload: Any) -> bytes:
    """Encode one protocol message as a versioned frame."""
    out = bytearray((WIRE_VERSION,))
    _w_message(out, kind, payload)
    return bytes(out)


def decode_message(data: bytes) -> tuple[str, Any]:
    """Decode a frame produced by :func:`encode_message`."""
    buf = memoryview(data)
    _check_version(buf)
    return _r_message(buf, 1)


def encode_envelope_prefix(sender: str, receiver: str) -> bytes:
    """The addressed head of an envelope: version byte, sender, receiver."""
    out = bytearray((WIRE_VERSION,))
    _w_str(out, sender)
    _w_str(out, receiver)
    return bytes(out)


def encode_payload(kind: str, payload: Any) -> bytes:
    """The receiver-independent tail of an envelope: kind byte + payload.

    ``encode_envelope_prefix(s, r) + encode_payload(k, p)`` is
    ``encode_envelope(s, r, k, p)``; a fan-out encodes the tail once.
    """
    out = bytearray()
    _w_message(out, kind, payload)
    return bytes(out)


def encode_envelope(sender: str, receiver: str, kind: str, payload: Any) -> bytes:
    """Encode an addressed frame (sender/receiver prefix + message)."""
    return encode_envelope_prefix(sender, receiver) + encode_payload(kind, payload)


def decode_envelope(data: bytes) -> tuple[str, str, str, Any]:
    """Decode a frame produced by :func:`encode_envelope` (any bytes-like object)."""
    buf = memoryview(data)
    _check_version(buf)
    sender, pos = _r_str(buf, 1)
    receiver, pos = _r_str(buf, pos)
    kind, payload = _r_message(buf, pos)
    return sender, receiver, kind, payload
