"""Versioned wire codec for the live execution backend.

Everything that crosses a socket between live workers is framed by this
module: :class:`~repro.spe.tuples.StreamTuple`,
:class:`~repro.core.protocol.DataBatch` and every control message of
``repro.core.protocol``.  The format is **round-trip exact**:
``decode(encode(x)) == x`` for every payload the protocol produces, which
the Hypothesis property suite pins.

Tuples travel **columnar** (wire format v2): a ``DATA`` batch embeds one run
of the shared tuple codec (:mod:`repro.spe.tuple_codec`, byte-level layout in
DESIGN.md, "Tuple codec") -- the same encoding the client ledger seals its
segments in.  Control messages keep the compact scalar encoding (zigzag
varints, length-prefixed UTF-8).

Every frame starts with a single version byte (:data:`WIRE_VERSION`);
decoding any other version raises :class:`WireError` so incompatible
workers fail loudly instead of mis-parsing each other.  A malformed frame
(truncated, bit-flipped, absurd lengths) raises :class:`WireError` and
nothing else: every read is bounds-checked against the remaining bytes
before anything is allocated.

Two payload kinds cannot be encoded field-by-field:

* **Subscription filters** travel *by name*: one filter object is shared
  by every subscription of its consumer fragment and its epochs advance in
  place, so a decoded copy would split that shared state.  Each worker
  process rebuilds the deployment's filters from the (fork-inherited)
  placement and registers them with
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
from typing import Any, Callable

from ..core.protocol import (
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
from ..core.states import NodeState
from ..deploy.filters import SubscriptionFilter
from ..spe.tuple_codec import (
    WireError,
    _check_consumed,
    _r_byte,
    _r_bytes,
    _r_str,
    _r_tuples,
    _r_uvarint,
    _r_zigzag,
    _unpickle,
    _w_bytes,
    _w_str,
    _w_tuples,
    _w_uvarint,
    _w_zigzag,
)
from ..spe.tuples import StreamTuple

#: Current wire format version; bump on any incompatible change.
#: 2 = columnar tuple batches (1 was one self-describing record per tuple).
WIRE_VERSION = 2

#: Fixed on-wire order of node states (0 is reserved for "absent").
_NODE_STATES: tuple[NodeState, ...] = (
    NodeState.STABLE,
    NodeState.UP_FAILURE,
    NodeState.STABILIZATION,
    NodeState.FAILURE,
)
_NODE_STATE_INDEX = {member: index + 1 for index, member in enumerate(_NODE_STATES)}


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
#: Process-local registry of the deployment's subscription filters.  A filter
#: is one shared object whose epochs advance in place, so it crosses the wire
#: by name; each worker rebuilds the full set from its fork-inherited
#: placement and registers it here before any frame is decoded.
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
            tuples=tuples,
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
#: Index 3 (the retired keep-alive probe) stays unassigned: it decodes as an
#: unknown kind.
_CODECS: dict[str, tuple[int, Callable, Callable]] = {
    DATA: (0, _w_batch, _r_batch),
    SUBSCRIBE: (1, _w_subscribe, _r_subscribe),
    UNSUBSCRIBE: (2, _w_unsubscribe, _r_unsubscribe),
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
