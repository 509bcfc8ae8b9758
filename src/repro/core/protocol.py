"""Runtime messages exchanged by DPC components.

Every message travels over :class:`repro.sim.network.Network` with a string
``kind`` and a payload dataclass from this module.  The set of messages
matches the communication the paper describes:

* data tuples between neighbors (``DATA``);
* subscription management when a node switches upstream replicas
  (``SUBSCRIBE`` / ``UNSUBSCRIBE``, Section 4.3 and Figure 8);
* the keep-alive advertising a producer's per-stream consistency states
  (``HEARTBEAT_RESPONSE``, Section 4.2.3): producers piggyback their state on
  every data batch and push one ``HeartbeatResponse`` per keepalive period to
  each consumer that got no batch in it, so consumers never probe;
* the inter-replica protocol that staggers reconciliations
  (``RECONCILE_REQUEST`` / ``RECONCILE_REPLY``, Section 4.4.3 and Figure 9);
* the acknowledgments that let producers truncate their output buffers and
  source logs (``CHECKPOINT_ACK``, Section 8.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..spe.tuples import StreamTuple, TupleBlock
from .states import NodeState

# Message kind identifiers.
DATA = "data"
SUBSCRIBE = "subscribe"
UNSUBSCRIBE = "unsubscribe"
HEARTBEAT_RESPONSE = "heartbeat_response"
RECONCILE_REQUEST = "reconcile_request"
RECONCILE_REPLY = "reconcile_reply"
CHECKPOINT_REQUEST = "checkpoint_request"
CHECKPOINT_RESPONSE = "checkpoint_response"
SOURCE_RESUBSCRIBE = "source_resubscribe"
CHECKPOINT_ACK = "checkpoint_ack"


@dataclass(frozen=True)
class DataBatch:
    """A batch of tuples for one stream, sent producer -> subscriber.

    One network event carries the whole run of tuples as one
    :class:`~repro.spe.tuples.TupleBlock` (the batched tuple transport).  Processing nodes piggyback their DPC state on every batch so
    that, while data flows, they need not push a separate keep-alive to the
    batch's receivers; sources leave the state fields ``None``.

    ``replay`` marks the direct response to a :class:`SubscribeRequest`: the
    batch starts exactly where the subscriber's quoted cursor ends.  Consumers
    awaiting such a replay use the flag to tell it apart from stale-cursor
    flushes racing it -- essential for *filtered* subscriptions, where the
    replay's first stable tuple legitimately jumps the stamped position
    (foreign tuples in between were filtered at the producer) and a position
    check alone cannot distinguish a filter gap from a real one.
    """

    stream: str
    tuples: TupleBlock
    producer: str
    producer_node_state: NodeState | None = None
    producer_stream_state: NodeState | None = None
    replay: bool = False

    @classmethod
    def of(
        cls,
        stream: str,
        tuples: Sequence[StreamTuple],
        producer: str,
        node_state: NodeState | None = None,
        stream_state: NodeState | None = None,
        replay: bool = False,
    ) -> "DataBatch":
        return cls(
            stream=stream,
            tuples=TupleBlock.of(tuples),
            producer=producer,
            producer_node_state=node_state,
            producer_stream_state=stream_state,
            replay=replay,
        )


#: Alias emphasizing the batched transport role of :class:`DataBatch`.
TupleBatch = DataBatch


@dataclass(frozen=True)
class SubscribeRequest:
    """Ask a producer to start (or restart) sending one of its output streams.

    ``last_stable_seq`` is the number of stable tuples the subscriber has
    already received on the logical stream (a replica-independent position,
    because replicas produce the same stable tuples in the same order).
    ``had_tentative`` tells the producer that the subscriber holds tentative
    tuples after that point, so corrections must be preceded by an UNDO.
    ``replay_tentative`` asks the producer to also send its current tentative
    tail; a subscriber switching to a replica that is itself in UP_FAILURE
    leaves this False and accepts the small gap the paper notes (footnote 6).

    ``filter`` optionally attaches a content predicate (a
    :class:`~repro.deploy.SubscriptionFilter`) the producer evaluates before
    sending: the subscriber only receives the slice passing the filter, plus
    every control tuple.  ``last_stable_seq`` stays in *full-stream*
    coordinates (the stamped positions of the logical stream); the producer
    translates it into a buffer position and replays the filtered suffix.
    """

    stream: str
    subscriber: str
    last_stable_seq: int = -1
    had_tentative: bool = False
    replay_tentative: bool = False
    filter: object | None = None


@dataclass(frozen=True)
class UnsubscribeRequest:
    stream: str
    subscriber: str


@dataclass(frozen=True)
class HeartbeatResponse:
    """Pushed keep-alive: the producer's overall node state and per-stream states."""

    responder: str
    node_state: NodeState
    stream_states: Mapping[str, NodeState] = field(default_factory=dict)

    def state_of(self, stream: str) -> NodeState:
        return self.stream_states.get(stream, self.node_state)


@dataclass(frozen=True)
class CheckpointRequest:
    """Ask a replica partner for its latest recovery checkpoint.

    Sent by a replica that just restarted after a crash (Section 4.3: a
    recovering node "rebuilds its state" from a peer).  The responder answers
    with a :class:`CheckpointResponse` after a size-proportional transfer
    delay, so shipping state races the subscription replay it replaces.
    """

    requester: str


@dataclass(frozen=True)
class CheckpointResponse:
    """Reply to a :class:`CheckpointRequest`.

    ``checkpoint`` is a :class:`repro.statexfer.RecoveryCheckpoint` (or
    ``None`` when the responder has no usable checkpoint, e.g. checkpointing
    is disabled or no capture has happened yet); the requester falls back to
    full subscription replay on ``None``.
    """

    responder: str
    checkpoint: object | None = None


@dataclass(frozen=True)
class SourceResubscribe:
    """Reposition a data source's delivery cursor for one subscriber.

    ``after_tuple_id`` is a tuple id in the source's :class:`StreamLog`
    coordinates: the source rewinds (or advances) the subscriber's cursor to
    it and replays everything after it, flagging the first batch ``replay``
    so the subscriber can tell it apart from stale-cursor flushes already in
    flight.  Used when a recovering replica adopts a peer checkpoint whose
    input cursor differs from the cursor the source froze at crash time.
    """

    stream: str
    subscriber: str
    after_tuple_id: int


@dataclass(frozen=True)
class CheckpointAck:
    """Tell one producer of ``stream`` what ``consumer``'s durable state covers.

    ``through`` is a position in the producer's own coordinates: the stable
    sequence number of the last covered tuple for a stream produced by a
    node, the log tuple id for a stream produced by a data source (-1:
    nothing yet).  Sent to *every* producer replica of the stream, subscribed
    or not, right after the consumer captured a recovery checkpoint (a client
    acknowledges its recorded ledger): whichever replica the consumer later
    resubscribes to has only dropped what the consumer no longer needs.
    """

    stream: str
    consumer: str
    through: int


@dataclass(frozen=True)
class ReconcileRequest:
    """Ask a replica for permission to enter STABILIZATION."""

    requester: str
    request_id: int


@dataclass(frozen=True)
class ReconcileReply:
    """Grant or reject a :class:`ReconcileRequest`."""

    responder: str
    request_id: int
    granted: bool
