"""Output-side data path of a processing node.

The Data Path (Figure 4(b)) buffers each output stream and replays it to
downstream subscribers.  Each output stream of a node (or replica) is managed
by an :class:`OutputStreamManager`:

* every tuple leaving the fragment is appended to an output buffer together
  with its *stable sequence number* (the count of stable tuples produced so
  far on the logical stream) -- a replica-independent position that
  subscribers use when they switch replicas (see
  :class:`repro.core.protocol.SubscribeRequest`);
* each subscriber has a cursor into the buffer; flushing sends it everything
  appended since its cursor;
* the buffer is truncated once every replica of every downstream neighbor has
  acknowledged a prefix (Section 8.1, :meth:`OutputStreamManager.acknowledge`),
  and can additionally be capped with the policies of
  :class:`repro.config.BufferPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ..config import BufferPolicy
from ..errors import BufferOverflowError, BufferTruncatedError, ProtocolError
from ..spe.streams import StreamWriter
from ..spe.tuples import StreamTuple
from .protocol import DATA, SubscribeRequest, TupleBatch


@dataclass
class _Subscription:
    """Delivery state for one downstream subscriber of one stream.

    ``filter`` optionally holds the subscription's content predicate (a
    :class:`~repro.deploy.SubscriptionFilter`, duck-typed here so the data
    path stays independent of the deploy layer): data tuples it rejects are
    never sent to this subscriber, while control tuples always pass.
    """

    subscriber: str
    next_index: int = 0
    active: bool = True
    filter: object | None = None

    @property
    def filter_key(self) -> str:
        """Grouping key: subscriptions sharing it may share multicast batches."""
        return self.filter.key if self.filter is not None else ""


class OutputStreamManager:
    """Buffering, subscription handling, and replay for one output stream."""

    def __init__(
        self,
        stream: str,
        owner: str,
        buffer_policy: BufferPolicy | None = None,
    ) -> None:
        self.stream = stream
        self.owner = owner
        self.buffer_policy = buffer_policy or BufferPolicy()
        self._writer = StreamWriter(stream_name=f"{owner}:{stream}")
        #: Relabeled tuples in production order.  Stable entries carry their
        #: stamped ``stable_seq`` directly on the tuple (no wrapper records:
        #: one list cell per buffered tuple).
        self._buffer: list[StreamTuple] = []
        self._base_index = 0  # index of _buffer[0] in the full history
        self._stable_seq = -1  # sequence number of the last stable tuple produced
        #: Sequence number of the last stable tuple dropped from the front of
        #: the buffer (-1: every stable tuple ever produced is still held).
        self._dropped_seq = -1
        self._subscriptions: dict[str, _Subscription] = {}
        #: consumer replica -> last stable seq its durable state covers.  One
        #: entry per replica the deployment wires to this stream, subscribed
        #: here or not; -1 until the replica's first acknowledgment, so a
        #: silent consumer pins the buffer.
        self._acks: dict[str, int] = {}
        #: Optional callback handed every dropped prefix (oldest first) just
        #: before it is discarded; the control plane keeps its load history
        #: through it once the buffer no longer holds the whole run.
        self.truncation_observer: Callable[[list[StreamTuple]], None] | None = None
        #: Largest serialization timestamp ever appended (the control plane
        #: aligns reconfiguration cuts to the bucket boundary past this).
        self.last_appended_stime = float("-inf")
        # Statistics
        self.stable_produced = 0
        self.tentative_produced = 0
        self.undos_produced = 0

    # ------------------------------------------------------------------ production
    @property
    def is_full(self) -> bool:
        limit = self.buffer_policy.max_output_tuples
        return limit is not None and len(self._buffer) >= limit

    def append(self, item: StreamTuple) -> StreamTuple:
        """Relabel ``item`` onto the physical stream and buffer it.

        Raises :class:`BufferOverflowError` when the buffer is bounded, full,
        and configured to block (the back-pressure behaviour of Section 8.1
        for deterministic operators).
        """
        if self.is_full:
            if self.buffer_policy.block_on_full:
                raise BufferOverflowError(
                    f"output buffer for {self.stream!r} at {self.owner!r} is full "
                    f"({len(self._buffer)} tuples)"
                )
            # Convergent-capable diagrams may drop the oldest buffered tuples.
            self._drop_oldest(1)
        # Relabel onto the physical stream.  A stable tuple is built with the
        # replica-independent position stamped on it (one allocation), so a
        # subscriber connected to several replicas of this stream can discard
        # stable tuples it already received elsewhere.
        writer = self._writer
        if item.is_data:
            if item.is_stable:
                self._stable_seq = stable_seq = self._stable_seq + 1
                physical = writer.data(item.stime, item.values, True, stable_seq)
                self.stable_produced += 1
            else:
                physical = writer.data(item.stime, item.values, False)
                self.tentative_produced += 1
        elif item.is_undo:
            # Cross-node undo semantics: revoke everything after the last
            # stable tuple the subscriber received (see protocol.py), so the
            # specific id does not need to be mapped between replicas.
            physical = writer.undo(item.stime, item.undo_from_id or -1)
            self.undos_produced += 1
        elif item.is_boundary:
            physical = writer.boundary(max(item.stime, writer.last_boundary_stime))
        else:
            physical = writer.rec_done(item.stime)
        self._buffer.append(physical)
        if physical.stime > self.last_appended_stime:
            self.last_appended_stime = physical.stime
        return physical

    def append_all(self, items: Iterable[StreamTuple]) -> list[StreamTuple]:
        append = self.append
        return [append(item) for item in items]

    # ------------------------------------------------------------------ state transfer
    def snapshot_state(self) -> dict:
        """Capture this manager's transferable state (tuples are immutable,
        so a shallow buffer copy suffices)."""
        return {
            "stream": self.stream,
            "writer": self._writer.snapshot(),
            "buffer": list(self._buffer),
            "base_index": self._base_index,
            "stable_seq": self._stable_seq,
            "dropped_seq": self._dropped_seq,
            "last_appended_stime": self.last_appended_stime,
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Adopt a partner replica's output state (checkpoint-shipped recovery).

        Every live subscription cursor is moved to the adopted *end* index:
        subscribers followed another replica while this one was down, so
        replaying the adopted buffer's historical tentative/undo tail to them
        would be harmful; a later switch-back renegotiates its own position
        through a stable-seq :class:`SubscribeRequest`.  The partner truncated
        its buffer on the same consumers' acknowledgments, so the adopted
        truncation point is safe for every consumer of this replica too; the
        locally recorded acknowledgments are kept.
        """
        self._writer.restore(state["writer"])
        self._buffer = list(state["buffer"])
        self._base_index = int(state["base_index"])
        self._stable_seq = int(state["stable_seq"])
        self._dropped_seq = int(state["dropped_seq"])
        self.last_appended_stime = float(state["last_appended_stime"])
        end = self._end_index()
        for subscription in self._subscriptions.values():
            subscription.next_index = end

    # ------------------------------------------------------------------ subscriptions
    @property
    def stable_seq(self) -> int:
        """Sequence number of the most recent stable tuple produced."""
        return self._stable_seq

    def subscribers(self) -> list[str]:
        return [s.subscriber for s in self._subscriptions.values() if s.active]

    def subscribe(self, request: SubscribeRequest) -> list[StreamTuple]:
        """Register a subscriber and compute its initial replay.

        Returns the tuples to send immediately (the replay).  Subsequent
        production reaches the subscriber through :meth:`pending_for` /
        :meth:`mark_delivered`.
        """
        if request.stream != self.stream:
            raise ProtocolError(
                f"subscribe for stream {request.stream!r} sent to manager of {self.stream!r}"
            )
        start_index = self._replay_start_index(request.last_stable_seq, request.subscriber)
        entries = self._entries_from(start_index)
        if request.filter is not None:
            # Cursor translation for a filtered subscription: the quoted
            # position was located in full-stream coordinates above; only the
            # slice passing the filter is actually replayed.
            entries = [item for item in entries if request.filter.passes(item)]
        if not request.replay_tentative:
            entries = self._trim_tentative_tail(entries)
        replay: list[StreamTuple] = []
        if request.had_tentative:
            replay.append(self._writer.undo(0.0, -1))
        replay.extend(entries)
        # Live delivery continues from the current end of the buffer; any
        # skipped tentative tail is intentionally dropped (paper, footnote 6).
        self.attach_subscriber(request.subscriber, request.filter)
        return replay

    def attach_subscriber(self, subscriber: str, filter: object | None = None) -> None:
        """Start live delivery to ``subscriber`` from the current end of the buffer.

        The replay-free half of :meth:`subscribe`: deploy-time wiring (and a
        scale-out attaching a fresh fragment to a running, already truncated
        stream) has no history to ask for.
        """
        self._subscriptions[subscriber] = _Subscription(
            subscriber=subscriber,
            next_index=self._end_index(),
            active=True,
            filter=filter,
        )

    def unsubscribe(self, subscriber: str) -> None:
        subscription = self._subscriptions.get(subscriber)
        if subscription is not None:
            subscription.active = False

    def _end_index(self) -> int:
        return self._base_index + len(self._buffer)

    def _entries_from(self, index: int) -> list[StreamTuple]:
        offset = index - self._base_index
        return self._buffer[offset if offset > 0 else 0:]

    def _replay_start_index(self, last_stable_seq: int, subscriber: str) -> int:
        """Index in the full history right after stable tuple #``last_stable_seq``.

        A negative position asks for the whole history.  A position inside
        the truncated prefix is served from the truncation point when the
        subscriber's *own* acknowledgment covers that prefix: the request was
        in flight while the subscriber caught up elsewhere and acknowledged.
        Otherwise :class:`BufferTruncatedError` is raised -- replaying only
        what is retained would silently rebuild wrong state at the subscriber.
        """
        if last_stable_seq <= self._dropped_seq:
            if (
                last_stable_seq == self._dropped_seq
                or self._acks.get(subscriber, -1) >= self._dropped_seq
            ):
                return self._base_index
            raise BufferTruncatedError(
                f"cannot replay stream {self.stream!r} at {self.owner!r} from stable seq "
                f"{last_stable_seq}: buffer truncated through stable seq "
                f"{self._dropped_seq} (first retained index {self._base_index})"
            )
        offset = self._offset_of(last_stable_seq)
        if offset is None:
            # The subscriber is ahead of everything produced here.
            return self._end_index()
        return self._base_index + offset + 1

    def _offset_of(self, stable_seq: int) -> int | None:
        """Buffer offset of stable tuple #``stable_seq``, or None if not held.

        Stamped positions increase along the buffer, so this is a binary
        search; an unstamped entry (boundary, tentative, undo) is resolved
        through the next stamped one after it.  O(log n) probes plus the
        unstamped runs crossed, which never total more than the buffer.
        """
        buffer = self._buffer
        low, high = 0, len(buffer)
        while low < high:
            middle = probe = (low + high) // 2
            while probe < high and buffer[probe].stable_seq is None:
                probe += 1
            if probe == high:
                high = middle
                continue
            found = buffer[probe].stable_seq
            if found == stable_seq:
                return probe
            if found < stable_seq:
                low = probe + 1
            else:
                high = middle
        return None

    @staticmethod
    def _trim_tentative_tail(entries: list[StreamTuple]) -> list[StreamTuple]:
        """Drop everything after the last stable data tuple in ``entries``."""
        last_stable = None
        for position, item in enumerate(entries):
            if item.is_stable:
                last_stable = position
        if last_stable is None:
            return [item for item in entries if not item.is_data]
        return entries[: last_stable + 1]

    def pending_for(self, subscriber: str) -> list[StreamTuple]:
        """Tuples appended since the subscriber's cursor (filter applied)."""
        subscription = self._subscriptions.get(subscriber)
        if subscription is None or not subscription.active:
            return []
        entries = self._entries_from(subscription.next_index)
        if subscription.filter is not None:
            entries = [item for item in entries if subscription.filter.passes(item)]
        return entries

    def pending_batches(self) -> list[tuple[list[StreamTuple], list[str]]]:
        """Pending tuples grouped by subscriber cursor, for multicast delivery.

        Subscribers that are caught up to the same position *and* share the
        same subscription filter share one batch, so in the steady state a
        node sends one :class:`~repro.core.protocol.TupleBatch` (one simulator
        event) per filter group to all of that group's replicas instead of one
        message each.  Filtered groups whose pending slice contains nothing
        for them (every data tuple foreign, no control tuples) are advanced
        past the slice without a send: the filter is deterministic, so the
        slice will never hold anything for them.
        """
        groups: dict[tuple[int, str], list[_Subscription]] = {}
        end = self._end_index()
        for subscription in self._subscriptions.values():
            if not subscription.active or subscription.next_index >= end:
                continue
            key = (subscription.next_index, subscription.filter_key)
            groups.setdefault(key, []).append(subscription)
        batches: list[tuple[list[StreamTuple], list[str]]] = []
        for (index, _filter_key), subscriptions in sorted(
            groups.items(), key=lambda item: item[0]
        ):
            entries = self._entries_from(index)
            filter_ = subscriptions[0].filter
            if filter_ is not None:
                entries = [item for item in entries if filter_.passes(item)]
            if not entries:
                for subscription in subscriptions:
                    subscription.next_index = end
                continue
            batches.append((entries, [s.subscriber for s in subscriptions]))
        return batches

    def mark_delivered(self, subscriber: str) -> None:
        subscription = self._subscriptions.get(subscriber)
        if subscription is not None:
            subscription.next_index = self._end_index()

    # ------------------------------------------------------------------ truncation
    def _drop_oldest(self, count: int) -> int:
        buffer = self._buffer
        for position in range(count - 1, -1, -1):
            stable_seq = buffer[position].stable_seq
            if stable_seq is not None:
                self._dropped_seq = stable_seq
                break
        if self.truncation_observer is not None:
            self.truncation_observer(buffer[:count])
        del buffer[:count]
        self._base_index += count
        return count

    def add_consumer(self, consumer: str) -> None:
        """Declare a downstream replica whose acknowledgments gate truncation."""
        self._acks.setdefault(consumer, -1)

    def remove_consumer(self, consumer: str) -> None:
        """Forget a decommissioned consumer (it stops pinning the buffer)."""
        self._acks.pop(consumer, None)

    def acknowledge(self, consumer: str, through_seq: int) -> int:
        """Record that ``consumer``'s durable state covers stable tuple #``through_seq``.

        The acknowledgment-driven truncation of Section 8.1: the prefix up to
        and including the smallest position acknowledged over *all* declared
        consumers is dropped, because every path by which one of them can
        resubscribe (checkpoint adoption, own-cursor replay, upstream switch)
        resumes at or past its last acknowledgment.  A consumer that never
        acknowledged -- down, in UP_FAILURE, or simply not captured yet --
        pins the buffer; with no declared consumers nothing is ever dropped.
        The latest acknowledgment wins even when it is lower: a replica that
        adopted an older partner checkpoint re-acknowledges the adopted
        cursor.  Returns the number of tuples discarded.
        """
        acks = self._acks
        if consumer not in acks:
            return 0
        acks[consumer] = through_seq
        safe_seq = min(acks.values())
        if safe_seq <= self._dropped_seq:
            return 0
        offset = self._offset_of(safe_seq)
        if offset is None:
            return 0  # ahead of what this replica has produced so far
        return self._drop_oldest(offset + 1)

    @property
    def acked_through(self) -> int:
        """Stable seq every declared consumer has acknowledged (-1: none yet)."""
        return min(self._acks.values(), default=-1)

    @property
    def truncated_tuples(self) -> int:
        """Tuples dropped from the front of the buffer so far."""
        return self._base_index

    def truncate_delivered(self) -> int:
        """Drop the prefix every active subscriber has already been *sent*.

        Delivery-cursor truncation for callers that manage a single manager by
        hand; deployments truncate through :meth:`acknowledge`, which also
        covers consumer replicas that are not subscribed here.  Returns the
        number of tuples discarded.
        """
        if not self._subscriptions:
            return 0
        active = [s for s in self._subscriptions.values() if s.active]
        if not active:
            return 0
        safe_index = min(s.next_index for s in active)
        removable = max(safe_index - self._base_index, 0)
        if removable:
            self._drop_oldest(removable)
        return removable

    @property
    def buffered_tuples(self) -> int:
        return len(self._buffer)

    def buffered_items(self) -> list[StreamTuple]:
        """The buffered tuples, in production order (diagnostics and tests)."""
        return list(self._buffer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<OutputStreamManager {self.owner}:{self.stream} buffered={len(self._buffer)} "
            f"truncated={self._base_index} stable_seq={self._stable_seq} "
            f"subscribers={self.subscribers()}>"
        )


class DataPath:
    """All output stream managers of one node plus batch sending helpers."""

    def __init__(self, owner: str, buffer_policy: BufferPolicy | None = None) -> None:
        self.owner = owner
        self.buffer_policy = buffer_policy or BufferPolicy()
        self._outputs: dict[str, OutputStreamManager] = {}

    def add_output(self, stream: str) -> OutputStreamManager:
        if stream in self._outputs:
            raise ProtocolError(f"output stream {stream!r} already managed")
        manager = OutputStreamManager(stream, self.owner, self.buffer_policy)
        self._outputs[stream] = manager
        return manager

    def output(self, stream: str) -> OutputStreamManager:
        try:
            return self._outputs[stream]
        except KeyError as exc:
            raise ProtocolError(f"unknown output stream {stream!r} at {self.owner!r}") from exc

    def outputs(self) -> list[OutputStreamManager]:
        return list(self._outputs.values())

    def output_streams(self) -> list[str]:
        return list(self._outputs)

    def make_batch(
        self,
        stream: str,
        tuples: list[StreamTuple],
        node_state=None,
        stream_state=None,
        replay: bool = False,
    ) -> tuple[str, TupleBatch]:
        """Build the network message for a batch on ``stream``.

        ``node_state`` / ``stream_state`` are piggybacked on the batch so the
        receiver's consistency manager can skip its next keep-alive probe.
        ``replay`` marks the direct response to a subscribe request.
        """
        return DATA, TupleBatch.of(
            stream,
            tuples,
            producer=self.owner,
            node_state=node_state,
            stream_state=stream_state,
            replay=replay,
        )
