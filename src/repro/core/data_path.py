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
  acknowledged a prefix (Section 8.1, :meth:`OutputStreamManager.acknowledge`);
  no size cap drops tuples, so a silent consumer's outage grows the buffer.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import itemgetter, not_
from typing import Callable, Iterable, Mapping, Sequence

from ..errors import BufferTruncatedError, ProtocolError
from ..spe.payload import cut_runs, drop_runs, grow_runs
from ..spe.streams import StreamWriter
from ..spe.tuples import (
    BOUNDARY,
    EMPTY_BLOCK,
    REC_DONE,
    STABLE,
    UNDO,
    StreamTuple,
    TupleBlock,
)
from .protocol import DATA, SubscribeRequest, TupleBatch

_NOT_STABLE = re.compile(rb"[^\x00]+")
_REC_DONE_CODE = bytes([REC_DONE])


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


class OutputStreamManager:
    """Buffering, subscription handling, and replay for one output stream."""

    def __init__(self, stream: str, owner: str) -> None:
        self.stream = stream
        self.owner = owner
        self._writer = StreamWriter(stream_name=f"{owner}:{stream}")
        #: The retained tuples in production order, as parallel columns (no
        #: object per buffered tuple).  Row ``i`` has history index
        #: ``_base_index + i``; its physical id follows from the index (see
        #: :meth:`_ids`).  ``_seqs[i]`` is the stamped position of the last
        #: stable tuple at or before row ``i`` -- non-decreasing, hence
        #: bisectable, and the row's own ``stable_seq`` wherever the row is
        #: stable.  ``_undos`` maps the history index of an UNDO row to its
        #: ``undo_from_id``.
        self._codes = bytearray()
        self._stimes: list[float] = []
        self._payload: list = []  # schema runs, grown in place (see grow_runs)
        self._seqs: list[int] = []
        self._undos: dict[int, int] = {}
        self._base_index = 0  # history index of row 0
        #: History indexes at which an id was spent on a tuple that was never
        #: buffered (the UNDO opening a ``had_tentative`` replay): rows at or
        #: past such an index carry an id one larger than rows before it.
        self._id_skips: list[int] = []
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
        #: Optional callback handed every dropped prefix (oldest first, one
        #: block) just before it is discarded; the control plane keeps its
        #: load history through it once the buffer no longer holds the whole run.
        self.truncation_observer: Callable[[TupleBlock], None] | None = None
        #: Largest serialization timestamp ever appended (the control plane
        #: aligns reconfiguration cuts to the bucket boundary past this).
        self.last_appended_stime = float("-inf")
        #: True while every active subscriber was sent everything appended:
        #: a flush has nothing to do here until the next append.
        self.flushed = True
        # Statistics
        self.stable_produced = 0
        self.tentative_produced = 0
        self.undos_produced = 0

    # ------------------------------------------------------------------ production
    def append(self, item: StreamTuple) -> StreamTuple:
        """Relabel one tuple onto the physical stream: a block of one."""
        return self.append_all((item,))[0]

    def append_all(self, items: Iterable[StreamTuple]) -> TupleBlock:
        """Relabel ``items`` onto the physical stream and buffer them.

        Every stable tuple is stamped with its replica-independent position,
        so a subscriber connected to several replicas of this stream can
        discard stable tuples it already received elsewhere.  Returns the
        physical tuples as one block.
        """
        block = TupleBlock.of(items)
        codes = block.codes
        first = self._base_index + len(self._codes)
        if not codes:
            return EMPTY_BLOCK
        self.flushed = False
        for start, stop in block.segment_edges():
            self._extend(block, start, stop)
        grow_runs(self._payload, block.payload)
        return self._block(first)

    def _extend(self, block: TupleBlock, start: int, stop: int) -> None:
        """Buffer rows ``[start, stop)`` of a fragment's output: one segment.

        A segment is a data run, a data run and its closing BOUNDARY, or one
        control row (see :meth:`TupleBlock.segments`).
        """
        codes, stimes = block.codes[start:stop], block.stimes[start:stop]
        code = codes[0]
        if code < BOUNDARY:
            rows = len(codes)
            closed = codes[-1] == BOUNDARY  # the run's boundary is its last row
            data = rows - closed
            stable = codes.count(STABLE, 0, data)
            first = self._stable_seq + 1
            if stable == data:
                self._seqs.extend(range(first, first + stable))
            elif not stable:
                self._seqs.extend(repeat(first - 1, data))
            else:
                self._seqs.extend(
                    islice(accumulate(map(not_, codes[:data]), initial=first - 1), 1, None)
                )
            self._stable_seq += stable
            self.stable_produced += stable
            self.tentative_produced += data - stable
            if closed:
                self._seqs.append(self._stable_seq)
                stimes = [*stimes[:-1], self._boundary_stime(stimes[-1])]
        else:
            if code == BOUNDARY:
                stimes = (self._boundary_stime(stimes[0]),)
            elif code == UNDO:
                # Cross-node undo semantics: revoke everything after the last
                # stable tuple the subscriber received (see protocol.py), so the
                # specific id does not need to be mapped between replicas.
                undo_from = block.undo_from_ids[start] if block.undo_from_ids else None
                self._undos[self._end_index()] = -1 if undo_from is None else undo_from
                self.undos_produced += 1
            else:
                codes = _REC_DONE_CODE
            self._seqs.append(self._stable_seq)
        self._writer.next_id += len(codes)
        self._codes += codes
        self._stimes.extend(stimes)
        latest = max(stimes)
        if latest > self.last_appended_stime:
            self.last_appended_stime = latest

    def _boundary_stime(self, stime: float) -> float:
        """The stime a boundary is buffered with: never below the previous boundary's."""
        writer = self._writer
        if writer.last_boundary_stime > stime:
            stime = writer.last_boundary_stime
        writer.last_boundary_stime = stime
        return stime

    def _ids(self, start: int, stop: int) -> Sequence[int]:
        """Physical ids of history indexes ``[start, stop)``."""
        skips = self._id_skips
        if not skips:
            return range(start, stop)
        before, through = bisect_right(skips, start), bisect_right(skips, stop - 1)
        if before == through:
            return range(start + before, stop + before)
        return [index + bisect_right(skips, index) for index in range(start, stop)]

    def _block(self, start: int, stop: int | None = None) -> TupleBlock:
        """History indexes ``[start, stop)`` of the buffer as one block."""
        base = self._base_index
        if start < base:
            start = base
        if stop is None:
            stop = base + len(self._codes)
        if start >= stop:
            return EMPTY_BLOCK
        codes = bytes(self._codes[start - base : stop - base])
        seqs = undos = None
        if STABLE in codes:
            seqs = self._seqs[start - base : stop - base]
            stable = codes.count(STABLE)
            if stable == len(codes) - 1 and codes[-1] != STABLE:  # a stable run and its boundary
                seqs[-1] = None
            elif stable != len(codes):
                for match in _NOT_STABLE.finditer(codes):  # one iteration per run of them
                    seqs[match.start() : match.end()] = [None] * (match.end() - match.start())
        if UNDO in codes:
            undos = [None] * len(codes)
            for index, undo_from in self._undos.items():
                if start <= index < stop:
                    undos[index - start] = undo_from
        return TupleBlock(
            codes,
            self._ids(start, stop),
            self._stimes[start - base : stop - base],
            cut_runs(self._payload, start - base, stop - base),
            undos,
            seqs,
        )

    # ------------------------------------------------------------------ state transfer
    def snapshot_state(self) -> dict:
        """Capture this manager's transferable state (the buffer as one block)."""
        return {
            "stream": self.stream,
            "writer": self._writer.snapshot(),
            "buffer": self._block(self._base_index),
            "base_index": self._base_index,
            "id_skips": list(self._id_skips),
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
        buffer: TupleBlock = state["buffer"]
        self._writer.restore(state["writer"])
        self._base_index = base = int(state["base_index"])
        self._id_skips = list(state["id_skips"])
        self._stable_seq = int(state["stable_seq"])
        self._dropped_seq = seq = int(state["dropped_seq"])
        self.last_appended_stime = float(state["last_appended_stime"])
        self._codes = bytearray(buffer.codes)
        self._stimes = list(buffer.stimes)
        self._payload = []
        grow_runs(self._payload, buffer.payload)
        self._seqs = [
            (seq := seq if stamped is None else stamped)
            for stamped in buffer.stable_seqs or repeat(None, len(buffer))
        ]
        self._undos = {
            base + offset: undo_from
            for offset, undo_from in enumerate(buffer.undo_from_ids or ())
            if undo_from is not None
        }
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

    def subscribe(self, request: SubscribeRequest) -> TupleBlock:
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
        replay = self._block(start_index)
        if request.filter is not None:
            # Cursor translation for a filtered subscription: the quoted
            # position was located in full-stream coordinates above; only the
            # slice passing the filter is actually replayed.
            replay = request.filter.select(replay)
        if not request.replay_tentative:
            replay = self._trim_tentative_tail(replay)
        if request.had_tentative:
            self._id_skips.append(self._end_index())
            replay = TupleBlock.concat((self._writer.control(UNDO, 0.0, -1), replay))
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
        return self._base_index + len(self._codes)

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
        # Past everything produced here, the search lands on the end index.
        return self._base_index + self._offset_after(last_stable_seq)

    def _offset_after(self, stable_seq: int) -> int:
        """Buffer offset right after stable tuple #``stable_seq`` (one binary search).

        The buffer length when that tuple has not been produced here yet.
        """
        return min(bisect_left(self._seqs, stable_seq) + 1, len(self._seqs))

    @staticmethod
    def _trim_tentative_tail(entries: TupleBlock) -> TupleBlock:
        """Drop everything after the last stable data tuple in ``entries``."""
        last_stable = entries.codes.rfind(STABLE)
        if last_stable < 0:
            return entries.take([i for i, code in enumerate(entries.codes) if code >= BOUNDARY])
        return entries[: last_stable + 1]

    def pending_for(self, subscriber: str) -> TupleBlock:
        """Tuples appended since the subscriber's cursor (filter applied)."""
        subscription = self._subscriptions.get(subscriber)
        if subscription is None or not subscription.active:
            return EMPTY_BLOCK
        entries = self._block(subscription.next_index)
        if subscription.filter is not None:
            entries = subscription.filter.select(entries)
        return entries

    def pending_batches(self) -> list[tuple[TupleBlock, list[str]]]:
        """Pending tuples grouped by subscriber cursor, for multicast delivery.

        Subscribers that are caught up to the same position *and* share the
        same subscription filter share one batch, so in the steady state a
        node sends one :class:`~repro.core.protocol.TupleBatch` (one simulator
        event) per filter group to all of that group's replicas instead of one
        message each; the filters of one slice share its route columns.
        Filtered groups whose pending slice holds nothing for them (every data
        tuple foreign, no control tuples) are advanced past the slice without
        a send: the filter is deterministic, so it never will.
        """
        groups: dict[tuple[int, str], list[_Subscription]] = {}
        end = self._base_index + len(self._codes)
        for subscription in self._subscriptions.values():
            if not subscription.active or subscription.next_index >= end:
                continue
            filter_ = subscription.filter
            key = (subscription.next_index, "" if filter_ is None else filter_.key)
            group = groups.get(key)
            if group is None:
                groups[key] = [subscription]
            else:
                group.append(subscription)
        batches: list[tuple[TupleBlock, list[str]]] = []
        slices: dict[int, tuple[TupleBlock, dict]] = {}
        for (index, _filter_key), subscriptions in sorted(groups.items(), key=itemgetter(0)):
            if index not in slices:
                slices[index] = (self._block(index, end), {})
            entries, columns = slices[index]
            filter_ = subscriptions[0].filter
            if filter_ is not None:
                entries = filter_.select(entries, columns)
            if not entries.codes:
                for subscription in subscriptions:
                    subscription.next_index = end
                continue
            batches.append((entries, [s.subscriber for s in subscriptions]))
        if not batches:
            self.flushed = True
        return batches

    def mark_delivered(self, *subscribers: str) -> None:
        """The subscribers were sent everything appended so far."""
        end = self._base_index + len(self._codes)
        subscriptions = self._subscriptions
        for subscriber in subscribers:
            subscription = subscriptions.get(subscriber)
            if subscription is not None:
                subscription.next_index = end
        for subscription in subscriptions.values():
            if subscription.active and subscription.next_index < end:
                return
        self.flushed = True

    # ------------------------------------------------------------------ truncation
    def _drop_oldest(self, count: int) -> int:
        self._dropped_seq = max(self._dropped_seq, self._seqs[count - 1])
        base = self._base_index
        if self.truncation_observer is not None:
            self.truncation_observer(self._block(base, base + count))
        drop_runs(self._payload, 0, count, len(self._codes))
        del self._codes[:count], self._stimes[:count], self._seqs[:count]
        for index in [index for index in self._undos if index < base + count]:
            del self._undos[index]
        self._base_index = base + count
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
        if safe_seq <= self._dropped_seq or safe_seq > self._stable_seq:
            return 0  # nothing new, or ahead of what this replica has produced so far
        return self._drop_oldest(self._offset_after(safe_seq))

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
        return len(self._codes)

    def buffered_items(self) -> TupleBlock:
        """The buffered tuples, in production order (diagnostics and tests)."""
        return self._block(self._base_index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<OutputStreamManager {self.owner}:{self.stream} buffered={len(self._codes)} "
            f"truncated={self._base_index} stable_seq={self._stable_seq} "
            f"subscribers={self.subscribers()}>"
        )


class DataPath:
    """All output stream managers of one node plus batch sending helpers."""

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._outputs: dict[str, OutputStreamManager] = {}

    def add_output(self, stream: str) -> OutputStreamManager:
        if stream in self._outputs:
            raise ProtocolError(f"output stream {stream!r} already managed")
        manager = OutputStreamManager(stream, self.owner)
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
        tuples: Iterable[StreamTuple],
        node_state=None,
        stream_state=None,
        replay: bool = False,
    ) -> tuple[str, TupleBatch]:
        """Build the network message for a batch on ``stream``.

        ``node_state`` / ``stream_state`` are piggybacked on the batch so the
        receiver's consistency manager learns the producer's state without a
        pushed keep-alive.
        ``replay`` marks the direct response to a subscribe request.
        """
        return DATA, TupleBatch(
            stream, TupleBlock.of(tuples), self.owner, node_state, stream_state, replay
        )
