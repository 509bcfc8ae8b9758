"""Per-input-stream bookkeeping for a DPC consumer (node or client proxy).

Each logical input stream of a node is tracked by an
:class:`InputStreamMonitor`.  The monitor knows which producers (a data source
or the replicas of an upstream node) can provide the stream, which one is
currently the *primary* (feeding live processing) and which one, during an
upstream stabilization, is the *correcting* connection delivering the stable
version in the background (Section 4.4.3).  It also keeps the evidence DPC
needs for failure detection and healing:

* arrival time of the latest boundary tuple (missing boundaries == failure,
  Section 4.2.3);
* whether tentative tuples have been received since the last stable one;
* the count of stable tuples received (the replica-independent position used
  in subscriptions);
* the stable tuples and boundaries buffered since the last checkpoint, which
  the node replays during checkpoint/redo reconciliation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from ..spe.tuples import (
    BOUNDARY,
    REC_DONE,
    STABLE,
    TENTATIVE,
    UNDO,
    BlockBuffer,
    StreamTuple,
    TupleBlock,
)
from .states import NodeState


@dataclass
class ProducerInfo:
    """What the consumer knows about one producer of an input stream."""

    endpoint: str
    is_source: bool = False
    #: Stream state last advertised (sources are considered STABLE unless
    #: their boundaries stop flowing).
    advertised_state: NodeState = NodeState.STABLE
    #: When the producer last advertised its state (on a data batch or a
    #: pushed heartbeat response); its death shows up as this going stale.
    last_response_at: float = 0.0
    reachable: bool = True

    def effective_state(self, now: float, timeout: float) -> NodeState:
        """State used by the switching rules, accounting for silence."""
        if self.is_source:
            return NodeState.STABLE
        if not self.reachable or now - self.last_response_at > timeout:
            return NodeState.FAILURE
        return self.advertised_state


@dataclass
class InputStreamMonitor:
    """All DPC state attached to one logical input stream."""

    stream: str
    producers: dict[str, ProducerInfo] = field(default_factory=dict)
    primary: str | None = None
    correcting: str | None = None
    #: Content predicate of this consumer's subscription (a
    #: :class:`~repro.deploy.SubscriptionFilter`), attached to every
    #: SubscribeRequest the consumer sends when it switches replicas or
    #: recovers, so the new producer keeps filtering the same slice.  With a
    #: filter, stamped stable positions legitimately arrive with gaps.
    subscription_filter: object | None = None

    # --- failure detection evidence -----------------------------------------
    last_boundary_arrival: float = 0.0
    last_boundary_stime: float = float("-inf")
    last_data_arrival: float = 0.0
    tentative_since_stable: int = 0
    failed: bool = False
    failure_detected_at: float | None = None
    #: True once the upstream signalled the end of its corrections (REC_DONE)
    #: or, for source streams, once boundaries flow again after a failure.
    rec_done_received: bool = False

    # --- replica-independent position ----------------------------------------
    stable_received: int = 0
    #: Last source-log tuple id processed on this stream (data *or* boundary;
    #: source tuples carry no stable_seq, so this is the replayable cursor a
    #: recovery checkpoint records for source-fed streams).  Only maintained
    #: when :attr:`track_source_ids` is set, i.e. a data source feeds the
    #: stream directly.
    source_position: int = -1
    track_source_ids: bool = False
    #: True between a crash-recovery resubscription and the arrival of its
    #: replay.  While set, stable tuples *beyond* the expected position are
    #: rejected: they come from the producer's stale pre-crash cursor (whose
    #: in-flight tuples the crash dropped) racing ahead of the replay, and
    #: accepting them would advance the position past the gap so the replay
    #: itself would then be discarded as duplicate.
    awaiting_replay: bool = False

    # --- redo buffer ----------------------------------------------------------
    #: Accepted stable and boundary rows since the last checkpoint: the blocks
    #: as they arrived, folded into one growable buffer only when a redo
    #: reads it (in the steady state it is cleared unread, every tick).
    _arrived: list = field(default_factory=list)
    _redo: BlockBuffer = field(default_factory=BlockBuffer)

    # --- statistics -----------------------------------------------------------
    tentative_received: int = 0
    undos_received: int = 0

    # ------------------------------------------------------------------ producers
    def add_producer(self, endpoint: str, is_source: bool = False) -> ProducerInfo:
        info = ProducerInfo(endpoint=endpoint, is_source=is_source)
        self.producers[endpoint] = info
        if is_source:
            self.track_source_ids = True
        if self.primary is None:
            self.primary = endpoint
        return info

    def producer_states(self, now: float, timeout: float) -> dict[str, NodeState]:
        return {
            name: info.effective_state(now, timeout) for name, info in self.producers.items()
        }

    @property
    def has_source_producer(self) -> bool:
        return any(info.is_source for info in self.producers.values())

    # ------------------------------------------------------------------ arrivals
    def record_block(self, block: TupleBlock, now: float) -> TupleBlock:
        """Record one batch of arrivals; returns the rows the consumer should process.

        Read off the columns, with no row built.  The steady state -- a run
        of stable and boundary rows, no replay awaited -- is recorded with
        one duplicate-prefix cut: ids (source streams) and stamped positions
        (node streams) increase along a batch, so what another replica or an
        earlier delivery already covered is a prefix.  A batch of tentative
        rows only moves counters.  Everything else (UNDO / REC_DONE rows,
        duplicates in the middle of a node stream, the replay gate) takes
        one pass over the columns.  :meth:`record_tuple` defines the result.
        """
        codes, seqs = block.codes, block.stable_seqs
        stable, boundaries = codes.count(STABLE), codes.count(BOUNDARY)
        if stable + boundaries != len(codes):
            tentative = codes.count(TENTATIVE)
            if tentative == len(codes):
                self.last_data_arrival = now
                self.tentative_received += tentative
                self.tentative_since_stable += tentative
                return block
            return self._record_rows(block, now)
        if (
            self.awaiting_replay
            or (seqs is not None and self.track_source_ids)
            or (
                seqs is not None
                and stable
                and not (
                    seqs.count(None) == boundaries
                    and seqs[codes.find(STABLE)] >= self.stable_received
                )
            )
        ):
            return self._record_rows(block, now)
        if boundaries:
            self.last_boundary_arrival = now
            at = codes.find(BOUNDARY)
            while at >= 0:
                self.last_boundary_stime = max(self.last_boundary_stime, block.stimes[at])
                at = codes.find(BOUNDARY, at + 1)
        if self.track_source_ids:
            # Re-deliveries below the processed cursor (data and punctuation).
            cut = bisect_right(block.ids, self.source_position)
            if cut:
                block = block[cut:]
                codes = block.codes
                stable = codes.count(STABLE)
        if stable:
            last = codes.rfind(STABLE)
            self.last_data_arrival = now
            self.stable_received = seqs[last] + 1 if seqs else self.stable_received + stable
            if self.track_source_ids:
                self.source_position = block.ids[last]
            self.tentative_since_stable = 0
        self._arrived.append(block)
        return block

    def _record_rows(self, block: TupleBlock, now: float) -> TupleBlock:
        """:meth:`record_tuple` over the columns of ``block``: one pass, no row built."""
        codes, ids, stimes, seqs = block.codes, block.ids, block.stimes, block.stable_seqs
        track = self.track_source_ids
        position, received = self.source_position, self.stable_received
        awaiting = self.awaiting_replay
        kept: list[int] = []
        arrived: list[int] = []
        for index, code in enumerate(codes):
            if code == STABLE:
                seq = None if seqs is None else seqs[index]
                if (track and ids[index] <= position) or (
                    seq is not None and (seq < received or (awaiting and seq > received))
                ):
                    continue
                awaiting = False
                self.last_data_arrival = now
                received = received + 1 if seq is None else seq + 1
                if track:
                    position = ids[index]
                self.tentative_since_stable = 0
                arrived.append(index)
            elif code == BOUNDARY:
                self.last_boundary_arrival = now
                self.last_boundary_stime = max(self.last_boundary_stime, stimes[index])
                if (track and ids[index] <= position) or awaiting:
                    continue
                arrived.append(index)
            elif code == TENTATIVE:
                self.last_data_arrival = now
                self.tentative_received += 1
                self.tentative_since_stable += 1
            elif code == UNDO:
                self.undos_received += 1
                self.tentative_since_stable = 0
            elif code == REC_DONE:
                self.rec_done_received = True
            kept.append(index)
        self.source_position, self.stable_received = position, received
        self.awaiting_replay = awaiting
        if arrived:
            self._arrived.append(block.take(arrived))
        return block.take(kept)

    def record_tuple(self, item: StreamTuple, now: float) -> str:
        """Update detection evidence and the redo buffer for one arrival.

        Returns ``"accept"`` for tuples the consumer should process and
        ``"duplicate"`` for stable tuples it already received from another
        replica of the same logical stream (identified by their
        replica-independent ``stable_seq``).

        While :attr:`awaiting_replay` is set, stable tuples beyond the
        expected position are rejected as stale-cursor races.  The defense is
        disarmed at *batch* granularity when the replay-flagged response to
        this consumer's subscribe request arrives (see
        :meth:`~repro.core.consistency_manager.ConsistencyManager.receive_batch`):
        on a *filtered* subscription stamped gaps are routine, so no per-tuple
        position check could tell the legitimate replay from a stale flush.
        """
        # Ordered by steady-state frequency: stable data first, then
        # punctuation, then the failure-handling tuple kinds.
        if item.is_stable:
            if self.track_source_ids and item.tuple_id <= self.source_position:
                # Source tuples carry no stable_seq; their log id is the
                # replica-independent position instead.  Re-deliveries below
                # the processed cursor happen after a checkpoint adoption
                # rewound the source's delivery cursor.
                return "duplicate"
            if item.stable_seq is not None and item.stable_seq < self.stable_received:
                return "duplicate"
            if (
                self.awaiting_replay
                and item.stable_seq is not None
                and item.stable_seq > self.stable_received
            ):
                # Stale-cursor data racing the resubscription replay; the
                # replay covers it from the expected position onward.
                return "duplicate"
            self.awaiting_replay = False
            self.last_data_arrival = now
            if item.stable_seq is not None:
                self.stable_received = item.stable_seq + 1
            else:
                self.stable_received += 1
            if self.track_source_ids:
                self.source_position = item.tuple_id
            self.tentative_since_stable = 0
            self._arrived.append((item,))
            return "accept"
        if item.is_boundary:
            self.last_boundary_arrival = now
            self.last_boundary_stime = max(self.last_boundary_stime, item.stime)
            if self.track_source_ids and item.tuple_id <= self.source_position:
                # Re-delivered source punctuation (see the stable-data path);
                # it already served as liveness evidence above.
                return "duplicate"
            if self.awaiting_replay:
                # Stale-cursor punctuation racing the resubscription replay:
                # it promises stability for stimes whose data we have not
                # received yet (the replay re-delivers data and boundaries
                # interleaved).  Feeding it would advance the fragment's
                # watermark past the replayed data.  It still counts as
                # liveness evidence (above), but is not processed.
                return "duplicate"
            self._arrived.append((item,))
            return "accept"
        if item.is_tentative:
            self.last_data_arrival = now
            self.tentative_received += 1
            self.tentative_since_stable += 1
            return "accept"
        if item.is_undo:
            self.undos_received += 1
            self.tentative_since_stable = 0
            return "accept"
        if item.is_rec_done:
            self.rec_done_received = True
        return "accept"

    # ------------------------------------------------------------------ failure / healing
    def boundary_silent_for(self, now: float) -> float:
        """Seconds since the last boundary tuple arrived."""
        return now - self.last_boundary_arrival

    def detect_failure(self, now: float, timeout: float) -> bool:
        """True when this input stream should be declared failed *now*.

        Either boundaries stopped arriving for longer than ``timeout`` or the
        stream started carrying tentative tuples (Section 4.2.3).
        """
        if self.failed:
            return False
        silent = self.boundary_silent_for(now) > timeout
        tentative = self.tentative_since_stable > 0
        if silent or tentative:
            self.failed = True
            self.failure_detected_at = now
            self.rec_done_received = False
            return True
        return False

    def is_healed(self, now: float, timeout: float) -> bool:
        """True when the failure on this stream can be considered healed.

        For a stream fed directly by a data source, healing means boundaries
        flow again (the source replays whatever was missed).  For a stream fed
        by an upstream node, healing additionally requires that the upstream
        finished its own corrections (REC_DONE) -- or never produced tentative
        data at all -- and advertises STABLE again.
        """
        if not self.failed:
            return True
        boundaries_flowing = self.boundary_silent_for(now) <= timeout
        if not boundaries_flowing:
            return False
        if self.has_source_producer:
            return True
        primary_info = self.producers.get(self.primary) if self.primary else None
        primary_stable = (
            primary_info is not None
            and primary_info.effective_state(now, timeout=max(timeout, 1.0)) is NodeState.STABLE
        )
        if self.tentative_received == 0:
            return primary_stable
        return self.rec_done_received and primary_stable

    def mark_healed(self) -> None:
        """Reset failure flags after the node finished handling the failure."""
        self.failed = False
        self.failure_detected_at = None
        self.rec_done_received = False
        self.tentative_since_stable = 0

    # ------------------------------------------------------------------ redo buffer
    @property
    def stable_buffer(self) -> BlockBuffer:
        """The redo buffer, ordered by arrival (trim it in place; grow it by arrivals only)."""
        for block in self._arrived:
            self._redo.extend(block)
        self._arrived.clear()
        return self._redo

    def clear_stable_buffer(self) -> None:
        self._arrived.clear()
        self._redo.clear()
