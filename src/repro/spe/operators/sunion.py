"""SUnion: the data-serializing operator at the heart of DPC.

SUnion (Section 4.2) takes one or more input streams and orders all their
tuples into a single deterministic sequence so that every replica of the
downstream operators processes exactly the same input in the same order.  It
works on *buckets*: disjoint intervals of ``tuple_stime`` of a fixed size.  A
bucket is *stable* once boundary tuples with sufficiently high stimes have
been received on every input stream (Equation 1); at that point its contents
can be sorted (by ``(stime, port, tuple_id)``) and emitted.

This module contains the deterministic serializer used *inside* query
diagrams.  The DPC-specific behaviour of SUnions placed on a node's input
streams -- failure detection, the availability/consistency delay trade-off,
input buffering for reconciliation -- lives in
:class:`repro.core.input_sunion.InputSUnion`, which builds on this class.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from operator import itemgetter, le
from typing import Any, Mapping

from ...errors import OperatorError
from ..schema import ANY_SCHEMA, Schema
from ..streams import strictly_increasing
from ..tuples import BOUNDARY, TENTATIVE, TupleBlock
from .base import Operator


def _ids_grow_per_port(entries: list[tuple[int, TupleBlock]]) -> bool:
    """Whether tuple ids strictly increase along the (port-sorted) entries of each port."""
    last_port = last_id = None
    for port, block in entries:
        ids = block.ids
        if not strictly_increasing(ids) or (port == last_port and ids[0] <= last_id):
            return False
        last_port, last_id = port, ids[-1]
    return True


def bucket_index(stime: float, bucket_size: float) -> int:
    """Index of the bucket covering ``stime`` (buckets are [k*size, (k+1)*size)).

    Decided on the float grid the edges ``(k + 1) * size`` are emitted on: the
    floor estimate is corrected both ways, as in ``WindowSpec.pane_index``, so
    75.3 lands in bucket 753 (``753 * 0.1 == 75.3``) although ``75.3 / 0.1``
    floors to 752.
    """
    index = int(math.floor(stime / bucket_size))
    while index * bucket_size > stime:
        index -= 1
    while (index + 1) * bucket_size <= stime:
        index += 1
    return index


class SUnion(Operator):
    """Deterministic, bucket-based serializing union.

    Parameters
    ----------
    arity:
        Number of input streams to merge.
    bucket_size:
        Width, in stime units, of the buckets used to batch the
        availability/consistency decision (Section 4.2.1).
    sort_key:
        Optional override of the intra-bucket order.  The default orders by
        ``(stime, port, tuple_id)`` which is deterministic for any interleaved
        arrival order of the same per-stream sequences.
    """

    def __init__(
        self,
        name: str,
        arity: int = 1,
        bucket_size: float = 0.1,
        output_schema: Schema = ANY_SCHEMA,
    ) -> None:
        super().__init__(name, arity=arity, output_schema=output_schema)
        if bucket_size <= 0:
            raise OperatorError(f"bucket_size must be positive, got {bucket_size}")
        self.bucket_size = bucket_size
        #: bucket index -> (port, block slice) entries awaiting stability, in
        #: arrival order.
        self._buckets: dict[int, list[tuple[int, TupleBlock]]] = {}
        #: Highest bucket boundary (stime) already emitted.
        self._emitted_through = float("-inf")
        #: Optional clock (set by the processing node) used to record when a
        #: bucket first received data; drives the delay policies of Section 6.
        self.arrival_clock = None
        #: While True, buckets are never emitted by watermark advances -- only
        #: through the explicit force_emit_* calls.  The processing node sets
        #: this while it is handling a failure so that the availability /
        #: consistency trade-off is governed entirely by the delay policy.
        self.hold_buckets = False
        #: bucket index -> simulation time of the first tuple buffered for it.
        self._bucket_first_arrival: dict[int, float] = {}
        #: Data tuples dropped because their bucket was already emitted (late
        #: arrivals, e.g. source replays handled instead by reconciliation).
        self.late_drops = 0

    # ------------------------------------------------------------------ buffering
    def _process_segment(self, port: int, segment: TupleBlock) -> list[TupleBlock]:
        """Pass a run its own boundary stabilizes straight through: one relabel.

        With one input port, no bucket pending and nothing held, a run that
        arrives in order inside one bucket, followed by a boundary that
        closes that bucket, is exactly the bucket this operator would file,
        serialize and emit ahead of its own boundary: the run and the
        boundary leave with one id take.  Any other segment is bucketed.
        """
        codes, stimes = segment.codes, segment.stimes
        stime = stimes[-1]
        if (
            self.arity == 1
            and not self._buckets
            and not self.hold_buckets
            and codes[-1] == BOUNDARY
            and stime > self._port_boundaries[0]
            and stime > self._emitted_watermark
        ):
            size, rows = self.bucket_size, len(codes) - 1
            upper = (bucket_index(stimes[0], size) + 1) * size
            if (
                stimes[rows - 1] < upper <= stime
                and upper > self._emitted_through
                and strictly_increasing(segment.ids)
                and all(map(le, stimes[: rows - 1], stimes[1:rows]))
            ):
                if TENTATIVE in codes:
                    self._seen_tentative_input = True
                self._port_boundaries[0] = self._emitted_watermark = stime
                self._emitted_through = upper
                writer = self.writer
                writer.advance_boundary(stime)
                return [segment.relabeled(writer.take(rows + 1))]
        return super()._process_segment(port, segment)

    def _process_run(self, port: int, run: TupleBlock) -> list[TupleBlock]:
        """Bucket a data run as block slices (one slice per bucket it spans).

        Rows are bucketed on the float grid of :func:`bucket_index`; a run
        inside one bucket's edges (the common case: upstream emits one bucket
        at a time) is filed whole, any other run slice by slice.
        """
        size = self.bucket_size
        stimes = run.stimes
        low = bucket_index(min(stimes), size)
        if max(stimes) < (low + 1) * size:
            pieces = [(low, run)]
        else:
            pieces, start, count = [], 0, len(stimes)
            while start < count:
                index = bucket_index(stimes[start], size)
                lower, upper = index * size, (index + 1) * size
                stop = start + 1
                while stop < count and lower <= stimes[stop] < upper:
                    stop += 1
                pieces.append((index, run[start:stop]))
                start = stop
        for index, piece in pieces:
            if (index + 1) * size <= self._emitted_through:
                # The bucket covering these stimes was already emitted; the
                # tuples are late (typically a replay after a failure) and
                # reach the downstream state through reconciliation instead.
                self.late_drops += len(piece)
                continue
            entries = self._buckets.get(index)
            if entries is None:
                if self.arrival_clock is not None:
                    self._bucket_first_arrival[index] = float(self.arrival_clock())
                entries = self._buckets[index] = []
            entries.append((port, piece))
        return []

    def _on_watermark(self, previous: float, current: float) -> list[TupleBlock]:
        if self.hold_buckets:
            return []
        return self._emit_stable_through(current)

    def _boundary_to_emit(self, watermark: float) -> float:
        """Never let forwarded boundaries run ahead of held data.

        A boundary emitted downstream promises that the stream is stable up
        to its stime.  While :attr:`hold_buckets` is set, buckets the
        watermark has already stabilized stay buffered, so forwarding the
        full watermark would break that promise: a downstream consumer (in
        particular the redo buffer it keeps for reconciliation) would see
        "stable through t" *before* the held data for t arrives, and a later
        replay of that buffer would stabilize and emit buckets before their
        data is pushed, silently late-dropping it.  The boundary forwarded
        while holding is therefore capped at the lower edge of the oldest
        held bucket; once the hold is released and the data flows, the next
        watermark advance emits the catch-up boundary.
        """
        if self.hold_buckets and self._buckets:
            return min(watermark, min(self._buckets) * self.bucket_size)
        return watermark

    def remove_port(self, port: int) -> None:
        """Drop one input port and renumber buffered entries to match.

        Entries buffered from higher-numbered ports shift down with their
        port (the intra-bucket sort orders by ``(stime, port, tuple_id)``, so
        the renumbering must track the live wiring); entries from the removed
        port itself -- already-cut data still awaiting stability -- keep
        their original index, preserving a deterministic order that every
        replica reproduces because each performs the identical removal.
        """
        super().remove_port(port)
        for index, entries in self._buckets.items():
            self._buckets[index] = [
                (p - 1 if p > port else p, block) for p, block in entries
            ]

    def release_held_buckets(self) -> TupleBlock:
        """Emit every bucket the current watermark already stabilized.

        Called by the node when it leaves failure handling without having
        processed anything tentative (the failure was masked): the buckets
        buffered while :attr:`hold_buckets` was set can be emitted stably.
        """
        return TupleBlock.concat(self._emit_stable_through(self.watermark))

    # ------------------------------------------------------------------ emission
    def _serialize_bucket(self, index: int, tentative: bool = False) -> TupleBlock:
        """Remove bucket ``index`` and emit it in ``(stime, port, tuple_id)`` order.

        The entries are laid out by port (arrival order within a port) and
        stable-sorted by stime: one argsort of a float column and one gather
        per column -- or nothing at all for the common bucket that arrives in
        order.  That equals the key order whenever ids grow along each
        port's arrivals (one producer numbered them); otherwise the full keys
        are sorted.  The emitted block is relabeled onto this operator's
        stream (stability labels kept, or all tentative for a forced emission).
        """
        entries = self._buckets.pop(index)
        self._bucket_first_arrival.pop(index, None)
        upper = (index + 1) * self.bucket_size
        if upper > self._emitted_through:
            self._emitted_through = upper
        if entries[1:]:
            entries.sort(key=itemgetter(0))
            merged = TupleBlock.concat([block for _port, block in entries])
            grows = _ids_grow_per_port(entries)
        else:
            merged = entries[0][1]
            grows = strictly_increasing(merged.ids)
        stimes = merged.stimes
        if not grows:
            ports = chain.from_iterable(repeat(port, len(block)) for port, block in entries)
            keys = list(zip(stimes, ports, merged.ids))
            merged = merged.take(sorted(range(len(keys)), key=keys.__getitem__))
        elif sorted(stimes) != list(stimes):
            merged = merged.take(sorted(range(len(stimes)), key=stimes.__getitem__))
        rows = len(merged.codes)
        codes = bytes([TENTATIVE]) * rows if tentative else merged.codes
        return merged.relabeled(self.writer.take(rows), codes)

    def _emit_stable_through(self, watermark: float) -> list[TupleBlock]:
        """Emit, in order, every buffered bucket the watermark has stabilized (one run each).

        Bucket ends grow with the index, so the stable buckets are the
        oldest ones: the walk stops at the first bucket still open.
        """
        buckets, size = self._buckets, self.bucket_size
        if not buckets or watermark < (min(buckets) + 1) * size:
            return []
        out = []
        for index in sorted(buckets):
            if watermark < (index + 1) * size:
                break
            out.append(self._serialize_bucket(index))
        return out

    def force_emit_pending(self) -> TupleBlock:
        """Emit every buffered bucket regardless of stability, labelled tentative.

        Used when a failure makes it impossible to ever stabilize the buckets
        and the availability bound requires processing what is available.
        """
        return self._force_emit(sorted(self._buckets))

    def force_emit_held_longer_than(self, now: float, min_hold: float) -> TupleBlock:
        """Tentatively emit the buckets buffered for at least ``min_hold`` seconds.

        This is the knob the delay policies of Section 6 turn: under
        *Process*, ``min_hold`` is the small tentative-bucket wait; under
        *Delay*, it is (a fraction of) the node's incremental latency budget
        ``D``.  Requires :attr:`arrival_clock` to have been set.
        """
        ready = sorted(
            index
            for index in self._buckets
            if now - self._bucket_first_arrival.get(index, now) >= min_hold
        )
        return self._force_emit(ready)

    def _force_emit(self, indices: list[int]) -> TupleBlock:
        return TupleBlock.concat([self._serialize_bucket(index, tentative=True) for index in indices])

    def drop_tentative(self) -> int:
        """Remove buffered tentative tuples (an UNDO arrived on the input).

        Returns the number of tuples dropped.  The stable versions arrive as
        corrections and are handled by reconciliation.
        """
        dropped = 0
        for index in list(self._buckets):
            kept = []
            for port, block in self._buckets[index]:
                tentative = block.codes.count(TENTATIVE)
                if tentative:
                    dropped += tentative
                    block = block.take([i for i, code in enumerate(block.codes) if code != TENTATIVE])
                if block:
                    kept.append((port, block))
            if kept:
                self._buckets[index] = kept
            else:
                del self._buckets[index]
                self._bucket_first_arrival.pop(index, None)
        return dropped

    # ------------------------------------------------------------------ introspection
    @property
    def pending_tuples(self) -> int:
        """Number of buffered data tuples not yet emitted."""
        return sum(len(block) for entries in self._buckets.values() for _port, block in entries)

    # ------------------------------------------------------------------ checkpointing
    def _checkpoint_state(self) -> dict:
        return {
            "buckets": {
                str(index): list(entries)
                for index, entries in self._buckets.items()
            },
            "first_arrival": {str(index): t for index, t in self._bucket_first_arrival.items()},
            "emitted_through": self._emitted_through,
            "bucket_size": self.bucket_size,
        }

    def _restore_state(self, state: Mapping[str, Any]) -> None:
        self._buckets = {
            int(index): [(int(port), TupleBlock.of(block)) for port, block in entries]
            for index, entries in state.get("buckets", {}).items()
        }
        self._bucket_first_arrival = {
            int(index): float(t) for index, t in state.get("first_arrival", {}).items()
        }
        self._emitted_through = float(state.get("emitted_through", float("-inf")))
