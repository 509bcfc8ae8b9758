"""Streams and stream buffers.

Two abstractions live here:

* :class:`StreamWriter` -- assigns monotonically increasing ``tuple_id`` values
  and remembers the last boundary emitted; every producer of a named stream
  (data sources, SOutput operators, the node Data Path) owns one.
* :class:`StreamLog` -- an append-only, truncatable record of everything
  produced on a stream.  Upstream nodes keep one per output stream so that any
  replica of a downstream neighbor can (re)subscribe and receive the suffix it
  is missing (Section 8.1, *Output Buffers*).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import lt
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..errors import StreamError
from .payload import CONTROL_PAYLOAD
from .tuples import (
    BOUNDARY,
    REC_DONE,
    UNDO,
    BlockBuffer,
    StreamTuple,
    TupleBlock,
    TupleType,
)


def strictly_increasing(ids: Sequence[int]) -> bool:
    """Whether an id column grows along its rows (a ``range`` answers in O(1))."""
    return ids.step > 0 if type(ids) is range else all(map(lt, ids, ids[1:]))


@dataclass
class StreamWriter:
    """Assigns stream-local tuple ids and builds tuples for one stream."""

    stream_name: str
    next_id: int = 0
    last_boundary_stime: float = float("-inf")

    def take(self, count: int) -> range:
        """The next ``count`` ids: relabeling a run is this plus a new block."""
        first = self.next_id
        self.next_id = first + count
        return range(first, first + count)

    def insertion(self, stime: float, values: Mapping[str, Any]) -> StreamTuple:
        return StreamTuple.insertion(self.take(1)[0], stime, values)

    def tentative(self, stime: float, values: Mapping[str, Any]) -> StreamTuple:
        return StreamTuple.tentative(self.take(1)[0], stime, values)

    def advance_boundary(self, stime: float) -> None:
        """Record a boundary at ``stime``; boundaries must carry non-decreasing stimes."""
        if stime < self.last_boundary_stime:
            raise StreamError(
                f"boundary stime {stime} moves backwards on {self.stream_name!r} "
                f"(last was {self.last_boundary_stime})"
            )
        self.last_boundary_stime = stime

    def control(self, code: int, stime: float, undo_from_id: int | None = None) -> TupleBlock:
        """Emit one control tuple (a type code of :mod:`.tuples`) as a block of one."""
        if code == BOUNDARY:
            self.advance_boundary(stime)
        undo = None if undo_from_id is None else (undo_from_id,)
        return TupleBlock(bytes((code,)), self.take(1), (stime,), CONTROL_PAYLOAD, undo)

    def boundary(self, stime: float) -> StreamTuple:
        return self.control(BOUNDARY, stime)[0]

    def undo(self, stime: float, undo_from_id: int) -> StreamTuple:
        return self.control(UNDO, stime, undo_from_id)[0]

    def rec_done(self, stime: float) -> StreamTuple:
        return self.control(REC_DONE, stime)[0]

    def relabel(self, item: StreamTuple) -> StreamTuple:
        """Re-emit ``item`` on this stream with a fresh local id."""
        if item.is_boundary:
            return self.boundary(max(item.stime, self.last_boundary_stime))
        return item.with_id(self.take(1)[0])

    def snapshot(self) -> dict:
        """State needed to restore this writer (used by node checkpoints)."""
        return {"next_id": self.next_id, "last_boundary_stime": self.last_boundary_stime}

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        self.next_id = int(snapshot["next_id"])
        self.last_boundary_stime = float(snapshot["last_boundary_stime"])


@dataclass
class StreamLog:
    """Append-only log of the tuples produced on one stream, held as columns.

    The log supports the three operations DPC needs:

    * ``extend`` with new tuples as they are produced;
    * ``replay_after(tuple_id)`` for a downstream replica that subscribes with
      the id of the last (stable) tuple it received;
    * ``truncate_through(tuple_id)`` once every replica of every downstream
      neighbor has acknowledged the prefix.
    """

    stream_name: str
    _entries: BlockBuffer = field(default_factory=BlockBuffer)
    _truncated_through: int = -1

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self._entries)

    @property
    def truncated_through(self) -> int:
        """Largest tuple_id that has been discarded from the log."""
        return self._truncated_through

    @property
    def last_id(self) -> int:
        """Id of the most recently appended tuple, or -1 when empty."""
        ids = self._entries.ids
        return ids[-1] if ids else self._truncated_through

    def append(self, item: StreamTuple) -> None:
        self.extend((item,))

    def extend(self, items: Iterable[StreamTuple]) -> None:
        """Append a run of tuples; ids must be strictly increasing."""
        block = TupleBlock.of(items)
        ids = block.ids
        if ids and not (ids[0] > self.last_id and strictly_increasing(ids)):
            raise StreamError(
                f"tuple ids {ids[0]}..{ids[-1]} not increasing on {self.stream_name!r} "
                f"(last was {self.last_id}, truncated through {self._truncated_through})"
            )
        self._entries.extend(block)

    def _suffix_start(self, tuple_id: int) -> int:
        """Index of the first entry with id > ``tuple_id`` (ids are sorted)."""
        return bisect_right(self._entries.ids, tuple_id)

    def replay_after(self, tuple_id: int) -> TupleBlock:
        """All tuples with id strictly greater than ``tuple_id``, as one block.

        Raises :class:`StreamError` if that suffix is no longer available
        because the log was truncated past it.  Appends keep ids strictly
        increasing, so the suffix is located by binary search: the log is
        scanned on every output flush and a linear scan would make long
        retained streams quadratic over a run.
        """
        if tuple_id < self._truncated_through:
            raise StreamError(
                f"cannot replay after id {tuple_id} on {self.stream_name!r}: "
                f"log truncated through {self._truncated_through}"
            )
        return self._entries[self._suffix_start(tuple_id):]

    def truncate_through(self, tuple_id: int) -> int:
        """Discard every tuple with id <= ``tuple_id``; returns count removed."""
        removed = self._suffix_start(tuple_id)
        if removed:
            self._truncated_through = max(self._truncated_through, tuple_id)
            del self._entries[:removed]
        return removed

    def last_stable_id(self) -> int:
        """Id of the last stable data tuple in the log, or -1 if none."""
        last = self._entries.codes.rfind(0)
        return self._entries.ids[last] if last >= 0 else -1

    def clear(self) -> None:
        self._entries.clear()


def apply_undo(tuples: list[StreamTuple], undo: StreamTuple) -> list[StreamTuple]:
    """Return ``tuples`` with the suffix revoked by ``undo`` removed.

    ``undo.undo_from_id`` names the *last tuple not to be undone*; every later
    tuple is discarded.  Non-data tuples in the prefix are preserved.
    """
    if undo.tuple_type is not TupleType.UNDO:
        raise StreamError("apply_undo requires an UNDO tuple")
    keep_through = undo.undo_from_id if undo.undo_from_id is not None else -1
    return [t for t in tuples if t.tuple_id <= keep_through]
