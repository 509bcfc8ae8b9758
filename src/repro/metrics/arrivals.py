"""Packed per-arrival columns behind the client's trace and latency records.

One row per tuple a client observed: arrival time, stime, type code, whether
it was new output, and its sequence value -- 26 bytes in ``array`` /
``bytearray`` columns instead of an ``OutputRecord`` plus a ``TraceEntry``
object.  ``LatencyTracker.records`` and ``MetricsCollector.trace`` are
views (:class:`RowView`) over these columns: entries are built when a view is
iterated and never stored.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Any, Callable, Iterator, Sequence

from ..spe.tuples import CODE_BY_TYPE, TYPE_BY_CODE

#: Type names by column code: the block type codes, so ``code < _DATA_CODES``
#: reads "data tuple".
_TYPE_NAMES = tuple(member.value for member in TYPE_BY_CODE)
_DATA_CODES = 2
_INT64_LIMIT = 2**63


class ArrivalLog:
    """Append-only columns, one row per observed tuple."""

    __slots__ = ("times", "stimes", "codes", "new", "sequences")

    def __init__(self) -> None:
        self.times = array("d")
        self.stimes = array("d")
        self.codes = bytearray()
        self.new = bytearray()
        #: Packed int64 until a value does not fit (non-int, > 64 bits,
        #: ``None``); then a plain list, for good.
        self.sequences: array | list = array("q")

    def append(
        self, time: float, stime: float, tuple_type: str, is_new: bool, sequence: Any
    ) -> None:
        """Add one row; ``sequence`` is ignored (read back ``None``) for non-data rows."""
        self.extend(time, (stime,), bytes((CODE_BY_TYPE[tuple_type],)), (is_new,), [sequence])

    def extend(
        self,
        time: float,
        stimes: Sequence[float],
        codes: bytes,
        new: Sequence[bool],
        sequences: list,
    ) -> None:
        """Add one row per entry of the parallel columns, all arrived at ``time``."""
        self.stimes.extend(stimes)
        self.times.extend(repeat(time, len(codes)))
        self.codes += codes
        self.new += bytes(new)
        column = self.sequences
        if type(column) is not list and not (
            # ``type(...) is int`` also keeps bools out of the packed column,
            # where they would read back 0 / 1.
            set(map(type, sequences)) <= {int}
            and (not sequences or -_INT64_LIMIT <= min(sequences) and max(sequences) < _INT64_LIMIT)
        ):
            # One-way and amortised O(1): once a list, the column is never
            # examined or converted again.
            self.sequences = column = list(column)
        column.extend(sequences)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def data_rows(self) -> int:
        return sum(self.codes.count(code) for code in range(_DATA_CODES))

    def latencies(self, new_only: bool) -> list[float]:
        """``arrival - stime`` of the data rows (of the new-output rows only)."""
        return [
            time - stime
            for time, stime, code, is_new in zip(self.times, self.stimes, self.codes, self.new)
            if code < _DATA_CODES and (is_new or not new_only)
        ]


class RowView:
    """A sized, re-iterable view of an :class:`ArrivalLog`.

    ``build(time, stime, type_name, is_new, sequence)`` makes one entry; the
    view calls it per row on every iteration and keeps nothing.
    """

    __slots__ = ("_log", "_build", "_data_only")

    def __init__(self, log: ArrivalLog, build: Callable[..., Any], data_only: bool) -> None:
        self._log = log
        self._build = build
        self._data_only = data_only

    def __len__(self) -> int:
        return self._log.data_rows if self._data_only else len(self._log)

    def __iter__(self) -> Iterator[Any]:
        log, build, data_only = self._log, self._build, self._data_only
        for time, stime, code, is_new, sequence in zip(
            log.times, log.stimes, log.codes, log.new, log.sequences
        ):
            if code < _DATA_CODES:
                yield build(time, stime, _TYPE_NAMES[code], bool(is_new), sequence)
            elif not data_only:
                yield build(time, stime, _TYPE_NAMES[code], False, None)
