"""The client's corrected ledger, stored as sealed segments plus an open tail.

A client logs every output tuple for the whole run (the ledger is what the
eventual-consistency check reads), so the store must not cost an object per
tuple.  An UNDO revokes the tuples *after the last stable tuple* and nothing
else; everything up to the last stable tuple is therefore immutable, and the
ledger seals that prefix -- in fixed-size segments -- into the columnar tuple
encoding (:mod:`repro.spe.tuple_codec`, ~46 bytes per tuple, round-trip
exact).  The open tail is a :class:`~repro.spe.tuples.BlockBuffer`; rows are
built only by whoever reads them, one segment at a time.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain, compress
from typing import Iterable, Iterator

from ..spe.tuple_codec import decode_tuples, encode_tuples
from ..spe.tuples import STABLE, TENTATIVE, BlockBuffer, StreamTuple, TupleBlock

#: Tuples per sealed segment.  Large enough that the codec's per-run header
#: and key names amortise to nothing, small enough that the open tail and one
#: decoded segment stay a few hundred kilobytes.
SEGMENT_TUPLES = 1024


class TupleLedger(Sequence):
    """Append-only sequence of data tuples whose tentative suffix can be dropped.

    The supported mutations are :meth:`append`, :meth:`drop_tentative_suffix`
    and :meth:`clear`; reading is the ``Sequence`` protocol.  Do not append
    while iterating.
    """

    __slots__ = ("_size", "_sealed", "_tail", "_last_stable", "tentative")

    def __init__(self) -> None:
        self._size = SEGMENT_TUPLES
        #: Encoded segments of exactly ``_size`` tuples each.
        self._sealed: list[bytes] = []
        self._tail = BlockBuffer()
        #: Index in ``_tail`` of the last stable tuple; -1 when the tail has
        #: none (then the last stable tuple, if any, ends the last segment).
        self._last_stable = -1
        #: Tentative tuples currently in the ledger.
        self.tentative = 0

    # ------------------------------------------------------------------ mutation
    def append(self, item: StreamTuple) -> None:
        self.extend((item,))

    def extend(self, rows: Iterable[StreamTuple]) -> None:
        """Append a run of data tuples (one block; no row object is built)."""
        block = TupleBlock.of(rows)
        tail = self._tail
        tail.extend(block)
        self.tentative += block.codes.count(TENTATIVE)
        last_stable = block.codes.rfind(STABLE)
        if last_stable >= 0:
            # Through its last stable tuple the tail is immutable: seal every
            # full segment of that prefix.
            immutable = len(tail) - (len(block) - 1 - last_stable)
            for _ in range(immutable // self._size):
                self._sealed.append(encode_tuples(tail[: self._size]))
                del tail[: self._size]
            self._last_stable = immutable % self._size - 1

    def drop_tentative_suffix(self) -> None:
        """Apply an UNDO: revoke every tuple after the last stable one.

        Sealing stops at a stable tuple, so the revoked suffix always lies in
        the open tail -- also when the last stable tuple is already sealed
        (the whole tail goes) and when there is none (the ledger empties).
        """
        keep = self._last_stable + 1
        self.tentative -= self._tail.codes.count(TENTATIVE, keep)
        del self._tail[keep:]

    def clear(self) -> None:
        self._sealed.clear()
        self._tail.clear()
        self._last_stable = -1
        self.tentative = 0

    # ------------------------------------------------------------------ reading
    def __len__(self) -> int:
        return len(self._sealed) * self._size + len(self._tail)

    def __iter__(self) -> Iterator[StreamTuple]:
        for segment in self._sealed:
            yield from decode_tuples(segment)
        yield from self._tail

    def __getitem__(self, index):
        size, sealed = self._size, self._sealed
        if not isinstance(index, slice):
            if index < 0:
                index += len(self)
            if not 0 <= index < len(self):
                raise IndexError("ledger index out of range")
            segment, offset = divmod(index, size)
            if segment < len(sealed):
                return decode_tuples(sealed[segment])[offset]
            return self._tail[index - len(sealed) * size]
        picks = range(*index.indices(len(self)))
        if not picks:
            return []
        low, high = sorted((picks[0], picks[-1]))
        first = min(low // size, len(sealed))
        window: list[StreamTuple] = []
        for segment in sealed[first : high // size + 1]:
            window += decode_tuples(segment)
        if high >= len(sealed) * size:
            window += self._tail
        base = first * size
        return [window[pick - base] for pick in picks]

    def stable_values(self, attribute: str) -> list:
        """``attribute`` of every stable tuple in order (``None`` where absent),
        read from the payload columns of each segment and of the tail."""
        values: list = []
        for block in chain(map(decode_tuples, self._sealed), (self._tail,)):  # one at a time
            values += compress(block.column(attribute), map(STABLE.__eq__, block.codes))
        return values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    # ------------------------------------------------------------------ export
    def segments(self) -> list[bytes]:
        """The whole ledger encoded: the sealed segments verbatim, then the tail."""
        if not self._tail:
            return list(self._sealed)
        return [*self._sealed, encode_tuples(self._tail)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TupleLedger {len(self)} tuples: {len(self._sealed)} sealed segments "
            f"+ {len(self._tail)} open>"
        )
