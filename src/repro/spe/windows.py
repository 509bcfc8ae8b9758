"""Window specifications for Aggregate and Join operators.

Borealis windows are defined over the serialization attribute (``stime`` in
this reproduction, or any integer attribute the application chooses).  To
keep operators deterministic -- a requirement of DPC (Section 2.1) -- windows
are aligned independently of the first tuple processed: window boundaries are
multiples of ``slide`` starting at ``origin`` (default 0), which corresponds
to Borealis' *independent-window-alignment* flag.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Sequence

from ..errors import ConfigurationError

#: Upper bound on panes per window for a usable pane decomposition.  Window
#: specs whose size/slide ratio is pathological once expressed exactly (e.g.
#: ``(0.3, 0.1)``: both are *inexact* binary floats whose true gcd is ~2**-55,
#: giving astronomically many panes) are refused with a ``ConfigurationError``.
MAX_PANES_PER_WINDOW = 4096


@dataclass(frozen=True)
class PaneAssignment:
    """Decomposition of a window spec into equal, non-overlapping slices.

    A *pane* is the gcd-sized slice shared by all overlapping windows (the
    classic paired-window / panes construction): pane ``p`` spans
    ``[origin + p*size, origin + (p+1)*size)`` and window ``k`` is exactly the
    concatenation of panes ``k*per_slide .. k*per_slide + per_window - 1``.
    Every tuple lands in exactly one pane, so an aggregate maintains one
    mergeable partial per (pane, group) instead of one raw-value buffer per
    (window, group).
    """

    #: Pane width: ``gcd(size, slide)``, exactly representable as a float.
    size: float
    #: Panes per slide: ``slide / size`` of the pane (an exact integer).
    per_slide: int
    #: Panes per window: ``window size / pane size`` (an exact integer).
    per_window: int


def _pane_assignment(size: float, slide: float) -> PaneAssignment | None:
    """The exact pane decomposition of ``(size, slide)``, or None.

    Every float is a dyadic rational, so ``Fraction`` arithmetic computes the
    *exact* gcd of the two spans.  The decomposition is only usable when the
    gcd round-trips through a float unchanged (its numerator never exceeds
    the smaller operand's 53-bit significand, so in practice it always does)
    and the pane count per window stays below :data:`MAX_PANES_PER_WINDOW`.
    """
    try:
        exact_size, exact_slide = Fraction(size), Fraction(slide)
    except (ValueError, OverflowError):  # nan / inf window spans
        return None
    gcd = Fraction(
        math.gcd(
            exact_size.numerator * exact_slide.denominator,
            exact_slide.numerator * exact_size.denominator,
        ),
        exact_size.denominator * exact_slide.denominator,
    )
    per_window = exact_size / gcd
    per_slide = exact_slide / gcd
    if per_window > MAX_PANES_PER_WINDOW:
        return None
    pane_size = float(gcd)
    if Fraction(pane_size) != gcd:
        return None
    return PaneAssignment(size=pane_size, per_slide=int(per_slide), per_window=int(per_window))


@dataclass(frozen=True)
class WindowSpec:
    """A sliding (or tumbling) window over the serialization attribute.

    Attributes
    ----------
    size:
        Width of the window in stime units.
    slide:
        Distance between consecutive window starts.  ``slide == size`` gives
        tumbling windows; ``slide < size`` gives overlapping sliding windows.
    origin:
        Alignment origin; window starts are ``origin + k * slide``.

    The derived attribute ``pane`` holds the :class:`PaneAssignment` slicing
    the spec into gcd-sized panes; it is computed once at construction and is
    not a dataclass field, so equality and hashing still compare only the
    three spec values.  A spec with no float-exact decomposition raises
    ``ConfigurationError``.
    """

    size: float
    slide: float | None = None
    origin: float = 0.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError(f"window size must be positive, got {self.size}")
        slide = self.slide if self.slide is not None else self.size
        if slide <= 0:
            raise ConfigurationError(f"window slide must be positive, got {slide}")
        object.__setattr__(self, "slide", slide)
        pane = _pane_assignment(self.size, slide)
        if pane is None:
            raise ConfigurationError(
                f"window (size={self.size}, slide={slide}) has no exact pane "
                f"decomposition within {MAX_PANES_PER_WINDOW} panes per window"
            )
        # Derived (not a dataclass field): the pane decomposition.
        object.__setattr__(self, "pane", pane)

    @classmethod
    def tumbling(cls, size: float, origin: float = 0.0) -> "WindowSpec":
        """A non-overlapping window of width ``size``."""
        return cls(size=size, slide=size, origin=origin)

    @classmethod
    def sliding(cls, size: float, slide: float, origin: float = 0.0) -> "WindowSpec":
        """A window of width ``size`` advancing by ``slide``."""
        return cls(size=size, slide=slide, origin=origin)

    # ------------------------------------------------------------------ queries
    def window_indices(self, stime: float) -> range:
        """All window indices whose span contains ``stime``."""
        return self.pane_windows(self.pane_index(stime))

    def window_start(self, index: int) -> float:
        return self.origin + index * self.slide

    def window_end(self, index: int) -> float:
        """Exclusive end of window ``index``, on the pane grid.

        ``origin + (k*a + b) * pane`` is the same real number as
        ``start + size`` but not always the same *float*; computing it on the
        pane grid makes a window close exactly at the edge of its last pane.
        """
        pane = self.pane
        return self.origin + (index * pane.per_slide + pane.per_window) * pane.size

    # ------------------------------------------------------------------ panes
    def pane_start(self, pane_index: int) -> float:
        """Inclusive start of pane ``pane_index``."""
        return self.origin + pane_index * self.pane.size

    def pane_index(self, stime: float) -> int:
        """Index of the single pane containing ``stime``.

        Half-open pane membership (``pane_start(p) <= stime < pane_start(p+1)``)
        is resolved on the float pane grid itself: the floor estimate is
        corrected in both directions, so the result is exact even when the
        division rounds across a pane edge.
        """
        pane = self.pane
        index = int(math.floor((stime - self.origin) / pane.size))
        while self.pane_start(index) > stime:
            index -= 1
        while self.pane_start(index + 1) <= stime:
            index += 1
        return index

    def pane_spans(self, stimes: Sequence[float]) -> list[tuple[int, int, int]]:
        """``(pane, start, stop)`` runs of consecutive rows sharing one pane.

        The run-length encoding of ``[pane_index(t) for t in stimes]``: one
        exact :meth:`pane_index` for the first row, then ``min`` / ``max``
        against that pane's two edges on the same float grid file the whole
        run in one span (a 0.1 s SUnion bucket inside a 1 s pane).  Only a
        run that crosses a pane edge, or arrives unsorted, is scanned row by
        row, with one :meth:`pane_index` per change of pane.
        """
        if not stimes:
            return []
        pane_start = self.pane_start
        pane = self.pane_index(stimes[0])
        low, high = pane_start(pane), pane_start(pane + 1)
        if low <= min(stimes) and max(stimes) < high:
            return [(pane, 0, len(stimes))]
        spans = []
        start = 0
        for row, stime in enumerate(stimes):
            if not low <= stime < high:
                spans.append((pane, start, row))
                pane, start = self.pane_index(stime), row
                low, high = pane_start(pane), pane_start(pane + 1)
        spans.append((pane, start, len(stimes)))
        return spans

    def window_panes(self, index: int) -> range:
        """The panes window ``index`` is the concatenation of."""
        pane = self.pane
        first = index * pane.per_slide
        return range(first, first + pane.per_window)

    def pane_windows(self, pane_index: int) -> range:
        """All window indices containing pane ``pane_index`` (integer math)."""
        pane = self.pane
        first = -((pane.per_window - 1 - pane_index) // pane.per_slide)
        return range(first, pane_index // pane.per_slide + 1)

    def contains(self, index: int, stime: float) -> bool:
        """True when window ``index`` covers ``stime`` (inclusive start, exclusive end)."""
        return self.window_start(index) <= stime < self.window_end(index)

    def windows_closed_by(self, previous_watermark: float, watermark: float) -> range:
        """Window indices whose end falls in ``(previous_watermark, watermark]``.

        Operators call this when the stable watermark (the minimum boundary
        stime across inputs) advances: those windows will receive no further
        tuples and their results can be emitted.
        """
        if watermark <= previous_watermark:
            return range(0)
        if math.isinf(previous_watermark):
            # No earlier watermark: consider windows from the origin onwards.
            previous_watermark = self.origin
            if watermark <= previous_watermark:
                return range(0)
        first = int(math.ceil((previous_watermark - self.origin - self.size) / self.slide))
        last = int(math.floor((watermark - self.origin - self.size) / self.slide))
        # Guard against float error: ensure listed windows really are closed.
        while first <= last and self.window_end(first) <= previous_watermark:
            first += 1
        while first <= last and self.window_end(last) > watermark:
            last -= 1
        return range(first, last + 1)

    def live_windows_closed(
        self, live_panes: AbstractSet[int], after: float, through: float
    ) -> list[int]:
        """Windows holding a pane of ``live_panes`` whose end falls in ``(after, through]``.

        ``window_end`` is non-decreasing in the index, so the windows spanned
        by the live panes that end in the interval are one index range, found
        by bisecting both of its ends.
        """
        candidates = range(
            self.pane_windows(min(live_panes)).start, self.pane_windows(max(live_panes)).stop
        )
        first = bisect_right(candidates, after, key=self.window_end)
        last = bisect_right(candidates, through, key=self.window_end)
        window_panes = self.window_panes
        return [
            index
            for index in candidates[first:last]
            if any(pane in live_panes for pane in window_panes(index))
        ]

    def is_closed(self, index: int, watermark: float) -> bool:
        """True once the watermark passes the end of window ``index``."""
        return watermark >= self.window_end(index)
