"""Client-trace analysis.

A client records every tuple it receives as a
:class:`~repro.metrics.collector.TraceEntry`.  The paper presents these
traces directly (Figure 11 plots sequence number against arrival time) and
derives quantities from them (gaps in new data, tentative bursts, correction
bursts).  This module extracts those quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..metrics.collector import TraceEntry

#: Tuple types that carry data in a trace.
_DATA_TYPES = ("insertion", "tentative")


@dataclass(frozen=True)
class Episode:
    """A contiguous burst of same-type tuples in a trace."""

    kind: str
    start: float
    end: float
    count: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TraceAnalysis:
    """Everything derived from one client trace."""

    total_stable: int
    total_tentative: int
    total_rec_done: int
    tentative_episodes: Sequence[Episode]
    correction_episodes: Sequence[Episode]
    max_gap: float
    first_tentative_at: float | None
    last_correction_at: float | None

    @property
    def had_failure(self) -> bool:
        """True when the trace shows any tentative processing."""
        return self.total_tentative > 0

    @property
    def recovered(self) -> bool:
        """True when every tentative burst was followed by corrections."""
        return not self.tentative_episodes or bool(self.correction_episodes)


def tentative_episodes(trace: Sequence[TraceEntry]) -> list[Episode]:
    """Contiguous runs of tentative tuples (the failure-time output bursts)."""
    return _episodes(trace, "tentative")


def correction_episodes(trace: Sequence[TraceEntry]) -> list[Episode]:
    """Bursts of stable tuples that follow tentative ones (the correction bursts).

    A correction burst starts at the first stable tuple after tentative output
    and ends at the next REC_DONE marker (or at the last stable tuple of the
    burst when the trace has no marker).
    """
    episodes: list[Episode] = []
    seen_tentative = False
    burst_start: float | None = None
    burst_count = 0
    last_time = 0.0
    for entry in trace:
        last_time = entry.time
        if entry.tuple_type == "tentative":
            seen_tentative = True
            continue
        if entry.tuple_type == "insertion" and seen_tentative:
            if burst_start is None:
                burst_start = entry.time
            burst_count += 1
            continue
        if entry.tuple_type == "rec_done" and burst_start is not None:
            episodes.append(
                Episode(kind="correction", start=burst_start, end=entry.time, count=burst_count)
            )
            burst_start = None
            burst_count = 0
            seen_tentative = False
    if burst_start is not None and burst_count:
        episodes.append(
            Episode(kind="correction", start=burst_start, end=last_time, count=burst_count)
        )
    return episodes


def _episodes(trace: Sequence[TraceEntry], tuple_type: str) -> list[Episode]:
    episodes: list[Episode] = []
    start: float | None = None
    end = 0.0
    count = 0
    for entry in trace:
        if entry.tuple_type == tuple_type:
            if start is None:
                start = entry.time
            end = entry.time
            count += 1
        elif entry.tuple_type in _DATA_TYPES and start is not None:
            episodes.append(Episode(kind=tuple_type, start=start, end=end, count=count))
            start, count = None, 0
    if start is not None:
        episodes.append(Episode(kind=tuple_type, start=start, end=end, count=count))
    return episodes


def output_gaps(trace: Sequence[TraceEntry], threshold: float = 0.0) -> list[tuple[float, float]]:
    """(start, end) pairs of silences between *new* data tuples longer than ``threshold``.

    New data tuples are those whose stime exceeds every previously seen stime,
    matching the paper's NewOutput definition; corrections therefore do not
    close a gap.
    """
    gaps: list[tuple[float, float]] = []
    last_new_arrival: float | None = None
    max_stime = float("-inf")
    for entry in trace:
        if entry.tuple_type not in _DATA_TYPES:
            continue
        if entry.stime <= max_stime:
            continue
        max_stime = entry.stime
        if last_new_arrival is not None and entry.time - last_new_arrival > threshold:
            gaps.append((last_new_arrival, entry.time))
        last_new_arrival = entry.time
    return gaps


def analyze_trace(trace: Sequence[TraceEntry]) -> TraceAnalysis:
    """Summarize one client trace."""
    stable = sum(1 for entry in trace if entry.tuple_type == "insertion")
    tentative = sum(1 for entry in trace if entry.tuple_type == "tentative")
    rec_done = sum(1 for entry in trace if entry.tuple_type == "rec_done")
    tentative_eps = tentative_episodes(trace)
    correction_eps = correction_episodes(trace)
    gaps = output_gaps(trace)
    max_gap = max((end - start for start, end in gaps), default=0.0)
    first_tentative = tentative_eps[0].start if tentative_eps else None
    last_correction = correction_eps[-1].end if correction_eps else None
    return TraceAnalysis(
        total_stable=stable,
        total_tentative=tentative,
        total_rec_done=rec_done,
        tentative_episodes=tuple(tentative_eps),
        correction_episodes=tuple(correction_eps),
        max_gap=max_gap,
        first_tentative_at=first_tentative,
        last_correction_at=last_correction,
    )
