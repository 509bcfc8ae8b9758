"""Availability metrics: processing latency of *new* output tuples.

The paper measures availability as the maximum *incremental* processing
latency ``Delay_new`` of new output tuples, excluding stable tuples that
merely correct earlier tentative ones (Section 2.3.1).  Because the
experiments have a single output stream, the paper reports ``Proc_new`` =
``Delay_new`` + normal processing latency, i.e. the end-to-end latency of new
tuples; this module computes both given a recorded output trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, compress
from operator import gt
from typing import Any, Iterable, Sequence

from ..spe.tuples import CODE_BY_TYPE
from .arrivals import ArrivalLog, RowView


@dataclass(slots=True)
class OutputRecord:
    """One data tuple observed by a client: when it arrived and what it was.

    Built on demand by iterating :attr:`LatencyTracker.records`; the tracker
    stores packed columns, not records.
    """

    arrival_time: float
    stime: float
    tuple_type: str
    is_new: bool
    latency: float


@dataclass
class LatencyTracker:
    """Incrementally tracks Proc_new over a stream of output records.

    A tuple is *new output* when its ``stime`` is larger than the stime of
    every tuple received before it: corrections of earlier tentative results
    re-cover old stimes and therefore do not count (the paper's
    ``NewOutput`` set).
    """

    max_stime_seen: float = float("-inf")
    max_latency: float = 0.0
    max_gap: float = 0.0
    _last_new_arrival: float | None = None
    new_tuples: int = 0
    #: One row per observed tuple (the collector also logs non-data arrivals
    #: here, which :attr:`records` skips).
    arrivals: ArrivalLog = field(default_factory=ArrivalLog)

    def observe(
        self, arrival_time: float, stime: float, tuple_type: str, sequence: Any = 0
    ) -> bool:
        """Record one received data tuple; returns whether it was new output."""
        code = bytes((CODE_BY_TYPE[tuple_type],))
        return self.observe_run(arrival_time, (stime,), code, [sequence]) > 0

    def observe_run(
        self, arrival_time: float, stimes: Sequence[float], codes: bytes, sequences: list
    ) -> int:
        """Record a run of data tuples that arrived together; returns how many were new."""
        seen = list(accumulate(stimes, max, initial=self.max_stime_seen))
        new = list(map(gt, stimes, seen))
        count = sum(new)
        if count:
            self.max_stime_seen = seen[-1]
            self.new_tuples += count
            # The oldest new stime of the run has the largest latency.
            self.max_latency = max(self.max_latency, arrival_time - min(compress(stimes, new)))
            if self._last_new_arrival is not None:
                self.max_gap = max(self.max_gap, arrival_time - self._last_new_arrival)
            self._last_new_arrival = arrival_time
        self.arrivals.extend(arrival_time, stimes, codes, new, sequences)
        return count

    # ------------------------------------------------------------------ summaries
    @property
    def records(self) -> RowView:
        """The observed data tuples as :class:`OutputRecord` entries, built per iteration."""
        return RowView(self.arrivals, _record, data_only=True)

    @property
    def proc_new(self) -> float:
        """Maximum end-to-end latency of any new output tuple (Proc_new)."""
        return self.max_latency

    def delay_new(self, normal_latency: float) -> float:
        """Incremental latency Delay_new given the failure-free latency."""
        return max(self.max_latency - normal_latency, 0.0)

    def latencies(self, new_only: bool = True) -> list[float]:
        return self.arrivals.latencies(new_only)

    def average_latency(self, new_only: bool = True) -> float:
        values = self.latencies(new_only)
        return sum(values) / len(values) if values else 0.0


def _record(time: float, stime: float, tuple_type: str, is_new: bool, _sequence) -> OutputRecord:
    return OutputRecord(time, stime, tuple_type, is_new, time - stime)


def proc_new(records: Iterable[OutputRecord]) -> float:
    """Proc_new of an already-recorded trace."""
    return max((r.latency for r in records if r.is_new), default=0.0)


@dataclass(frozen=True)
class LatencySummary:
    """Min / max / average / standard deviation of per-tuple latencies.

    This is the summary reported by the serialization-overhead experiments
    (Tables IV and V of the paper).
    """

    count: int
    minimum: float
    maximum: float
    average: float
    stddev: float

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "LatencySummary":
        data = list(values)
        if not data:
            return cls(count=0, minimum=0.0, maximum=0.0, average=0.0, stddev=0.0)
        mean = sum(data) / len(data)
        variance = sum((v - mean) ** 2 for v in data) / len(data)
        return cls(
            count=len(data),
            minimum=min(data),
            maximum=max(data),
            average=mean,
            stddev=variance ** 0.5,
        )

    def scaled(self, factor: float) -> "LatencySummary":
        """Return the same summary with every statistic multiplied by ``factor``."""
        return LatencySummary(
            count=self.count,
            minimum=self.minimum * factor,
            maximum=self.maximum * factor,
            average=self.average * factor,
            stddev=self.stddev * factor,
        )
