"""Combined metrics collection used by client applications and experiments."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..spe.tuples import BOUNDARY, StreamTuple, TupleBlock
from .arrivals import RowView
from .consistency import ConsistencyTracker
from .latency import LatencyTracker


@dataclass(slots=True)
class TraceEntry:
    """One row of the client trace (what Figure 11 plots).

    Built on demand by iterating :attr:`MetricsCollector.trace`; the collector
    stores packed columns, not entries.
    """

    time: float
    stime: float
    tuple_type: str
    sequence: object


@dataclass
class MetricsCollector:
    """Per-output-stream metrics: latency, consistency, and a full trace."""

    stream: str
    sequence_attribute: str = "seq"
    latency: LatencyTracker = field(default_factory=LatencyTracker)
    consistency: ConsistencyTracker = field(default_factory=ConsistencyTracker)

    def observe(self, item: StreamTuple, now: float) -> bool:
        """Record one received tuple; returns whether it was new output."""
        return self.observe_block(TupleBlock.of((item,)), now) > 0

    def observe_block(self, block: TupleBlock, now: float) -> int:
        """Record a block that arrived at ``now``; returns how many tuples were new output."""
        new = 0
        attribute = self.sequence_attribute
        for run in block.runs():
            self.consistency.observe_run(run)
            if run.codes[0] < BOUNDARY:
                sequences = run.column(attribute)
                new += self.latency.observe_run(now, run.stimes, run.codes, sequences)
            else:
                self.latency.arrivals.extend(now, run.stimes, run.codes, (False,), [0])
        return new

    @property
    def trace(self) -> RowView:
        """Every observed tuple as a :class:`TraceEntry`, built per iteration."""
        return RowView(self.latency.arrivals, _trace_entry, data_only=False)

    # ------------------------------------------------------------------ summaries
    def summary(self) -> dict:
        return {
            "stream": self.stream,
            "proc_new": self.latency.proc_new,
            "max_gap": self.latency.max_gap,
            "new_tuples": self.latency.new_tuples,
            "total_stable": self.consistency.total_stable,
            "total_tentative": self.consistency.total_tentative,
            "total_undos": self.consistency.total_undos,
            "total_rec_done": self.consistency.total_rec_done,
        }


def _trace_entry(time: float, stime: float, tuple_type: str, _is_new: bool, sequence) -> TraceEntry:
    return TraceEntry(time, stime, tuple_type, sequence)
