"""Join operator: joins tuples from two streams within a time window.

Two tuples join when their stimes differ by at most ``window`` and the
optional value predicate accepts them.  The output tuple carries the union of
both sides' attributes (prefixed to avoid clashes) and an ``stime`` equal to
the larger of the two input stimes, which keeps the output deterministic given
the input sequences.

Like the paper's Join, this operator *blocks* in the sense that it only emits
matches -- if one input stream is missing entirely it simply produces nothing
for it.  A Join fed tentative tuples produces tentative tuples.

Buffered state is pruned using the stable watermark: once boundaries on both
inputs pass ``stime + window``, a buffered tuple can no longer find new
partners and is discarded.  The ``state_size`` limit mirrors the "SJoin with a
100-tuple state size" used in the paper's experimental setup (Section 5.2).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ...errors import OperatorError
from ..schema import ANY_SCHEMA, Schema
from ..tuples import StreamTuple, TupleBlock
from .base import Operator

JoinPredicate = Callable[[Mapping[str, Any], Mapping[str, Any]], bool]


def _always_true(_left: Mapping[str, Any], _right: Mapping[str, Any]) -> bool:
    return True


class Join(Operator):
    """Windowed two-way stream join.

    Parameters
    ----------
    window:
        Maximum |stime difference| for two tuples to join, in stime units.
    predicate:
        Optional additional condition on the two tuples' attribute mappings.
    left_prefix / right_prefix:
        Prefixes applied to attribute names of each side in the output.
    state_size:
        Maximum number of tuples buffered per side; the oldest are evicted
        first.  ``None`` means unbounded (pruning by watermark only).
    """

    def __init__(
        self,
        name: str,
        window: float,
        predicate: JoinPredicate | None = None,
        left_prefix: str = "left_",
        right_prefix: str = "right_",
        state_size: int | None = None,
        output_schema: Schema = ANY_SCHEMA,
    ) -> None:
        super().__init__(name, arity=2, output_schema=output_schema)
        if window < 0:
            raise OperatorError(f"join window must be non-negative, got {window}")
        if state_size is not None and state_size <= 0:
            raise OperatorError(f"state_size must be positive or None, got {state_size}")
        self.window = window
        self.predicate = predicate or _always_true
        self.left_prefix = left_prefix
        self.right_prefix = right_prefix
        self.state_size = state_size
        #: Buffered tuples per port, in arrival order.
        self._buffers: list[list[StreamTuple]] = [[], []]

    # ------------------------------------------------------------------ data path
    def _process_run(self, port: int, run: TupleBlock) -> list[TupleBlock]:
        """Row by row: each row probes the other side's buffer, then joins its own."""
        own, partners = self._buffers[port], self._buffers[1 - port]
        out: list[StreamTuple] = []
        for item in run:
            for partner in partners:
                if abs(partner.stime - item.stime) > self.window:
                    continue
                left, right = (item, partner) if port == 0 else (partner, item)
                if not self.predicate(left.values, right.values):
                    continue
                values: dict[str, Any] = {}
                for key, value in left.values.items():
                    values[self.left_prefix + key] = value
                for key, value in right.values.items():
                    values[self.right_prefix + key] = value
                tentative = item.is_tentative or partner.is_tentative
                out.append(self._emit(max(left.stime, right.stime), values, tentative=tentative))
            own.append(item)
            if self.state_size is not None and len(own) > self.state_size:
                del own[0: len(own) - self.state_size]
        return TupleBlock.of(out).segments()

    def _on_watermark(self, previous: float, current: float) -> list:
        # A buffered tuple with stime + window < watermark can never match a
        # future tuple (future tuples have stime >= watermark).
        for port in (0, 1):
            self._buffers[port] = [
                t for t in self._buffers[port] if t.stime + self.window >= current
            ]
        return []

    # ------------------------------------------------------------------ checkpointing
    def _checkpoint_state(self) -> dict:
        return {"buffers": [list(buf) for buf in self._buffers]}

    def _restore_state(self, state: Mapping[str, Any]) -> None:
        buffers = state.get("buffers", [[], []])
        self._buffers = [list(buffers[0]), list(buffers[1])]

    @property
    def buffered_tuples(self) -> int:
        """Total number of tuples currently buffered on both sides."""
        return len(self._buffers[0]) + len(self._buffers[1])
