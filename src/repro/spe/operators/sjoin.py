"""SJoin: a Join driven by the serialized order prepared by a preceding SUnion.

In Borealis the Join operator is "slightly modified to always process input
tuples in the order prepared by the preceding SUnion" (Section 3).  In this
reproduction the preceding SUnion merges its input streams into one serialized
stream, so SJoin consumes a *single* serialized input and keeps the tuples it
recently received as join state.

This is the stateful-operator role SJoin plays in the paper's experiments
("an SJoin with a 100-tuple state size", Section 5.2): its output rate equals
its input rate, and it gives the node non-trivial state to checkpoint and
redo.  Matching two streams is :class:`~repro.spe.operators.join.Join`'s job.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ...errors import OperatorError
from ..schema import ANY_SCHEMA, Schema
from ..tuples import BOUNDARY, TENTATIVE, BlockBuffer, StreamTuple, TupleBlock
from .base import Operator


class SJoin(Operator):
    """Stateful pass-through over a serialized stream: forwards every tuple.

    Parameters
    ----------
    window:
        Maximum stime distance a retained tuple may lag the watermark.
    state_size:
        Maximum number of recent tuples retained as join state (the paper's
        experiments use 100).
    """

    def __init__(
        self,
        name: str,
        window: float = 1.0,
        state_size: int = 100,
        output_schema: Schema = ANY_SCHEMA,
    ) -> None:
        super().__init__(name, arity=1, output_schema=output_schema)
        if state_size <= 0:
            raise OperatorError(f"state_size must be positive, got {state_size}")
        if window < 0:
            raise OperatorError(f"window must be non-negative, got {window}")
        self.window = window
        self.state_size = state_size
        #: The most recent ``state_size`` input tuples, as columns.
        self._state = BlockBuffer()

    # ------------------------------------------------------------------ data path
    def _process_segment(self, port: int, segment: TupleBlock) -> list[TupleBlock]:
        """Pass-through: a run and the boundary closing it leave as one relabeled block."""
        codes = segment.codes
        stime = segment.stimes[-1]
        if codes[-1] != BOUNDARY or not self._forwards_boundary(stime):
            return super()._process_segment(port, segment)
        if TENTATIVE in codes:
            self._seen_tentative_input = True
        self._remember(segment[:-1])
        previous = self._port_boundaries[0]
        self._port_boundaries[0] = stime
        self._on_watermark(previous, stime)
        self._emitted_watermark = stime
        writer = self.writer
        writer.advance_boundary(stime)
        return [segment.relabeled(writer.take(len(codes)))]

    def _process_run(self, port: int, run: TupleBlock) -> list[TupleBlock]:
        """Pass-through: relabel the run and slide the state window over it."""
        self._remember(run)
        return [run.relabeled(self.writer.take(len(run)))]

    def _remember(self, rows: Iterable[StreamTuple]) -> None:
        state = self._state
        state.extend(rows)
        if len(state) > self.state_size:
            del state[: len(state) - self.state_size]

    def _on_watermark(self, previous: float, current: float) -> list[TupleBlock]:
        state, window = self._state, self.window
        if state and min(state.stimes) + window < current:
            self._state = BlockBuffer(
                state.take([i for i, stime in enumerate(state.stimes) if stime + window >= current])
            )
        return []

    # ------------------------------------------------------------------ checkpointing
    def _checkpoint_state(self) -> dict:
        return {"state": self._state[:]}

    def _restore_state(self, state: Mapping[str, Any]) -> None:
        self._state = BlockBuffer(state.get("state", ()))

    @property
    def buffered_tuples(self) -> int:
        return len(self._state)
