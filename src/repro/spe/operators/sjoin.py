"""SJoin: a Join driven by the serialized order prepared by a preceding SUnion.

In Borealis the Join operator is "slightly modified to always process input
tuples in the order prepared by the preceding SUnion" (Section 3).  In this
reproduction the preceding SUnion merges its input streams into one serialized
stream, so SJoin consumes a *single* serialized input and joins each incoming
tuple against the tuples it recently received -- a self-join over the merged
stream, optionally restricted by a predicate (for example on a ``source``
attribute added by the query-diagram builder to distinguish the original
streams).

This matches the stateful-operator role SJoin plays in the paper's
experiments ("an SJoin with a 100-tuple state size", Section 5.2): it gives
the node non-trivial state to checkpoint and redo.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from ...errors import OperatorError
from ..schema import ANY_SCHEMA, Schema
from ..tuples import BOUNDARY, TENTATIVE, BlockBuffer, StreamTuple, TupleBlock
from .base import Operator

SJoinPredicate = Callable[[Mapping[str, Any], Mapping[str, Any]], bool]


def _never(_old: Mapping[str, Any], _new: Mapping[str, Any]) -> bool:
    return False


class SJoin(Operator):
    """Join over a serialized stream with bounded state.

    Parameters
    ----------
    window:
        Maximum stime distance between two tuples for them to join.
    state_size:
        Maximum number of recent tuples retained as join candidates (the
        paper's experiments use 100).
    predicate:
        Condition on (older tuple attributes, newer tuple attributes).  The
        default never matches, which makes SJoin a pure pass-through with
        state -- exactly the role it plays in the availability experiments,
        where the output rate must equal the input rate.
    emit_matches:
        When False (default) SJoin forwards its input tuples and only keeps
        the join state; when True it emits one tuple per match instead.
    """

    def __init__(
        self,
        name: str,
        window: float = 1.0,
        state_size: int = 100,
        predicate: SJoinPredicate | None = None,
        emit_matches: bool = False,
        left_prefix: str = "old_",
        right_prefix: str = "new_",
        output_schema: Schema = ANY_SCHEMA,
    ) -> None:
        super().__init__(name, arity=1, output_schema=output_schema)
        if state_size <= 0:
            raise OperatorError(f"state_size must be positive, got {state_size}")
        if window < 0:
            raise OperatorError(f"window must be non-negative, got {window}")
        self.window = window
        self.state_size = state_size
        self.predicate = predicate or _never
        self.emit_matches = emit_matches
        self.left_prefix = left_prefix
        self.right_prefix = right_prefix
        #: The most recent ``state_size`` input tuples, as columns.
        self._state = BlockBuffer()

    # ------------------------------------------------------------------ data path
    def _process_segment(self, port: int, segment: TupleBlock) -> list[TupleBlock]:
        """Pass-through: a run and the boundary closing it leave as one relabeled block."""
        codes = segment.codes
        stime = segment.stimes[-1]
        if self.emit_matches or codes[-1] != BOUNDARY or not self._forwards_boundary(stime):
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
        if self.emit_matches:
            return super()._process_run(port, run)
        self._remember(run)
        return [run.relabeled(self.writer.take(len(run)))]

    def _remember(self, rows: Iterable[StreamTuple]) -> None:
        state = self._state
        state.extend(rows)
        if len(state) > self.state_size:
            del state[: len(state) - self.state_size]

    def _process_data(self, port: int, item: StreamTuple) -> list[StreamTuple]:
        """Match-emitting configuration: one output tuple per join match."""
        out: list[StreamTuple] = []
        state = self._state
        for stime, candidate, code in zip(state.stimes, state.values, state.codes):
            if abs(stime - item.stime) > self.window:
                continue
            if not self.predicate(candidate, item.values):
                continue
            values: dict[str, Any] = {}
            for key, value in candidate.items():
                values[self.left_prefix + key] = value
            for key, value in item.values.items():
                values[self.right_prefix + key] = value
            tentative = code == TENTATIVE or item.is_tentative
            out.append(self._emit(item.stime, values, tentative=tentative))
        self._remember((item,))
        return out

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
