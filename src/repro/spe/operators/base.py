"""Operator base class.

Every Borealis operator in this reproduction follows the contract DPC needs
(Section 3, "Query diagram extensions"):

* **Determinism** -- outputs depend only on the sequence of input tuples, never
  on arrival times; output ``stime`` values are computed from input stimes.
* **Tentative labelling** -- an output tuple is tentative whenever any input
  tuple that contributed to it was tentative.
* **Boundary processing** -- operators consume BOUNDARY tuples, advance their
  stable watermark (the minimum boundary stime across input ports), emit any
  results that the watermark closes, and forward their own boundary.
* **Checkpoint / restore** -- operators can snapshot their mutable state and
  later reinitialize from the snapshot (used by checkpoint/redo
  reconciliation).
* **Undo** -- when per-operator granularity is enabled (Section 8.2), an
  operator receiving an UNDO tuple restores its own last checkpoint and
  forwards the undo.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from ...errors import OperatorError
from ..checkpoint import OperatorCheckpoint
from ..schema import ANY_SCHEMA, Schema
from ..streams import StreamWriter
from ..payload import CONTROL_PAYLOAD, merged_runs
from ..tuples import BOUNDARY, REC_DONE, TENTATIVE, UNDO, StreamTuple, TupleBlock

_BOUNDARY_CODE = bytes((BOUNDARY,))
_NEG_INF = float("-inf")


class Operator:
    """Base class for all operators.

    Parameters
    ----------
    name:
        Unique name within a query diagram.
    arity:
        Number of input ports.
    output_schema:
        Schema of the output stream (informational; validation is optional).
    """

    def __init__(self, name: str, arity: int = 1, output_schema: Schema = ANY_SCHEMA) -> None:
        if arity < 1:
            raise OperatorError(f"operator {name!r} must have at least one input port")
        self.name = name
        self.arity = arity
        self.output_schema = output_schema
        self.writer = StreamWriter(stream_name=f"{name}.out")
        #: Last boundary stime seen on each input port (the b_i of Section 4.2.1).
        self._port_boundaries: list[float] = [float("-inf")] * arity
        #: Watermark already propagated downstream as our own boundary.
        self._emitted_watermark: float = float("-inf")
        #: Checkpoint taken by :meth:`checkpoint` (used for per-operator undo).
        self._own_checkpoint: OperatorCheckpoint | None = None
        #: True while inputs seen since the last stable watermark were tentative.
        self._seen_tentative_input = False

    # ------------------------------------------------------------------ plumbing
    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.arity:
            raise OperatorError(
                f"operator {self.name!r} has {self.arity} ports; got port {port}"
            )

    @property
    def watermark(self) -> float:
        """Minimum boundary stime across all input ports (Equation 1)."""
        return min(self._port_boundaries)

    # ------------------------------------------------------------------ live rewiring
    def add_port(self) -> int:
        """Grow the operator by one input port; returns the new port index.

        Elastic deployments widen a fan-in operator when a shard fragment is
        attached to a running dataflow.  The fresh port starts with no
        boundary seen, so the watermark holds until the new input produces
        its first punctuation -- exactly the startup behaviour of a port that
        existed from the beginning.
        """
        port = self.arity
        self.arity += 1
        self._port_boundaries.append(float("-inf"))
        return port

    def remove_port(self, port: int) -> None:
        """Drop one input port (scale-in decommissions the fragment feeding it).

        Ports above ``port`` shift down by one; the watermark recomputes over
        the survivors, so a retired port that was holding the minimum back no
        longer gates emission.
        """
        self._check_port(port)
        if self.arity <= 1:
            raise OperatorError(
                f"operator {self.name!r} cannot drop its only input port"
            )
        del self._port_boundaries[port]
        self.arity -= 1

    # ------------------------------------------------------------------ public API
    def process(self, port: int, item: StreamTuple) -> TupleBlock:
        """Process one input tuple: a row is a block of one."""
        return self.process_batch(port, (item,))

    def process_batch(self, port: int, items: Iterable[StreamTuple]) -> TupleBlock:
        """Process a sequence of tuples from one port; the outputs as one block."""
        return TupleBlock.concat(self.process_runs(port, TupleBlock.of(items).segments()))

    def process_runs(self, port: int, runs: Iterable[TupleBlock]) -> list[TupleBlock]:
        """Process the segments of one batch (see :meth:`TupleBlock.segments`); returns segments.

        The engine's entry point into every operator.  Each data run goes to
        :meth:`_process_segment` together with the BOUNDARY that closes it,
        each other control row to its handler, so whatever state a control
        tuple changes is re-read before the next data row is touched.  What
        comes back is again a list of segments: nothing is concatenated or
        split again between two operators.
        """
        if not 0 <= port < self.arity:
            self._check_port(port)
        out: list[TupleBlock] = []
        for run in runs:
            code = run.codes[0]
            if code < BOUNDARY:
                out += self._process_segment(port, run)
            elif code == BOUNDARY:
                self._accept_boundary(port, run.stimes[0], out)
            elif code == UNDO:
                out += self.handle_undo(port, run)
            elif code == REC_DONE:
                out += self.handle_rec_done(port, run)
            else:
                raise OperatorError(
                    f"operator {self.name!r} cannot process {run[0].tuple_type}"
                )
        return out

    def _process_segment(self, port: int, segment: TupleBlock) -> list[TupleBlock]:
        """A data run, possibly followed by its BOUNDARY: the run, then the boundary.

        Pass-through operators override this to forward the run and its
        boundary as one relabeled block.
        """
        codes = segment.codes
        if TENTATIVE in codes:
            self._seen_tentative_input = True
        if codes[-1] != BOUNDARY:
            return self._process_run(port, segment)
        out = self._process_run(port, segment[:-1])
        self._accept_boundary(port, segment.stimes[-1], out)
        return out

    # ------------------------------------------------------------------ boundaries
    def _accept_boundary(self, port: int, stime: float, out: list[TupleBlock]) -> None:
        """Take a boundary at ``stime`` on ``port``; append what it releases to ``out``."""
        boundaries = self._port_boundaries
        previous = boundaries[0] if self.arity == 1 else min(boundaries)
        if stime > boundaries[port]:
            boundaries[port] = stime
        new_watermark = boundaries[0] if self.arity == 1 else min(boundaries)
        if new_watermark > previous:
            out += self._on_watermark(previous, new_watermark)
        bound = self._boundary_to_emit(new_watermark)
        if bound > self._emitted_watermark and bound > _NEG_INF:
            self._emitted_watermark = bound
            self._emit_boundary(bound, out)

    def _emit_boundary(self, stime: float, out: list[TupleBlock]) -> None:
        """Append this operator's boundary to ``out``: to its last run when that run is ours.

        A run this operator just numbered (ids ``range(a, next_id)``) gets the
        boundary as its last row, id ``next_id`` -- the block a separate
        control row would have been concatenated into -- so the run and its
        boundary travel on as one segment.
        """
        writer = self.writer
        last = out[-1] if out else None
        if last is not None:
            ids, codes = last.ids, last.codes
            if (
                ids.__class__ is range
                and ids.stop == writer.next_id
                and ids.step == 1
                and codes
                and codes[0] < BOUNDARY
                and codes[-1] < BOUNDARY
                and last.undo_from_ids is None
                and last.stable_seqs is None
            ):
                writer.advance_boundary(stime)
                writer.next_id += 1
                out[-1] = TupleBlock(
                    codes + _BOUNDARY_CODE,
                    range(ids.start, ids.stop + 1),
                    [*last.stimes, stime],
                    merged_runs(last.payload + CONTROL_PAYLOAD),
                )
                return
        out.append(writer.control(BOUNDARY, stime))

    def _on_watermark(self, previous: float, current: float) -> list[TupleBlock]:
        """Hook for windowed operators: emit (as segments) what the new watermark closes."""
        return []

    def _boundary_to_emit(self, watermark: float) -> float:
        """Hook: the boundary stime to forward for ``watermark``.

        Operators that can withhold data the watermark already covers (an
        SUnion holding buckets during failure handling) override this to cap
        the promise they make downstream.
        """
        return watermark

    def _forwards_boundary(self, stime: float) -> bool:
        """Whether a one-port operator forwards a boundary at ``stime`` as it is."""
        return self.arity == 1 and stime > self._port_boundaries[0] and stime > self._emitted_watermark

    # ------------------------------------------------------------------ undo / rec_done
    def handle_undo(self, port: int, undo: TupleBlock) -> list[TupleBlock]:
        """Per-operator undo: restore own checkpoint and forward the undo.

        The undo forwarded downstream revokes everything this operator emitted
        after its checkpointed position.
        """
        if self._own_checkpoint is not None:
            self.restore(self._own_checkpoint)
        return [self.writer.control(UNDO, undo.stimes[0], self.writer.next_id - 1)]

    def handle_rec_done(self, port: int, rec_done: TupleBlock) -> list[TupleBlock]:
        """Forward the end-of-reconciliation marker."""
        self._seen_tentative_input = False
        return [self.writer.control(REC_DONE, rec_done.stimes[0])]

    # ------------------------------------------------------------------ data processing
    def _process_run(self, port: int, run: TupleBlock) -> list[TupleBlock]:
        """Process one run of data rows (no control rows); returns output runs.

        Every operator implements this once, on the run's columns.
        """
        raise NotImplementedError(f"{type(self).__name__} {self.name!r} does not process data runs")

    def _emit(self, stime: float, values: Mapping[str, Any], tentative: bool) -> StreamTuple:
        """Create an output data tuple with the correct stability label; ``values`` is copied."""
        if tentative:
            return self.writer.tentative(stime, values)
        return self.writer.insertion(stime, values)

    # ------------------------------------------------------------------ checkpointing
    def checkpoint_state(self) -> dict:
        """All mutable state of this operator, as plain data.

        Side-effect free, unlike :meth:`checkpoint`: it does not install a
        per-operator undo point, so periodic recovery capture (the
        ``repro.statexfer`` layer) can read state without perturbing the
        reconciliation machinery.
        """
        return {
            "writer": self.writer.snapshot(),
            "port_boundaries": list(self._port_boundaries),
            "emitted_watermark": self._emitted_watermark,
            "seen_tentative_input": self._seen_tentative_input,
            "custom": self._checkpoint_state(),
        }

    def checkpoint(self) -> OperatorCheckpoint:
        """Snapshot all mutable state of this operator."""
        snapshot = OperatorCheckpoint.capture(self.name, self.checkpoint_state())
        self._own_checkpoint = snapshot
        return snapshot

    def restore(self, snapshot: OperatorCheckpoint) -> None:
        """Reinitialize this operator from ``snapshot``."""
        if snapshot.operator_name != self.name:
            raise OperatorError(
                f"checkpoint for {snapshot.operator_name!r} applied to {self.name!r}"
            )
        state = snapshot.state_copy()
        self.writer.restore(state["writer"])
        self._port_boundaries = list(state["port_boundaries"])
        self._emitted_watermark = float(state["emitted_watermark"])
        self._seen_tentative_input = bool(state["seen_tentative_input"])
        self._restore_state(state["custom"])

    def _checkpoint_state(self) -> dict:
        """Operator-specific mutable state; override in stateful operators."""
        return {}

    def _restore_state(self, state: Mapping[str, Any]) -> None:
        """Restore operator-specific state; override in stateful operators."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} arity={self.arity}>"


class StatelessOperator(Operator):
    """Convenience base for single-input operators with no window state."""

    def __init__(self, name: str, output_schema: Schema = ANY_SCHEMA) -> None:
        super().__init__(name, arity=1, output_schema=output_schema)


def chain_process(operators: Sequence[Operator], items: Iterable[StreamTuple]) -> list[StreamTuple]:
    """Push ``items`` through a linear chain of single-input operators.

    Utility used by tests and by simple examples; the full engine lives in
    :mod:`repro.spe.engine`.
    """
    for op in operators:
        items = op.process_batch(0, items)
    return list(items)
