"""Local execution engine for a query-diagram fragment.

The engine pushes tuples through the fragment in a run-to-completion manner:
every batch injected on an external input stream is fully propagated through
the operator graph before control returns.  This mirrors the role of the
"Query Processor" box in Figure 4 of the paper while staying deterministic,
which is what DPC requires of each node.

The engine also implements the fragment-level checkpoint/restore used by
checkpoint/redo reconciliation (Section 4.4.1): :meth:`LocalEngine.checkpoint`
suspends nothing (the engine is single-threaded by construction) and copies
the state of every operator; :meth:`LocalEngine.restore` reinitializes every
operator from the snapshot -- except ``SOutput`` operators, whose duplicate
suppression and output-stream identity must survive the rollback.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping

from ..errors import CheckpointError, DiagramError
from .checkpoint import DiagramCheckpoint
from .operators.base import Operator
from .operators.soutput import SOutput
from .query_diagram import QueryDiagram
from .tuples import BOUNDARY, EMPTY_BLOCK, StreamTuple, TupleBlock


class LocalEngine:
    """Executes one query-diagram fragment on a single node."""

    def __init__(self, diagram: QueryDiagram) -> None:
        diagram.validate()
        self.diagram = diagram
        #: Number of data tuples processed since construction (drives the redo
        #: cost model used by the simulator).
        self.tuples_processed = 0
        # Routing tables precomputed once: the diagram is immutable after
        # validation, and resolving operators / connections per work item
        # would otherwise dominate the drain loop.
        self._operators = dict(diagram.operators)
        self._output_of = {o.operator: o.stream for o in diagram.outputs}
        self._downstream = {
            name: [(c.target, c.port) for c in diagram.downstream_of(name)]
            for name in diagram.operators
        }
        self._output_streams = diagram.output_streams
        self._soutputs: tuple[SOutput, ...] = tuple(
            self._operators[name]
            for name in diagram.topological_order()
            if isinstance(self._operators[name], SOutput)
        )

    # ------------------------------------------------------------------ execution
    def push(self, input_stream: str, tuples: Iterable[StreamTuple]) -> dict[str, TupleBlock]:
        """Push ``tuples`` arriving on ``input_stream`` through the fragment.

        Returns a mapping of external output stream name to the block of
        tuples produced on it by this batch.
        """
        bindings = self.entry_operators(input_stream)
        if not bindings:
            raise DiagramError(
                f"fragment {self.diagram.name!r} has no input stream {input_stream!r}"
            )
        segments = TupleBlock.of(tuples).segments()
        return self._drain(deque([(operator, port, segments) for operator, port in bindings]), {})

    def push_operator(self, operator_name: str, port: int, tuples: Iterable[StreamTuple]) -> dict[str, TupleBlock]:
        """Push a batch directly into an operator (used by the node's input SUnions)."""
        return self._drain(deque([(operator_name, port, TupleBlock.of(tuples).segments())]), {})

    def push_operator_outputs(
        self, operator_name: str, produced: Iterable[StreamTuple]
    ) -> dict[str, TupleBlock]:
        """Route tuples already produced by ``operator_name`` to its consumers.

        Used when the processing node forces an SUnion to emit buffered
        buckets tentatively: the forced tuples did not flow through
        :meth:`push`, so this method injects them into the downstream
        connections (and output bindings) of the producing operator.
        """
        segments = TupleBlock.of(produced).segments()
        outputs: dict[str, list] = {}
        work: deque = deque()
        if segments:
            stream = self._output_of.get(operator_name)
            if stream is not None:
                outputs[stream] = segments
            for target, port in self._downstream[operator_name]:
                work.append((target, port, segments))
        return self._drain(work, outputs)

    def _drain(self, work: deque, outputs: dict) -> dict[str, TupleBlock]:
        # Block-at-a-time execution: a work item carries the segments of one
        # batch (data runs with their closing boundary, and one-row control
        # blocks, see TupleBlock.segments), which the operator consumes
        # run-to-completion before its output segments are forwarded, as they
        # are, to every downstream connection.  What leaves the fragment is
        # concatenated only when an output stream received several segments.
        operators, output_of, downstream = self._operators, self._output_of, self._downstream
        processed = 0
        while work:
            operator_name, port, runs = work.popleft()
            if not runs:
                continue
            for run in runs:
                codes = run.codes
                if codes[0] < BOUNDARY:
                    processed += len(codes) - (codes[-1] == BOUNDARY)
            produced = operators[operator_name].process_runs(port, runs)
            if produced:
                stream = output_of.get(operator_name)
                if stream is not None:
                    # A new list: ``produced`` is shared with the work items below.
                    outputs[stream] = outputs[stream] + produced if stream in outputs else produced
                for target, target_port in downstream[operator_name]:
                    work.append((target, target_port, produced))
        self.tuples_processed += processed
        result = {}
        for stream in self._output_streams:
            runs = outputs.get(stream)
            if not runs:
                result[stream] = EMPTY_BLOCK
            elif runs[1:]:
                result[stream] = TupleBlock.concat(runs)
            else:
                result[stream] = runs[0]
        return result

    # ------------------------------------------------------------------ checkpoint / restore
    def checkpoint(self, created_at: float = 0.0) -> DiagramCheckpoint:
        """Snapshot the state of every operator in the fragment."""
        return DiagramCheckpoint.capture(
            created_at=created_at,
            operators={name: op.checkpoint() for name, op in self.diagram.operators.items()},
        )

    def restore(self, snapshot: DiagramCheckpoint) -> None:
        """Reinitialize every operator (except SOutputs) from ``snapshot``."""
        if not snapshot.matches(set(self.diagram.operators)):
            raise CheckpointError(
                f"checkpoint {snapshot.checkpoint_id} does not match fragment "
                f"{self.diagram.name!r}"
            )
        for name, operator in self.diagram.operators.items():
            if isinstance(operator, SOutput) or getattr(operator, "survives_restore", False):
                continue
            operator.restore(snapshot.operators[name])

    # ------------------------------------------------------------------ helpers
    def soutputs(self) -> tuple[SOutput, ...]:
        """All SOutput operators in the fragment, in topological order."""
        return self._soutputs

    def soutput_for(self, output_stream: str) -> SOutput:
        """The SOutput producing ``output_stream`` (raises if it is not an SOutput)."""
        for binding in self.diagram.outputs:
            if binding.stream == output_stream:
                operator = self.diagram.operator(binding.operator)
                if not isinstance(operator, SOutput):
                    raise DiagramError(
                        f"output stream {output_stream!r} is not produced by an SOutput"
                    )
                return operator
        raise DiagramError(f"unknown output stream {output_stream!r}")

    def note_checkpoint_on_outputs(self) -> None:
        """Tell every SOutput that a fragment checkpoint was just taken."""
        for soutput in self.soutputs():
            soutput.note_checkpoint()

    def entry_operators(self, input_stream: str) -> list[tuple[str, int]]:
        """(operator, port) pairs fed by external ``input_stream``."""
        # Read live: elastic rewiring binds and unbinds inputs of a running fragment.
        return [
            (b.operator, b.port) for b in self.diagram.inputs if b.stream == input_stream
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LocalEngine diagram={self.diagram.name!r} processed={self.tuples_processed}>"
