"""Union operator: merges two or more input streams into one output stream.

The plain Union is order-sensitive (it emits tuples in arrival order), which
is exactly why DPC replaces it with :class:`~repro.spe.operators.sunion.SUnion`
in replicated deployments.  It is kept here as the non-fault-tolerant baseline
used by the overhead experiments (Tables IV and V compare SUnion + SOutput
against a standard Union with no boundary tuples).
"""

from __future__ import annotations

from ..schema import ANY_SCHEMA, Schema
from ..tuples import TupleBlock
from .base import Operator


class Union(Operator):
    """Merge tuples from ``arity`` input streams in arrival order.

    A Union is non-blocking: it keeps producing output when some of its input
    streams are missing.  It forwards each tuple with its own label, so a
    tentative input yields a tentative output.
    """

    def __init__(self, name: str, arity: int = 2, output_schema: Schema = ANY_SCHEMA) -> None:
        super().__init__(name, arity=arity, output_schema=output_schema)

    def _process_run(self, port: int, run: TupleBlock) -> list[TupleBlock]:
        return [run.relabeled(self.writer.take(len(run)))]
