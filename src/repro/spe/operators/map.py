"""Map operator: transforms each input tuple into a single output tuple."""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..schema import ANY_SCHEMA, Schema
from ..payload import schema_runs
from ..tuples import TupleBlock
from .base import StatelessOperator

Transform = Callable[[Mapping[str, Any]], Mapping[str, Any]]


class Map(StatelessOperator):
    """Apply ``transform`` to each tuple's attributes.

    ``transform`` must be a pure function of the input attributes; the output
    tuple keeps the input's ``stime`` so downstream window boundaries stay
    deterministic.  The transform's result is copied once (so a transform may
    safely return a mapping it reuses) into the output block's columns.
    """

    def __init__(self, name: str, transform: Transform, output_schema: Schema = ANY_SCHEMA) -> None:
        super().__init__(name, output_schema=output_schema)
        self.transform = transform

    def _process_run(self, port: int, run: TupleBlock) -> list[TupleBlock]:
        """One mapping and transform call per row; ids, stimes and labels stay columns."""
        transform = self.transform
        values = [dict(transform(values)) for values in run.mappings()]
        return [TupleBlock(run.codes, self.writer.take(len(run)), run.stimes, schema_runs(values))]
