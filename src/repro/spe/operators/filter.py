"""Filter operator: tests each input tuple against a predicate."""

from __future__ import annotations

from itertools import compress
from typing import Any, Callable, Mapping

from ..schema import ANY_SCHEMA, Schema
from ..tuples import TupleBlock
from .base import StatelessOperator

Predicate = Callable[[Mapping[str, Any]], bool]


class Filter(StatelessOperator):
    """Pass through the tuples whose attribute values satisfy ``predicate``.

    The predicate receives the tuple's attribute mapping and must be a pure
    function of it (no time, no randomness) so the operator stays
    deterministic.

    Filtering neither reorders nor rewrites tuples, so matching tuples pass
    through *unchanged* (same id, stime, values, and stability label) instead
    of being reallocated with filter-local ids.  Downstream operators
    therefore keep seeing the upstream id space -- which is also why
    :meth:`handle_undo` forwards UNDO tuples verbatim: their ``undo_from_id``
    already names a position in exactly that space.  This keeps the
    per-tuple cost of a filter to one mapping and one predicate call.
    """

    def __init__(self, name: str, predicate: Predicate, output_schema: Schema = ANY_SCHEMA) -> None:
        super().__init__(name, output_schema=output_schema)
        self.predicate = predicate

    def _process_run(self, port: int, run: TupleBlock) -> list[TupleBlock]:
        """One mapping and predicate call per row; the matching rows pass through unchanged."""
        predicate = self.predicate
        kept = run.take(list(compress(range(len(run)), map(predicate, run.mappings()))))
        return [kept] if kept else []

    def handle_undo(self, port: int, undo: TupleBlock) -> list[TupleBlock]:
        """Forward the undo verbatim: it names a position in the pass-through id space."""
        return [undo]

    def handle_rec_done(self, port: int, rec_done: TupleBlock) -> list[TupleBlock]:
        self._seen_tentative_input = False
        return [rec_done]
