"""Filter operator: tests each input tuple against a predicate."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from ..schema import ANY_SCHEMA, Schema
from ..tuples import StreamTuple
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
    per-tuple cost of a filter to one predicate call.
    """

    def __init__(self, name: str, predicate: Predicate, output_schema: Schema = ANY_SCHEMA) -> None:
        super().__init__(name, output_schema=output_schema)
        self.predicate = predicate

    def _process_data(self, port: int, item: StreamTuple) -> list[StreamTuple]:
        if not self.predicate(item.values):
            return []
        return [item]

    def process_batch(self, port: int, items: Iterable[StreamTuple]) -> list[StreamTuple]:
        """Bulk fast path: one predicate call per data tuple, no dispatch cost."""
        self._check_port(port)
        predicate = self.predicate
        out: list[StreamTuple] = []
        append = out.append
        for item in items:
            if item.is_data:
                if item.is_tentative:
                    self._seen_tentative_input = True
                if predicate(item.values):
                    append(item)
            else:
                out.extend(self.process(port, item))
        return out

    def handle_undo(self, port: int, item: StreamTuple) -> list[StreamTuple]:
        """Forward the undo verbatim: it names a position in the pass-through id space."""
        return [item]

    def handle_rec_done(self, port: int, item: StreamTuple) -> list[StreamTuple]:
        self._seen_tentative_input = False
        return [item]
