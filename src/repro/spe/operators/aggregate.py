"""Aggregate operator: windowed, optionally grouped aggregate functions.

An Aggregate computes one or more aggregate functions over windows of the
serialization attribute (``stime``), optionally grouping tuples by a set of
attributes first.  Window alignment is independent of the first tuple
processed so that replicas of the operator stay mutually consistent -- this is
the *independent-window-alignment* requirement of Section 2.1.

Window results are emitted when the operator's stable watermark (the minimum
boundary stime across its inputs) passes the window's end, which makes the
output deterministic given the input sequence.  A window's output is labelled
tentative when any tuple that contributed to it was tentative.

Accumulation is **pane-based**: every window spec has an exact gcd
decomposition (:class:`~repro.spe.windows.PaneAssignment`) and every
aggregate function has a mergeable accumulator, so each tuple updates
exactly one ``(pane, group)`` cell and closing a window merges its
``size/gcd`` pane partials -- O(groups x panes) state instead of
O(tuples x overlap) value buffers.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import is_not
from typing import Any, Mapping, Sequence

from ...errors import OperatorError
from ..accumulators import INCREMENTAL_ACCUMULATORS, Accumulator
from ..schema import ANY_SCHEMA, Schema
from ..tuples import TENTATIVE, StreamTuple, TupleBlock
from ..windows import WindowSpec
from .base import Operator


class AggregateSpec:
    """One output attribute of an Aggregate: ``name = function(attribute)``."""

    def __init__(self, name: str, function: str, attribute: str | None = None):
        self.name = name
        self.attribute = attribute
        if function not in INCREMENTAL_ACCUMULATORS:
            raise OperatorError(
                f"unknown aggregate function {function!r}; "
                f"expected one of {sorted(INCREMENTAL_ACCUMULATORS)}"
            )
        self.function_name = function
        self._factory = INCREMENTAL_ACCUMULATORS[function]
        if function != "count" and attribute is None:
            raise OperatorError(f"aggregate {name!r} ({function}) needs an attribute")

    def make_accumulator(self) -> Accumulator:
        """Fresh accumulator for this spec's function."""
        return self._factory()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AggregateSpec({self.name}={self.function_name}({self.attribute}))"


class _CellState:
    """Accumulated contents of one (pane index, group key) cell."""

    __slots__ = ("accumulators", "count", "has_tentative")

    def __init__(self, accumulators: list[Accumulator]) -> None:
        self.accumulators = accumulators
        self.count = 0
        self.has_tentative = False


class Aggregate(Operator):
    """Windowed grouped aggregate.

    Parameters
    ----------
    name:
        Operator name.
    window:
        The :class:`WindowSpec` delimiting computations.
    aggregates:
        The output attributes to compute, as :class:`AggregateSpec` objects or
        ``(name, function, attribute)`` tuples.
    group_by:
        Attribute names to group on.  Each closed window emits one output
        tuple per group observed in it.  **Grouped windows with no tuples
        emit nothing** even under ``emit_empty_windows`` (there is no group
        key to attach a zero row to); only the ungrouped form emits empties.
    emit_empty_windows:
        When True and ``group_by`` is empty, windows with no tuples still
        emit a single tuple with count-like aggregates at zero (useful for
        gap detection workloads).
    """

    def __init__(
        self,
        name: str,
        window: WindowSpec,
        aggregates: Sequence[AggregateSpec | tuple],
        group_by: Sequence[str] = (),
        output_schema: Schema = ANY_SCHEMA,
        emit_empty_windows: bool = False,
    ) -> None:
        super().__init__(name, arity=1, output_schema=output_schema)
        self.window = window
        self.specs = [a if isinstance(a, AggregateSpec) else AggregateSpec(*a) for a in aggregates]
        if not self.specs:
            raise OperatorError(f"aggregate {name!r} needs at least one aggregate spec")
        self.group_by = tuple(group_by)
        #: Distinct accumulated attributes (None = count's constant 1 per row).
        self._attributes = tuple(dict.fromkeys(spec.attribute for spec in self.specs))
        self.emit_empty_windows = emit_empty_windows
        #: (pane index, group key) -> cell.
        self._cells: dict[tuple[int, tuple], _CellState] = {}
        self._last_closed_watermark = float("-inf")

    # ------------------------------------------------------------------ data path
    def _new_cell(self) -> _CellState:
        return _CellState([spec.make_accumulator() for spec in self.specs])

    def _process_run(self, port: int, run: TupleBlock) -> list[TupleBlock]:
        """One bulk fold per ``(pane span, group)`` of the run, read straight
        from the stime, type and payload columns.  Rows are grouped by key in
        row order, so cells are created and fed exactly as a row-by-row walk
        would."""
        codes, group_attrs = run.codes, self.group_by
        columns = {attr: run.column(attr) for attr in self._attributes if attr is not None}
        keys = list(zip(*map(run.column, group_attrs))) if group_attrs else None
        for pane, start, stop in self.window.pane_spans(run.stimes):
            tentative = TENTATIVE in codes[start:stop]
            if keys is None:
                self._fold((pane, ()), range(start, stop), tentative, columns)
                continue
            groups: dict[tuple, list[int]] = {}
            for row in range(start, stop):
                key = keys[row]
                members = groups.get(key)
                if members is None:
                    members = groups[key] = []
                members.append(row)
            for key, members in groups.items():
                self._fold(
                    (pane, key),
                    members,
                    tentative and any(codes[row] == TENTATIVE for row in members),
                    columns,
                )
        return []

    def _fold(
        self, cell_key: tuple[int, tuple], rows: Sequence[int], tentative: bool, columns: Mapping
    ) -> None:
        """Fold ``rows`` of a run into one cell: each attribute's values of them,
        ``None`` left out, one ``add_many`` per spec."""
        cell = self._cells.get(cell_key)
        if cell is None:
            cell = self._cells[cell_key] = self._new_cell()
        values = {None: [1] * len(rows)}
        for attr, column in columns.items():
            if rows.__class__ is range:
                picked = column[rows.start : rows.stop]
            else:
                picked = [column[row] for row in rows]
            values[attr] = list(compress(picked, map(is_not, picked, repeat(None))))
        for accumulator, spec in zip(cell.accumulators, self.specs):
            accumulator.add_many(values[spec.attribute])
        cell.count += len(rows)
        cell.has_tentative = cell.has_tentative or tentative

    # ------------------------------------------------------------------ window closing
    def _on_watermark(self, previous: float, current: float) -> list[TupleBlock]:
        if self._last_closed_watermark > float("-inf"):
            previous = max(previous, self._last_closed_watermark)
        window = self.window
        closed: set[int] = set()
        # Windows derived from live panes: closed by the new watermark and
        # not emitted at an earlier one (panes are shared across windows, so
        # emission cannot simply delete the cells that fed it).  Only a
        # window one of whose panes is actually live counts, so a gap in the
        # pane population never surfaces as a spurious empty window.
        if self._cells:
            closed.update(
                window.live_windows_closed(
                    {pane for pane, _key in self._cells}, self._last_closed_watermark, current
                )
            )
        if self.emit_empty_windows:
            closed.update(window.windows_closed_by(previous, current))
        out: list[StreamTuple] = []
        if closed:
            # One pane -> cells index shared by every window emitted at this
            # watermark (consecutive closed windows overlap in most panes).
            by_pane: dict[int, dict[tuple, _CellState]] = {}
            for (pane, key), cell in self._cells.items():
                by_pane.setdefault(pane, {})[key] = cell
            for index in sorted(closed):
                out.extend(self._emit_window(index, by_pane))
        self._last_closed_watermark = max(self._last_closed_watermark, current)
        self._collect_dead_panes(current)
        return TupleBlock.of(out).segments()

    def _collect_dead_panes(self, watermark: float) -> None:
        """Drop panes whose last containing window the watermark closed."""
        window = self.window
        per_slide = window.pane.per_slide
        is_closed = window.is_closed
        dead = [
            cell_key
            for cell_key in self._cells
            if is_closed(cell_key[0] // per_slide, watermark)
        ]
        for cell_key in dead:
            del self._cells[cell_key]

    def _empty_window_tuple(self, index: int, stime: float) -> StreamTuple:
        values = {
            spec.name: 0 if spec.function_name == "count" else None for spec in self.specs
        }
        values["window_start"] = self.window.window_start(index)
        return self._emit(stime, values, tentative=False)

    def _emit_window(
        self, index: int, by_pane: dict[int, dict[tuple, _CellState]]
    ) -> list[StreamTuple]:
        window = self.window
        stime = window.window_end(index)
        # Walking the pane range in ascending order keeps each group's cell
        # list in pane (stime) order without a per-window sort.
        groups: dict[tuple, list[_CellState]] = {}
        by_pane_get = by_pane.get
        for pane in window.window_panes(index):
            bucket = by_pane_get(pane)
            if bucket:
                for key, cell in bucket.items():
                    groups.setdefault(key, []).append(cell)
        out: list[StreamTuple] = []
        if not groups and self.emit_empty_windows and not self.group_by:
            out.append(self._empty_window_tuple(index, stime))
        for key in sorted(groups, key=repr):
            # Merge the pane partials in pane (stime) order into fresh
            # accumulators; the shared pane cells are never mutated.
            merged = [spec.make_accumulator() for spec in self.specs]
            tentative = False
            for cell in groups[key]:
                for accumulator, partial in zip(merged, cell.accumulators):
                    accumulator.merge(partial)
                tentative = tentative or cell.has_tentative
            values: dict[str, Any] = dict(zip(self.group_by, key))
            values["window_start"] = window.window_start(index)
            for spec, accumulator in zip(self.specs, merged):
                values[spec.name] = accumulator.result()
            out.append(self._emit(stime, values, tentative=tentative))
        return out

    # ------------------------------------------------------------------ checkpointing
    def _checkpoint_state(self) -> dict:
        return {
            "cells": [
                {
                    "index": index,
                    "key": list(key),
                    "count": cell.count,
                    "has_tentative": cell.has_tentative,
                    "accumulators": [
                        accumulator.snapshot() for accumulator in cell.accumulators
                    ],
                }
                for (index, key), cell in self._cells.items()
            ],
            "last_closed_watermark": self._last_closed_watermark,
        }

    def _restore_state(self, state: Mapping[str, Any]) -> None:
        cells: dict[tuple[int, tuple], _CellState] = {}
        for entry in state.get("cells", ()):
            cell = self._new_cell()
            if len(entry["accumulators"]) != len(cell.accumulators):
                raise OperatorError(
                    f"aggregate {self.name!r} has {len(cell.accumulators)} aggregate specs "
                    f"but the checkpoint holds {len(entry['accumulators'])} per cell"
                )
            for accumulator, snapshot in zip(cell.accumulators, entry["accumulators"]):
                accumulator.restore(snapshot)
            cell.count = int(entry["count"])
            cell.has_tentative = bool(entry["has_tentative"])
            cells[(int(entry["index"]), tuple(entry["key"]))] = cell
        self._cells = cells
        self._last_closed_watermark = float(state.get("last_closed_watermark", float("-inf")))

    # ------------------------------------------------------------------ introspection
    @property
    def open_cell_count(self) -> int:
        """Number of (pane, group) cells currently held in memory.

        This is the quantity bounded by O(groups x panes);
        ``tests/spe/test_aggregate.py`` asserts the bound through this counter.
        """
        return len(self._cells)
