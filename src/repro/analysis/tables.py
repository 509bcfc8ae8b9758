"""Result tables: pivoting and rendering of experiment results.

The registry produces flat lists of
:class:`~repro.experiments.ExperimentResult`; the paper reports them
as two-dimensional tables (e.g. chain depth on the x-axis, one series per
policy).  This module pivots those lists into :class:`ResultTable` objects and
renders them as plain text, GitHub-flavoured Markdown, or CSV.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..experiments import ExperimentResult

#: Extracts the value of one table cell from an experiment result.
ValueGetter = Callable[[ExperimentResult], object]

#: Extracts a row / column key from an experiment result.
KeyGetter = Callable[[ExperimentResult], object]


@dataclass
class ResultTable:
    """A two-dimensional table of values with labelled rows and columns."""

    title: str
    row_label: str
    column_label: str
    rows: list[object] = field(default_factory=list)
    columns: list[object] = field(default_factory=list)
    cells: dict[tuple[object, object], object] = field(default_factory=dict)

    # ------------------------------------------------------------------ construction
    def set(self, row: object, column: object, value: object) -> None:
        """Store ``value`` at (row, column), registering the keys in order of first use."""
        if row not in self.rows:
            self.rows.append(row)
        if column not in self.columns:
            self.columns.append(column)
        self.cells[(row, column)] = value

    def get(self, row: object, column: object, default: object = None) -> object:
        return self.cells.get((row, column), default)

    # ------------------------------------------------------------------ conversions
    def as_dict(self) -> dict:
        """Nested ``{row: {column: value}}`` mapping (JSON-friendly)."""
        return {row: {column: self.get(row, column) for column in self.columns} for row in self.rows}


def pivot_results(
    results: Sequence[ExperimentResult],
    *,
    title: str,
    row: KeyGetter,
    column: KeyGetter,
    value: ValueGetter,
    row_label: str = "row",
    column_label: str = "column",
) -> ResultTable:
    """Pivot a flat result list into a :class:`ResultTable`.

    ``row``, ``column``, and ``value`` are callables applied to each result;
    when two results land in the same cell the later one wins (experiments do
    not produce duplicates, so this only matters for hand-built inputs).
    """
    table = ResultTable(title=title, row_label=row_label, column_label=column_label)
    for result in results:
        table.set(row(result), column(result), value(result))
    return table


# --------------------------------------------------------------------------- formatting helpers
def _format_cell(value: object, float_format: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


def render_text(table: ResultTable, float_format: str = ".2f") -> str:
    """Render ``table`` as an aligned plain-text table."""
    header = [f"{table.row_label} \\ {table.column_label}"] + [str(c) for c in table.columns]
    body = [
        [str(row)] + [_format_cell(table.get(row, column), float_format) for column in table.columns]
        for row in table.rows
    ]
    widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
    lines = [table.title, "-" * max(len(table.title), 1)]
    lines.append("  ".join(cell.ljust(width) for cell, width in zip(header, widths)))
    for line in body:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines)


def render_markdown(table: ResultTable, float_format: str = ".2f") -> str:
    """Render ``table`` as a GitHub-flavoured Markdown table."""
    header = [f"{table.row_label} \\ {table.column_label}"] + [str(c) for c in table.columns]
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for row in table.rows:
        cells = [str(row)] + [
            _format_cell(table.get(row, column), float_format) for column in table.columns
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def render_csv(table: ResultTable, float_format: str = ".6g") -> str:
    """Render ``table`` as CSV text (row label in the first column)."""
    buffer = io.StringIO()
    header = [table.row_label] + [str(c) for c in table.columns]
    buffer.write(",".join(_escape_csv(cell) for cell in header) + "\n")
    for row in table.rows:
        cells = [str(row)] + [
            _format_cell(table.get(row, column), float_format) for column in table.columns
        ]
        buffer.write(",".join(_escape_csv(cell) for cell in cells) + "\n")
    return buffer.getvalue()


def _escape_csv(cell: str) -> str:
    if any(ch in cell for ch in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


# --------------------------------------------------------------------------- canned pivots
def proc_new_by_depth(results: Sequence[ExperimentResult], title: str) -> ResultTable:
    """Figure 15 shape: Proc_new with chain depth as columns, one row per policy.

    Keyed by ``policy``: a chain run's ``label`` names its depth too
    (``"Delay & Delay (depth 4)"``), one row per run.
    """
    return pivot_results(
        results,
        title=title,
        row=lambda r: r.policy,
        column=lambda r: r.chain_depth,
        value=lambda r: r.proc_new,
        row_label="policy",
        column_label="depth",
    )


def tentative_by_depth(results: Sequence[ExperimentResult], title: str) -> ResultTable:
    """Figure 16 / 18 shape: N_tentative with chain depth as columns, one row per policy."""
    return pivot_results(
        results,
        title=title,
        row=lambda r: r.policy,
        column=lambda r: r.chain_depth,
        value=lambda r: r.n_tentative,
        row_label="policy",
        column_label="depth",
    )


def metric_by_duration(
    results: Sequence[ExperimentResult],
    title: str,
    value: ValueGetter,
) -> ResultTable:
    """Table III / Figure 13 / Figure 20 shape: metric with failure duration as columns."""
    return pivot_results(
        results,
        title=title,
        row=lambda r: r.label,
        column=lambda r: r.failure_duration,
        value=value,
        row_label="policy",
        column_label="failure (s)",
    )
