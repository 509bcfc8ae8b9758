"""Payload schema runs: how a :class:`~repro.spe.tuples.TupleBlock` holds attribute values.

A payload is a tuple of runs ``(count, keys, values)``: ``count`` rows sharing
the key tuple ``keys``, whose values lie row by row in the one list ``values``
(``len(keys)`` per row, a column ``j`` is ``values[j::len(keys)]``).  A control
row has no payload: it sits in the run beside it with ``None`` for each of its
values, or in a run of control rows only, whose keys are ``None``.  Runs are
joined wherever the schema holds, so the common block -- a data run and its
boundary -- is one run, and every block operation is a few C-level list
operations per run.  The tuple codec writes the same runs, with control rows
as the empty schema (DESIGN.md, "Tuple codec").
"""

from __future__ import annotations

import re
from itertools import accumulate, chain, groupby, repeat
from operator import itemgetter, sub
from typing import Any, Iterable, Mapping, Sequence

_DATA_ROW = re.compile(rb"[\x00\x01]")


#: The payload of one control row: a run of control rows only (keys ``None``),
#: which joins the run next to it, ``None`` standing in for its values.
CONTROL_PAYLOAD = ((1, None, ()),)


def _mapping(keys: tuple, values: Iterable) -> dict:
    """One row's payload mapping: the only place a block builds one."""
    return dict(zip(keys, values))


def interleaved(columns: Sequence[Sequence]) -> list:
    """One value list per key as a run's values: row by row, ``len(columns)`` per row."""
    width = len(columns)
    values = [None] * (width * len(columns[0])) if width else []
    for index, column in enumerate(columns):
        values[index::width] = column
    return values


def schema_runs(mappings: Sequence[Mapping[str, Any]], codes: bytes | None = None) -> tuple:
    """Row mappings (of rows of type ``codes``; data rows by default) as a payload."""
    runs, start = [], 0
    for keys, group in groupby(map(tuple, mappings)):
        stop = start + len(list(group))
        if not keys and codes and _DATA_ROW.search(codes, start, stop) is None:
            keys = None  # control rows only
        rows = mappings[start:stop]
        columns = [list(map(itemgetter(key), rows)) for key in keys or ()]
        runs.append((stop - start, keys, interleaved(columns)))
        start = stop
    return merged_runs(runs)


def merged_runs(runs: Iterable) -> tuple:
    """``runs`` joined wherever the schema holds: adjacent runs of one key tuple, and a run
    of control rows only (keys ``None``) with the run before it, or else the one after it."""
    runs = tuple(runs)
    if not runs[1:]:
        return runs
    schema = holes = None
    total = 0
    for count, keys, _values in runs:
        total += count
        if keys is None:
            holes = True
        elif schema is None:
            schema = keys
        elif keys != schema:
            break
    else:  # one schema (the common join), with control rows of their own or without
        if holes:
            return _joined_run(runs, schema)
        return ((total, schema, list(chain(*map(itemgetter(2), runs)))),)
    out = []  # several schemas: join pairwise where the schema holds
    for run in runs:
        last = out[-1] if out else None
        if last is not None and (run[1] is None or last[1] is None or run[1] == last[1]):
            out[-1] = _joined_run((last, run), last[1] if run[1] is None else run[1])[0]
        else:
            out.append(run)
    return tuple(out)


def _joined_run(runs: tuple, keys: tuple | None) -> tuple:
    """``runs`` (of schema ``keys``, or of control rows only) as one run."""
    parts = [(None,) * (run[0] * len(keys or ())) if run[1] is None else run[2] for run in runs]
    return ((sum(map(itemgetter(0), runs)), keys, list(chain(*parts))),)


def cut_runs(payload: Sequence, start: int, stop: int) -> tuple:
    """Rows ``[start, stop)`` of ``payload`` (a run wholly inside is shared, unless it
    is a buffer's growing list)."""
    picked, at = (), 0
    for run in payload:
        if at >= stop:
            break
        count = run[0]
        if at + count > start:
            lo, hi = start - at, stop - at
            if lo > 0 or hi < count or run.__class__ is not tuple:
                lo, hi = lo if lo > 0 else 0, hi if hi < count else count
                width = len(run[1] or ())
                run = (hi - lo, run[1], run[2][lo * width : hi * width])
            picked += (run,)
        at += count
    return picked


def _rows_of(values: Sequence, picks: Sequence[int], keys: tuple | None) -> Sequence:
    """The values of the rows at ``picks`` in a run of schema ``keys``: one gather per column."""
    width = len(keys or ())
    if not picks[1:]:
        return values[picks[0] * width : (picks[0] + 1) * width]
    pick = itemgetter(*picks)
    columns = map(values.__getitem__, map(slice, range(width), repeat(None), repeat(width)))
    return pick(values) if width == 1 else interleaved(list(map(pick, columns)))


def _gathered(payload: Sequence, picks: Sequence[int]) -> tuple:
    """The payload rows at ``picks``: one piece per stretch of picks inside one run."""
    counts = list(map(itemgetter(0), payload))
    starts = list(accumulate(counts, initial=0))
    owner = list(chain.from_iterable(map(repeat, range(len(counts)), counts)))
    pieces = []
    for run, group in groupby(picks, owner.__getitem__):
        offsets = list(map(sub, group, repeat(starts[run])))
        _count, keys, values = payload[run]
        pieces.append((len(offsets), keys, _rows_of(values, offsets, keys)))
    return merged_runs(pieces)


def grow_runs(runs: list, payload: Iterable) -> None:
    """Append ``payload`` to a buffer's runs: its last run grows in place while the schema holds.

    A buffer's runs are lists ``[count, keys, values]`` whose values list it owns.
    """
    for count, keys, values in payload:
        last = runs[-1] if runs else None
        if last is None or keys != last[1] and keys is not None and last[1] is not None:
            runs += ([count, keys, list(values)],)
            continue
        if last[1] is None and keys is not None:  # its control rows take this schema
            last[1:] = keys, [None] * (last[0] * len(keys))
        last[2] += (None,) * (count * len(last[1] or ())) if keys is None else values
        last[0] += count


def drop_runs(runs: list, start: int, stop: int, rows: int) -> None:
    """Delete rows ``[start, stop)`` of a buffer's runs, ``rows`` in all (kept rows are copied)."""
    runs[:] = [list(run) for run in (*cut_runs(runs, 0, start), *cut_runs(runs, stop, rows))]
