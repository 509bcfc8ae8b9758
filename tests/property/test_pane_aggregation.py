"""Property tests: pane-based aggregation is byte-identical to naive recompute.

The pane Aggregate and :func:`naive_recompute` -- every window folded again
from its own rows -- are fed the same random workloads (random window specs,
group keys, tentative mixes and interleaved watermarks) and must produce
byte-identical output streams.  Values are integers so that every arithmetic
fold is exact and "identical" really means identical, not approximately equal.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.spe.operators import Aggregate
from repro.spe.tuples import StreamTuple, TupleType
from repro.spe.windows import WindowSpec

COMMON = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: (size, slide) pool: tumbling, aligned sliding, coprime sliding, fractional
#: panes and the bench shapes.
WINDOW_SPECS = [
    (5.0, 5.0),
    (10.0, 5.0),
    (7.0, 3.0),
    (1.0, 0.25),
    (60.0, 10.0),
]

#: The last boundary every run ends with: it closes every window.
FINAL_WATERMARK = 1000.0

AGGREGATES = [
    ("n", "count", None),
    ("total", "sum", "v"),
    ("mean", "avg", "v"),
    ("lo", "min", "v"),
    ("hi", "max", "v"),
]


@st.composite
def workloads(draw):
    size, slide = draw(st.sampled_from(WINDOW_SPECS))
    grouped = draw(st.booleans())
    emit_empty = draw(st.booleans())
    n = draw(st.integers(min_value=0, max_value=50))
    # Stimes on a 0.05 grid: inexact binary floats on purpose -- both paths
    # must agree on membership at rounded pane/window edges.
    ticks = sorted(draw(st.lists(st.integers(min_value=0, max_value=600), min_size=n, max_size=n)))
    items = []
    for i, tick in enumerate(ticks):
        values = {"v": draw(st.integers(min_value=-100, max_value=100))}
        if grouped:
            values["g"] = draw(st.sampled_from(["a", "b", None]))
        factory = StreamTuple.tentative if draw(st.booleans()) else StreamTuple.insertion
        items.append(factory(i, tick * 0.05, values))
    # Watermarks: a few mid-stream cuts plus one closing everything.
    cuts = (
        sorted(draw(st.sets(st.integers(min_value=1, max_value=len(items)), max_size=3)))
        if items
        else []
    )
    boundaries = {cut: (ticks[cut - 1] * 0.05) for cut in cuts}
    return size, slide, grouped, emit_empty, items, boundaries


def observed(stime, tuple_type, values):
    return stime, tuple_type, tuple(sorted(values.items(), key=repr))


def naive_recompute(window, aggregates, items, group_by=(), emit_empty=False,
                    watermark=FINAL_WATERMARK):
    """Every window ``watermark`` closes, recomputed from its own rows.

    Window ``k`` takes the rows with ``window_start(k) <= stime < window_end(k)``
    in arrival order and folds each group's values with plain loops (a left
    fold for sums, never ``sum``).  Groups leave in ``repr`` order of their
    key, an empty window leaves only when the aggregate is ungrouped, and a
    window is tentative when any of its rows is.  Returns
    ``(stime, tuple_type, values)`` triples.
    """
    out = []
    for k in range(-int(window.size / window.slide) - 1, int(watermark / window.slide) + 1):
        start, end = window.window_start(k), window.window_end(k)
        if not window.origin < end <= watermark:
            continue
        groups = {}
        for item in items:
            if start <= item.stime < end:
                groups.setdefault(tuple(item.values.get(a) for a in group_by), []).append(item)
        if not groups and emit_empty and not group_by:
            empty = {name: 0 if fn == "count" else None for name, fn, _ in aggregates}
            out.append((end, TupleType.INSERTION, {"window_start": start, **empty}))
        for key in sorted(groups, key=repr):
            rows = groups[key]
            values = dict(zip(group_by, key), window_start=start)
            for name, fn, attr in aggregates:
                column = [1 if attr is None else row.values.get(attr) for row in rows]
                column = [value for value in column if value is not None]
                total, best = 0, column[0] if column else None
                for value in column:
                    total = total + value
                    if fn == "min" and value < best or fn == "max" and value > best:
                        best = value
                values[name] = {"count": len(column), "sum": total, "min": best, "max": best,
                                "avg": total / len(column) if column else 0.0}[fn]
            tentative = any(row.is_tentative for row in rows)
            out.append((end, TupleType.TENTATIVE if tentative else TupleType.INSERTION, values))
    return out


def run(size, slide, grouped, emit_empty, items, boundaries, batched=True):
    op = Aggregate(
        "a",
        WindowSpec.sliding(size=size, slide=slide),
        aggregates=AGGREGATES,
        group_by=("g",) if grouped else (),
        emit_empty_windows=emit_empty,
    )
    out = []
    batch = []
    for i, item in enumerate(items):
        batch.append(item)
        if i + 1 in boundaries:
            batch.append(StreamTuple.boundary(10_000 + i, boundaries[i + 1]))
    batch.append(StreamTuple.boundary(99_999, FINAL_WATERMARK))
    if batched:
        out = op.process_batch(0, batch)
    else:
        for item in batch:
            out += op.process(0, item)
    return [observed(t.stime, t.tuple_type, t.values) for t in out if t.is_data]


@COMMON
@given(workloads())
def test_pane_path_matches_naive_recompute(case):
    size, slide, grouped, emit_empty, items, boundaries = case
    window = WindowSpec.sliding(size=size, slide=slide)
    group_by = ("g",) if grouped else ()
    expected = naive_recompute(window, AGGREGATES, items, group_by, emit_empty)
    assert run(size, slide, grouped, emit_empty, items, boundaries) == [
        observed(*triple) for triple in expected
    ]


@COMMON
@given(workloads())
def test_batched_and_tuple_at_a_time_agree(case):
    size, slide, grouped, emit_empty, items, boundaries = case
    batched = run(size, slide, grouped, emit_empty, items, boundaries, batched=True)
    single = run(size, slide, grouped, emit_empty, items, boundaries, batched=False)
    assert batched == single


@COMMON
@given(workloads(), st.integers(min_value=0, max_value=50))
def test_checkpoint_restore_mid_stream_is_byte_identical(case, cut_seed):
    size, slide, grouped, emit_empty, items, boundaries = case
    expected = run(size, slide, grouped, emit_empty, items, boundaries)

    def make():
        return Aggregate(
            "a",
            WindowSpec.sliding(size=size, slide=slide),
            aggregates=AGGREGATES,
            group_by=("g",) if grouped else (),
            emit_empty_windows=emit_empty,
        )

    batch = []
    for i, item in enumerate(items):
        batch.append(item)
        if i + 1 in boundaries:
            batch.append(StreamTuple.boundary(10_000 + i, boundaries[i + 1]))
    batch.append(StreamTuple.boundary(99_999, FINAL_WATERMARK))
    cut = cut_seed % (len(batch) + 1)

    op = make()
    out = op.process_batch(0, batch[:cut])
    snapshot = op.checkpoint()
    replacement = make()
    replacement.restore(snapshot)
    out += replacement.process_batch(0, batch[cut:])
    assert [observed(t.stime, t.tuple_type, t.values) for t in out if t.is_data] == expected
