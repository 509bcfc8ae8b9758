"""The run-at-a-time pane kernel against its row-at-a-time definitions.

``Accumulator.add_many(values)`` is defined as "the state after one ``add``
per value, in order" and ``WindowSpec.pane_spans(stimes)`` as the run-length
encoding of ``pane_index`` over the rows; both are checked here against those
definitions, including which *object* a min/max tie keeps and the float grid
at pane edges.
"""

import math
import random
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spe.accumulators import (
    AvgAccumulator,
    CountAccumulator,
    MaxAccumulator,
    MinAccumulator,
    SumAccumulator,
)
from repro.spe.windows import WindowSpec

COMMON = settings(max_examples=150, deadline=None)

FACTORIES = [
    CountAccumulator,
    SumAccumulator,
    AvgAccumulator,
    MinAccumulator,
    MaxAccumulator,
]

#: ``1``, ``1.0`` and ``True`` compare equal, so a tie shows which one was kept.
VALUES = st.one_of(
    st.sampled_from([1, 1.0, True, 0, 0.0, False]),
    st.integers(-(10**6), 10**6),
    st.floats(),  # NaN and infinities included: the comparisons are the loop's own
    st.booleans(),
)


def observed(accumulator):
    """Result and snapshot with types spelled out (``1 == 1.0 == True`` otherwise)."""
    try:
        result = repr(accumulator.result())
    except (ValueError, ZeroDivisionError) as exc:
        result = type(exc).__name__
    return result, repr(accumulator.snapshot())


@COMMON
@given(st.lists(VALUES, max_size=12), st.lists(VALUES, max_size=30))
def test_add_many_is_one_add_per_value_in_order(seed, values):
    for factory in FACTORIES:
        by_row, by_run = factory(), factory()
        for value in seed:  # a running state the bulk fold must continue from
            by_row.add(value)
            by_run.add(value)
        for value in values:
            by_row.add(value)
        by_run.add_many(values)
        assert observed(by_run) == observed(by_row)


def test_sum_is_a_plain_left_fold_on_every_python_version():
    """A compensated ``sum()`` (Python 3.12) reads 2.0 here; the row loop reads 1.0."""
    values = [1e16, 1.0, -1e16, 1.0]
    for factory in (SumAccumulator, AvgAccumulator):
        accumulator = factory()
        accumulator.add_many(values)
        assert accumulator.snapshot()["total"] == 1.0
    assert SumAccumulator().result() == 0  # an untouched sum stays the int 0


def test_min_max_ties_keep_the_earliest_object():
    for factory in (MinAccumulator, MaxAccumulator):
        for values in ([1, 1.0, True], [1.0, True, 1], [True, 1, 1.0]):
            fresh, seeded = factory(), factory()
            fresh.add_many(values)
            assert fresh.result() is values[0]
            seeded.add(values[0])
            seeded.add_many(values[1:])
            assert seeded.result() is values[0]


# --------------------------------------------------------------------------- pane spans
SPECS = st.sampled_from([(1.0, 1.0), (100.0, 1.0), (0.2, 0.1), (60.0, 10.0), (0.75, 0.5)])
ORIGINS = st.sampled_from([0.0, 0.3, -2.5, 1e6 + 0.1])


@st.composite
def stimes_near_pane_edges(draw, window):
    """Stimes on, one ulp below and one ulp above pane edges, plus interior points.

    Most rows stay in one pane or its neighbours (so whole runs are contained
    in, or just leave, a single pane); a few land far away.
    """
    size = window.pane.size
    base = draw(st.integers(-40, 40))
    out = []
    for _ in range(draw(st.integers(0, 30))):
        pane = base + draw(st.sampled_from([0, 0, 0, 0, 1, 1, -1, 7, -13]))
        edge = window.origin + pane * size
        choice = draw(st.integers(0, 4))
        out.append(
            edge if choice == 0
            else math.nextafter(edge, -math.inf) if choice == 1
            else math.nextafter(edge, math.inf) if choice == 2
            else edge + size * draw(st.floats(0.0, 1.0))
        )
    return out


@COMMON
@given(st.data(), SPECS, ORIGINS, st.sampled_from(["sorted", "shuffled", "runs"]))
def test_pane_spans_is_the_run_length_encoding_of_pane_index(data, spec, origin, order):
    window = WindowSpec.sliding(size=spec[0], slide=spec[1], origin=origin)
    stimes = data.draw(stimes_near_pane_edges(window))
    if order == "sorted":
        stimes.sort()
    elif order == "runs":  # sorted runs that jump backwards, as after a redo
        half = len(stimes) // 2
        stimes = sorted(stimes[:half]) + sorted(stimes[half:])
    else:
        random.Random(data.draw(st.integers(0, 2**16))).shuffle(stimes)
    panes = [window.pane_index(stime) for stime in stimes]
    expected, row = [], 0
    for pane, members in groupby(panes):
        count = len(list(members))
        expected.append((pane, row, row + count))
        row += count
    assert window.pane_spans(stimes) == expected


def test_pane_spans_files_a_contained_run_in_one_span():
    window = WindowSpec.sliding(size=100.0, slide=1.0, origin=0.3)
    inside = [7.3, 7.9, 7.5, math.nextafter(8.3, -math.inf)]
    assert window.pane_spans(inside) == [(7, 0, 4)]
    assert window.pane_spans(inside + [8.3]) == [(7, 0, 4), (8, 4, 5)]
    assert window.pane_spans([]) == []
    with pytest.raises((ValueError, OverflowError)):
        window.pane_spans([7.3, math.inf])


# --------------------------------------------------------------------------- closed windows
def scanned_windows_closed(window, live_panes, after, through):
    """``live_windows_closed``'s definition: one ``window_end`` per spanned index."""
    first = window.pane_windows(min(live_panes)).start
    last = window.pane_windows(max(live_panes)).stop
    return [
        index
        for index in range(first, last)
        if after < window.window_end(index) <= through
        and any(pane in live_panes for pane in window.window_panes(index))
    ]


@st.composite
def watermarks_near_window_ends(draw, window):
    """A window end, one ulp either side of one, or a point between two."""
    end = window.window_end(draw(st.integers(-80, 80)))
    choice = draw(st.integers(0, 3))
    return (
        end if choice == 0
        else math.nextafter(end, -math.inf) if choice == 1
        else math.nextafter(end, math.inf) if choice == 2
        else end + window.slide * draw(st.floats(0.0, 1.0))
    )


@COMMON
@given(st.data(), SPECS, ORIGINS)
def test_bisected_closed_windows_are_the_scanned_ones(data, spec, origin):
    window = WindowSpec.sliding(size=spec[0], slide=spec[1], origin=origin)
    live_panes = data.draw(st.sets(st.integers(-60, 60), min_size=1, max_size=12))
    after = data.draw(st.one_of(st.just(-math.inf), watermarks_near_window_ends(window)))
    through = data.draw(watermarks_near_window_ends(window))
    assert window.live_windows_closed(live_panes, after, through) == scanned_windows_closed(
        window, live_panes, after, through
    )
