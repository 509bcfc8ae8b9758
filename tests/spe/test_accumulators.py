"""Unit tests for the mergeable accumulators behind pane aggregation."""

import pytest

from repro.errors import OperatorError
from repro.spe.accumulators import (
    INCREMENTAL_ACCUMULATORS,
    AvgAccumulator,
    CountAccumulator,
    MaxAccumulator,
    MinAccumulator,
    SumAccumulator,
)


def test_registry_covers_exactly_the_builtins():
    assert INCREMENTAL_ACCUMULATORS == {
        "count": CountAccumulator,
        "sum": SumAccumulator,
        "avg": AvgAccumulator,
        "min": MinAccumulator,
        "max": MaxAccumulator,
    }


@pytest.mark.parametrize(
    "factory, values, expected",
    [
        (CountAccumulator, [5, 3, 9], 3),
        (SumAccumulator, [5, 3, 9], 17),
        (AvgAccumulator, [5, 3, 10], 6.0),
        (MinAccumulator, [5, 3, 9], 3),
        (MaxAccumulator, [5, 3, 9], 9),
    ],
)
def test_sequential_adds_match_the_buffered_builtin(factory, values, expected):
    acc = factory()
    for value in values:
        acc.add(value)
    assert acc.result() == expected


def test_merge_equals_adding_the_concatenation():
    for factory in (CountAccumulator, SumAccumulator, AvgAccumulator, MinAccumulator, MaxAccumulator):
        left, right, reference = factory(), factory(), factory()
        for value in (4, 1):
            left.add(value)
            reference.add(value)
        for value in (7, 2):
            right.add(value)
            reference.add(value)
        left.merge(right)
        assert left.result() == reference.result()


def test_empty_edge_cases_match_legacy_semantics():
    assert SumAccumulator().result() == 0
    assert AvgAccumulator().result() == 0.0
    with pytest.raises(ValueError):
        MinAccumulator().result()
    with pytest.raises(ValueError):
        MaxAccumulator().result()


def test_min_max_merge_skips_empty_partials():
    acc = MinAccumulator()
    acc.add(4)
    acc.merge(MinAccumulator())
    assert acc.result() == 4


def test_snapshot_restore_round_trip():
    for factory in (CountAccumulator, SumAccumulator, AvgAccumulator, MinAccumulator, MaxAccumulator):
        acc = factory()
        acc.add(3)
        acc.add(8)
        restored = factory()
        restored.restore(acc.snapshot())
        assert restored.result() == acc.result()


def test_restore_rejects_kind_mismatch():
    snapshot = SumAccumulator().snapshot()
    with pytest.raises(OperatorError):
        CountAccumulator().restore(snapshot)
