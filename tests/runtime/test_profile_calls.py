"""The exact call counter behind the hot-path gates counts every function.

``pstats`` keys functions by ``(file, line, name)``; every dataclass
``__init__`` is generated code keyed ``('<string>', 2, '__init__')``, so
``Stats.total_calls`` keeps the calls of only one of them.  The counter sums
the profiler's raw entries instead.
"""

from dataclasses import dataclass

from repro.runtime.runtime import profile_calls
from repro.spe.tuples import StreamTuple, TupleBlock


@dataclass
class _Left:
    value: int


@dataclass
class _Right:
    value: int


def _build_both():
    for value in range(50):
        _Left(value)
        _Right(value)


def test_two_dataclass_constructors_are_both_counted():
    stats, calls, rows, mappings = profile_calls(_build_both)
    constructors = [
        entry for entry in stats.stats if entry[0] == "<string>" and entry[2] == "__init__"
    ]
    # pstats merged the two constructors under one key ...
    assert len(constructors) == 1
    assert stats.total_calls == calls - 50
    # ... the raw entries did not: 100 constructions plus _build_both itself.
    assert calls >= 101
    assert rows == mappings == 0


def test_row_constructions_are_counted():
    block = TupleBlock.of([StreamTuple.boundary(0, 1.0), StreamTuple.boundary(1, 2.0)])
    _stats, _calls, rows, mappings = profile_calls(lambda: list(block))
    # Only the profiled call counts: iterating builds the block's two rows,
    # whose control payloads are the shared empty mapping.
    assert (rows, mappings) == (2, 0)


def test_payload_mappings_are_counted():
    block = TupleBlock.of([StreamTuple.insertion(i, 0.5 * i, {"seq": i}) for i in range(3)])
    _stats, _calls, rows, mappings = profile_calls(lambda: list(block.mappings()))
    # Reading the mappings builds one per data row and no row.
    assert (rows, mappings) == (0, 3)
