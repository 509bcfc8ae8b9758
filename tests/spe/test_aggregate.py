"""Unit tests for the windowed Aggregate operator."""

import importlib.util
from pathlib import Path

import pytest

from repro.errors import OperatorError
from repro.spe.operators import Aggregate, AggregateSpec
from repro.spe.tuples import StreamTuple
from repro.spe.windows import WindowSpec

_ORACLE = importlib.util.spec_from_file_location(
    "pane_aggregation_oracle",
    Path(__file__).resolve().parents[1] / "property" / "test_pane_aggregation.py",
)
_oracle = importlib.util.module_from_spec(_ORACLE)
_ORACLE.loader.exec_module(_oracle)
#: The property tests' recompute-every-window oracle.
naive_recompute = _oracle.naive_recompute


def feed(op, values, tentative=False):
    """Feed (stime, payload) pairs followed by a closing boundary."""
    out = []
    for i, (stime, payload) in enumerate(values):
        factory = StreamTuple.tentative if tentative else StreamTuple.insertion
        out += op.process(0, factory(i, stime, payload))
    return out


def test_aggregate_requires_specs_and_attribute():
    with pytest.raises(OperatorError):
        Aggregate("a", WindowSpec.tumbling(10.0), aggregates=[])
    with pytest.raises(OperatorError):
        AggregateSpec("avg_x", "avg", None)
    with pytest.raises(OperatorError):
        AggregateSpec("x", "median", "v")


def test_tumbling_count_and_sum():
    op = Aggregate(
        "a",
        WindowSpec.tumbling(10.0),
        aggregates=[("n", "count", None), ("total", "sum", "v"), ("avg", "avg", "v")],
    )
    feed(op, [(1.0, {"v": 1}), (2.0, {"v": 2}), (11.0, {"v": 10})])
    out = op.process(0, StreamTuple.boundary(99, 20.0))
    data = [t for t in out if t.is_data]
    assert len(data) == 2
    first, second = data
    assert first.values["n"] == 2 and first.values["total"] == 3 and first.values["avg"] == 1.5
    assert first.stime == 10.0  # window end, deterministic
    assert second.values["n"] == 1 and second.values["total"] == 10


def test_windows_only_emit_once_watermark_passes_them():
    op = Aggregate("a", WindowSpec.tumbling(10.0), aggregates=[("n", "count", None)])
    feed(op, [(1.0, {"v": 1})])
    assert [t for t in op.process(0, StreamTuple.boundary(9, 5.0)) if t.is_data] == []
    out = [t for t in op.process(0, StreamTuple.boundary(10, 10.0)) if t.is_data]
    assert len(out) == 1


def test_group_by_emits_one_tuple_per_group():
    op = Aggregate(
        "a",
        WindowSpec.tumbling(10.0),
        aggregates=[("n", "count", None)],
        group_by=("room",),
    )
    feed(op, [(1.0, {"room": "a", "v": 1}), (2.0, {"room": "b", "v": 2}), (3.0, {"room": "a", "v": 3})])
    out = [t for t in op.process(0, StreamTuple.boundary(9, 10.0)) if t.is_data]
    assert len(out) == 2
    by_room = {t.values["room"]: t.values["n"] for t in out}
    assert by_room == {"a": 2, "b": 1}


def test_tentative_input_marks_window_output_tentative():
    op = Aggregate("a", WindowSpec.tumbling(10.0), aggregates=[("n", "count", None)])
    op.process(0, StreamTuple.insertion(0, 1.0, {"v": 1}))
    op.process(0, StreamTuple.tentative(1, 2.0, {"v": 2}))
    out = [t for t in op.process(0, StreamTuple.boundary(9, 10.0)) if t.is_data]
    assert out[0].is_tentative


def test_sliding_window_counts_tuples_in_overlapping_windows():
    op = Aggregate("a", WindowSpec.sliding(size=10.0, slide=5.0), aggregates=[("n", "count", None)])
    feed(op, [(6.0, {"v": 1})])
    out = [t for t in op.process(0, StreamTuple.boundary(9, 30.0)) if t.is_data]
    # stime 6 falls into windows [0,10) and [5,15): two emissions with count 1.
    assert len(out) == 2
    assert all(t.values["n"] == 1 for t in out)


def test_aggregate_functions_are_the_incremental_builtins():
    # A callable -- even the builtin a name stands for -- is refused, naming
    # the functions that are accepted.
    for function in (lambda vs: max(vs) - min(vs), sum, "median"):
        with pytest.raises(OperatorError, match=r"\['avg', 'count', 'max', 'min', 'sum'\]"):
            AggregateSpec("x", function, "v")


def test_checkpoint_restore_preserves_open_windows():
    op = Aggregate("a", WindowSpec.tumbling(10.0), aggregates=[("n", "count", None)])
    feed(op, [(1.0, {"v": 1}), (2.0, {"v": 2})])
    snapshot = op.checkpoint()
    feed(op, [(3.0, {"v": 3})])
    op.restore(snapshot)
    assert op.open_cell_count == 1
    out = [t for t in op.process(0, StreamTuple.boundary(9, 10.0)) if t.is_data]
    assert out[0].values["n"] == 2


def test_determinism_same_input_same_output():
    def run():
        op = Aggregate("a", WindowSpec.tumbling(5.0), aggregates=[("n", "count", None), ("m", "max", "v")])
        out = feed(op, [(i * 0.7, {"v": i}) for i in range(20)])
        out += op.process(0, StreamTuple.boundary(99, 100.0))
        return [(t.stime, tuple(sorted(t.values.items()))) for t in out if t.is_data]

    assert run() == run()


def test_pane_path_matches_naive_recompute_on_a_sliding_window():
    window = WindowSpec.sliding(6.0, 2.0)
    aggregates = [("n", "count", None), ("total", "sum", "v"), ("lo", "min", "v")]
    op = Aggregate("a", window, aggregates=aggregates, group_by=("g",))
    items = [StreamTuple.insertion(i, i * 0.5, {"v": i, "g": i % 3}) for i in range(30)]
    out = op.process_batch(0, [*items, StreamTuple.boundary(99, 50.0)])
    expected = naive_recompute(window, aggregates, items, ("g",), watermark=50.0)
    assert expected
    assert [(t.stime, t.tuple_type, t.values) for t in out if t.is_data] == expected


def test_grouped_empty_windows_emit_nothing_even_with_emit_empty_windows():
    # Explicit contract: emit_empty_windows only applies to the ungrouped
    # form -- an empty grouped window has no group key to attach a row to.
    grouped = Aggregate(
        "a",
        WindowSpec.tumbling(10.0),
        aggregates=[("n", "count", None)],
        group_by=("room",),
        emit_empty_windows=True,
    )
    out = [t for t in grouped.process(0, StreamTuple.boundary(9, 30.0)) if t.is_data]
    assert out == []
    ungrouped = Aggregate(
        "a",
        WindowSpec.tumbling(10.0),
        aggregates=[("n", "count", None), ("total", "sum", "v")],
        emit_empty_windows=True,
    )
    out = [t for t in ungrouped.process(0, StreamTuple.boundary(9, 30.0)) if t.is_data]
    assert len(out) == 3
    assert all(t.values["n"] == 0 and t.values["total"] is None for t in out)


def test_checkpoint_round_trip_is_byte_identical_mid_stream():
    def make():
        return Aggregate(
            "a",
            WindowSpec.sliding(6.0, 2.0),
            aggregates=[("n", "count", None), ("total", "sum", "v"), ("hi", "max", "v")],
            group_by=("g",),
        )

    def canonical(tuples):
        return [(t.stime, t.tuple_type, tuple(sorted(t.values.items()))) for t in tuples if t.is_data]

    head = [(i * 0.7, {"v": i, "g": i % 2}) for i in range(12)]
    tail = [(i * 0.7, {"v": i, "g": i % 2}) for i in range(12, 24)]

    reference = make()
    expected = feed(reference, head + tail)
    expected += reference.process(0, StreamTuple.boundary(99, 50.0))

    op = make()
    feed(op, head)
    snapshot = op.checkpoint()
    feed(op, [(100.0, {"v": 999, "g": 0})])  # diverge, then roll back
    op.restore(snapshot)
    resumed = feed(op, tail)
    resumed += op.process(0, StreamTuple.boundary(99, 50.0))
    assert canonical(resumed) == canonical(expected)


def test_restore_rejects_checkpoints_of_another_spec_list():
    def make(aggregates):
        return Aggregate("a", WindowSpec.tumbling(10.0), aggregates=aggregates)

    two = make([("n", "count", None), ("total", "sum", "v")])
    feed(two, [(1.0, {"v": 1})])
    for aggregates in (
        [("n", "count", None)],
        [("n", "count", None), ("total", "sum", "v"), ("hi", "max", "v")],
    ):
        with pytest.raises(OperatorError, match="aggregate specs"):
            make(aggregates).restore(two.checkpoint())


def test_restore_rejects_checkpoints_of_another_function():
    total = Aggregate("a", WindowSpec.tumbling(10.0), aggregates=[("x", "sum", "v")])
    feed(total, [(1.0, {"v": 1})])
    highest = Aggregate("a", WindowSpec.tumbling(10.0), aggregates=[("x", "max", "v")])
    with pytest.raises(OperatorError, match="cannot restore 'sum' snapshot"):
        highest.restore(total.checkpoint())


def test_pane_state_is_bounded_by_groups_times_panes():
    op = Aggregate(
        "a",
        WindowSpec.sliding(10.0, 1.0),
        aggregates=[("n", "count", None)],
        group_by=("g",),
    )
    groups = 3
    for i in range(400):
        stime = i * 0.25
        op.process(0, StreamTuple.insertion(i, stime, {"v": i, "g": i % groups}))
        if i % 40 == 39:
            op.process(0, StreamTuple.boundary(1000 + i, stime))
            # Live panes span at most the window size plus the pane not yet
            # closed: groups * (panes_per_window + 1) cells.
            assert op.open_cell_count <= groups * (op.window.pane.per_window + 1)


def test_process_batch_matches_tuple_at_a_time_processing():
    items = [StreamTuple.insertion(i, i * 0.3, {"v": i, "g": i % 2}) for i in range(40)]
    items.append(StreamTuple.boundary(99, 20.0))

    def canonical(tuples):
        return [(t.stime, tuple(sorted(t.values.items()))) for t in tuples if t.is_data]

    def make():
        return Aggregate(
            "a",
            WindowSpec.sliding(3.0, 1.0),
            aggregates=[("n", "count", None), ("total", "sum", "v")],
            group_by=("g",),
        )

    batched = make().process_batch(0, items)
    one_at_a_time: list = []
    op = make()
    for item in items:
        one_at_a_time += op.process(0, item)
    assert canonical(batched) == canonical(one_at_a_time)
