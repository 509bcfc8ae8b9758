"""Tests for result-table pivoting and rendering."""

import pytest

from repro.analysis.tables import (
    ResultTable,
    metric_by_duration,
    pivot_results,
    proc_new_by_depth,
    render_csv,
    render_markdown,
    render_text,
    tentative_by_depth,
)
from repro.experiments.harness import ExperimentResult


def make_result(label="Process & Process", duration=10.0, depth=1, proc_new=2.5, tentative=100):
    return ExperimentResult(
        label=label,
        failure_duration=duration,
        chain_depth=depth,
        policy=label,
        proc_new=proc_new,
        max_gap=proc_new,
        n_tentative=tentative,
        n_stable=1000,
        n_undos=1,
        n_rec_done=1,
        eventually_consistent=True,
    )


@pytest.fixture
def results():
    return [
        make_result("Delay & Delay", depth=1, proc_new=2.0, tentative=50),
        make_result("Delay & Delay", depth=2, proc_new=4.0, tentative=40),
        make_result("Process & Process", depth=1, proc_new=2.2, tentative=90),
        make_result("Process & Process", depth=2, proc_new=2.3, tentative=95),
    ]


def test_set_and_get_preserve_insertion_order():
    table = ResultTable(title="t", row_label="r", column_label="c")
    table.set("b", 2, 1.0)
    table.set("a", 1, 2.0)
    assert table.rows == ["b", "a"]
    assert table.columns == [2, 1]
    assert table.get("a", 1) == 2.0
    assert table.get("a", 2) is None


def test_as_dict():
    table = ResultTable(title="t", row_label="r", column_label="c")
    table.set("x", "a", 1)
    table.set("y", "b", 2)
    assert table.as_dict() == {"x": {"a": 1, "b": None}, "y": {"a": None, "b": 2}}


def test_pivot_results(results):
    table = pivot_results(
        results,
        title="pivot",
        row=lambda r: r.label,
        column=lambda r: r.chain_depth,
        value=lambda r: r.proc_new,
    )
    assert table.get("Delay & Delay", 2) == 4.0
    assert table.get("Process & Process", 1) == 2.2


def test_canned_pivots(results):
    proc = proc_new_by_depth(results, "p")
    tent = tentative_by_depth(results, "t")
    dur = metric_by_duration(results, "d", lambda r: r.n_tentative)
    assert proc.get("Delay & Delay", 1) == 2.0
    assert tent.get("Process & Process", 2) == 95
    assert dur.get("Delay & Delay", 10.0) in (50, 40)


def test_render_text_contains_all_cells(results):
    table = proc_new_by_depth(results, "Figure 15")
    rendered = render_text(table)
    assert "Figure 15" in rendered
    assert "Delay & Delay" in rendered
    assert "4.00" in rendered


def test_render_markdown_shape(results):
    table = proc_new_by_depth(results, "Figure 15")
    rendered = render_markdown(table)
    lines = rendered.splitlines()
    assert lines[0].startswith("| policy")
    assert set(lines[1].replace("|", "")) <= {"-"}
    assert len(lines) == 2 + 2  # header + separator + one line per policy


def test_render_csv_escapes_commas():
    table = ResultTable(title="t", row_label="r", column_label="c")
    table.set('a,"b"', "col", 1)
    rendered = render_csv(table)
    assert '"a,""b"""' in rendered


def test_render_handles_none_and_bool():
    table = ResultTable(title="t", row_label="r", column_label="c")
    table.set("x", "a", None)
    table.set("x", "b", True)
    text = render_text(table)
    assert "-" in text
    assert "yes" in text


def test_depth_pivots_give_one_row_per_policy_for_chain_labels():
    runs = [
        ExperimentResult(
            label=f"{policy} (depth {depth})", failure_duration=30.0, chain_depth=depth,
            policy=policy, proc_new=float(depth), max_gap=0.0, n_tentative=10 * depth,
            n_stable=1, n_undos=0, n_rec_done=0, eventually_consistent=True,
        )
        for policy in ("Process & Process", "Delay & Delay")
        for depth in (1, 2, 4)
    ]
    for table in (proc_new_by_depth(runs, "p"), tentative_by_depth(runs, "t")):
        assert table.rows == ["Process & Process", "Delay & Delay"]
        assert table.columns == [1, 2, 4]
        assert all(None not in row.values() for row in table.as_dict().values())
    assert proc_new_by_depth(runs, "p").get("Delay & Delay", 4) == 4.0
