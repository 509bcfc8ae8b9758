"""Tests for the report-section builders (fed with synthetic results)."""

import pytest

from repro.analysis.builders import (
    build_delay_assignment_section,
    build_fig15_section,
    build_overhead_section,
    build_table3_section,
    build_tentative_vs_depth_section,
)
from repro.experiments import ExperimentResult, OverheadRow
from repro.metrics.latency import LatencySummary


def result(label, duration, depth=1, proc_new=3.2, tentative=1000, consistent=True):
    return ExperimentResult(
        label=label,
        failure_duration=duration,
        chain_depth=depth,
        policy=label,
        proc_new=proc_new,
        max_gap=proc_new,
        n_tentative=tentative,
        n_stable=10_000,
        n_undos=1,
        n_rec_done=1,
        eventually_consistent=consistent,
    )


# --------------------------------------------------------------------------- Table III
def table3_results(flat=True):
    return [
        result("Table III", 2.0, proc_new=2.3, tentative=0),
        result("Table III", 10.0, proc_new=3.2),
        result("Table III", 30.0, proc_new=3.25 if flat else 6.0),
    ]


def test_table3_section_passes_for_flat_results():
    section = build_table3_section(table3_results(flat=True))
    assert section.passed
    markdown = section.to_markdown()
    assert "paper" in markdown and "measured" in markdown
    # The paper reference values appear in the comparison table.
    assert "2.2" in markdown and "2.8" in markdown


def test_table3_section_fails_when_latency_grows():
    section = build_table3_section(table3_results(flat=False))
    assert not section.passed


def test_table3_section_fails_on_inconsistent_run():
    results = table3_results() + [result("Table III", 60.0, consistent=False)]
    section = build_table3_section(results)
    assert not section.passed


# --------------------------------------------------------------------------- Figure 15
def fig15_results(delay_grows=True):
    rows = []
    for depth in (1, 2, 4):
        rows.append(result(f"Process & Process (depth {depth})", 30.0, depth=depth, proc_new=2.4 + 0.3 * (depth - 1)))
        delay_latency = 2.3 + (1.9 * (depth - 1) if delay_grows else 0.0)
        rows.append(result(f"Delay & Delay (depth {depth})", 30.0, depth=depth, proc_new=delay_latency))
    return rows


def test_fig15_section_passes_for_expected_shape():
    section = build_fig15_section(fig15_results())
    assert section.passed


def test_fig15_section_fails_when_a_run_breaks_the_bound():
    rows = fig15_results()
    rows.append(result("Process & Process (depth 4)", 30.0, depth=4, proc_new=20.0))
    assert not build_fig15_section(rows).passed


# --------------------------------------------------------------------------- Figures 16 / 18
def chain_tentative_results(duration, delay_saves=True):
    rows = []
    for depth in (1, 2, 4):
        process_count = 800 * depth
        delay_count = process_count - (300 * depth if delay_saves else -50)
        rows.append(result(f"Process & Process (depth {depth})", duration, depth=depth, tentative=process_count))
        rows.append(result(f"Delay & Delay (depth {depth})", duration, depth=depth, tentative=max(delay_count, 0)))
    return rows


def test_fig16_section_requires_delaying_to_save():
    assert build_tentative_vs_depth_section(
        chain_tentative_results(5.0, delay_saves=True), experiment_id="fig16"
    ).passed
    assert not build_tentative_vs_depth_section(
        chain_tentative_results(5.0, delay_saves=False), experiment_id="fig16"
    ).passed


def test_fig18_section_requires_marginal_gain():
    marginal = []
    for depth in (1, 4):
        marginal.append(result(f"Process & Process (depth {depth})", 60.0, depth=depth, tentative=10_000))
        marginal.append(result(f"Delay & Delay (depth {depth})", 60.0, depth=depth, tentative=9_500))
    assert build_tentative_vs_depth_section(marginal, experiment_id="fig18").passed
    large_gain = [
        result("Process & Process (depth 4)", 60.0, depth=4, tentative=10_000),
        result("Delay & Delay (depth 4)", 60.0, depth=4, tentative=2_000),
    ]
    assert not build_tentative_vs_depth_section(large_gain, experiment_id="fig18").passed


# --------------------------------------------------------------------------- Figures 19 / 20
def delay_assignment_results(full_masks_short=True):
    rows = []
    for duration in (5.0, 10.0):
        rows.append(result("Process & Process, D=2s each", duration, depth=4, proc_new=3.4, tentative=1000))
        rows.append(
            result(
                "Process & Process, D=6.5s each",
                duration,
                depth=4,
                proc_new=7.4,
                tentative=0 if duration == 5.0 and full_masks_short else 2300,
            )
        )
    return rows


def test_delay_assignment_section_passes_when_full_budget_masks_short_failure():
    section = build_delay_assignment_section(delay_assignment_results())
    assert section.passed


def test_delay_assignment_section_fails_otherwise():
    assert not build_delay_assignment_section(delay_assignment_results(full_masks_short=False)).passed


def test_delay_assignment_section_fails_when_budget_broken():
    rows = delay_assignment_results()
    rows.append(result("Process & Process, D=6.5s each", 15.0, depth=4, proc_new=12.0, tentative=100))
    assert not build_delay_assignment_section(rows).passed


# --------------------------------------------------------------------------- Tables IV / V
def overhead_rows(growing=True):
    rows = [OverheadRow(parameter_ms=0.0, latency=LatencySummary(100, 0.010, 0.012, 0.011, 0.001))]
    for index, parameter in enumerate((10.0, 100.0, 500.0)):
        scale = (index + 1) if growing else (3 - index)
        rows.append(
            OverheadRow(
                parameter_ms=parameter,
                latency=LatencySummary(100, 0.012, 0.05 * scale, 0.03 * scale, 0.01 * scale),
            )
        )
    return rows


@pytest.mark.parametrize("experiment_id", ["table4", "table5"])
def test_overhead_section_passes_for_linear_growth(experiment_id):
    section = build_overhead_section(overhead_rows(), experiment_id=experiment_id)
    assert section.passed
    markdown = section.to_markdown()
    assert "paper max" in markdown
    assert "measured max" in markdown


def test_overhead_section_fails_for_non_monotonic_latency():
    assert not build_overhead_section(overhead_rows(growing=False), experiment_id="table4").passed
