"""Tests for the paper-vs-measured report generator."""

from repro.analysis.comparison import check_flat, check_within
from repro.analysis.paper import paper_claim
from repro.analysis.report import ExperimentReport, ReportSection
from repro.analysis.tables import ResultTable


def make_section(experiment_id="table3", passing=True):
    section = ReportSection(claim=paper_claim(experiment_id))
    section.configuration = {"aggregate_rate": 150.0, "X": 3.0}
    table = ResultTable(title="Proc_new (s)", row_label="policy", column_label="failure (s)")
    table.set("Process & Process", 2.0, 2.29)
    table.set("Process & Process", 30.0, 3.23)
    section.add_table(table)
    section.add_check(check_within("meets bound", 3.23 if passing else 5.0, 3.0, slack=0.75))
    section.add_check(check_flat("flat", [3.2, 3.23, 3.23]))
    return section


def test_section_passed_reflects_checks():
    assert make_section(passing=True).passed
    assert not make_section(passing=False).passed


def test_section_markdown_contains_all_parts():
    text = make_section().to_markdown()
    assert "### Table III" in text
    assert "**Paper claim.**" in text
    assert "aggregate_rate=150.0" in text
    assert "| policy" in text
    assert "[PASS]" in text
    assert "Shape checks (2/2 passed)" in text


def test_report_summary():
    report = ExperimentReport(title="Reproduction", preamble="All runs on the simulator.")
    report.add_section(make_section("table3"))
    report.add_section(make_section("fig15", passing=False))
    assert not report.all_passed
    summary = report.summary_table()
    assert summary.get("table3", "status") == "ok"
    assert summary.get("fig15", "status") == "MISMATCH"


def test_report_markdown_structure():
    report = ExperimentReport(title="Reproduction report")
    report.add_section(make_section())
    text = report.to_markdown()
    assert text.startswith("# Reproduction report")
    assert "## Summary" in text
    assert "## Per-experiment results" in text
    assert text.endswith("\n")


def test_report_write(tmp_path):
    report = ExperimentReport()
    report.add_section(make_section())
    target = tmp_path / "EXPERIMENTS.md"
    report.write(str(target))
    content = target.read_text(encoding="utf-8")
    assert "Table III" in content
