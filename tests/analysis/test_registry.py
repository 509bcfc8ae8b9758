"""Tests for the experiment registry (no simulation runs)."""

import subprocess
import sys
from pathlib import Path

from repro import cli
from repro.analysis import registry
from repro.analysis.comparison import ShapeCheck
from repro.analysis.paper import PAPER_CLAIMS, paper_claim
from repro.analysis.report import ReportSection
from repro.analysis.tables import ResultTable


def test_every_paper_claim_resolves_to_an_entry_with_checks():
    for claim in PAPER_CLAIMS:
        entry = registry.EXPERIMENTS[claim.experiment_id]
        assert entry.section is not None, claim.experiment_id
        assert entry.claim is claim


def test_every_entry_has_a_description_and_a_grid_per_scale():
    assert cli.EXPERIMENTS is registry.EXPERIMENTS
    for name, entry in registry.EXPERIMENTS.items():
        assert entry.name == name
        assert entry.description.strip()
        assert set(entry.grids) == set(registry.SCALES)
        if entry.claim is not None:
            assert entry.description == entry.claim.title


def _failing_entry(measure=lambda grid: [grid]):
    def section(results):
        table = ResultTable(title="fake", row_label="r", column_label="c")
        table.set("row", "col", len(results))
        return ReportSection(
            claim=paper_claim("table3"),
            tables=[table],
            checks=[
                ShapeCheck(name="holds", passed=True, detail="ok"),
                ShapeCheck(name="breaks", passed=False, detail="value=5"),
            ],
        )

    return registry.Experiment("fake", "a failing fake", measure, section=section)


def test_run_prints_failed_checks_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "EXPERIMENTS", {"fake": _failing_entry()})
    assert cli.main(["run", "fake"]) == 1
    out = capsys.readouterr().out
    assert out.index("fake") < out.index("shape checks (1/2 passed)")
    assert "[PASS] holds: ok" in out
    assert "[FAIL] breaks: value=5" in out


def test_report_runs_a_shared_measurement_once(monkeypatch):
    calls = []

    def measure(grid):
        calls.append(grid)
        return [grid]

    shared = _failing_entry(measure)
    entries = {
        "table3": shared,
        "fig15": registry.Experiment("fig15", "same run", measure, shared.grids, shared.section),
        "tables-only": registry.Experiment("tables-only", "no checks", lambda grid: []),
    }
    monkeypatch.setattr(registry, "EXPERIMENTS", entries)
    report = registry.build_report()
    assert calls == ["quick"]
    assert len(report.sections) == 2
    assert not report.all_passed


def test_importing_the_registry_runs_nothing():
    src = Path(__file__).resolve().parents[2] / "src"
    probe = (
        "import sys, repro\n"
        "loaded = [m for m in sys.modules if m.startswith(('repro.analysis', "
        "'repro.experiments', 'repro.cli'))]\n"
        "assert not loaded, loaded\n"
        "from repro.runtime import ScenarioSpec\n"
        "def refuse(*args, **kwargs):\n"
        "    raise SystemExit('a scenario ran at import')\n"
        "ScenarioSpec.build = ScenarioSpec.run = refuse\n"
        "from repro.analysis.registry import EXPERIMENTS\n"
        "print(len(EXPERIMENTS))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={"PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert int(out.stdout) == len(registry.EXPERIMENTS)
