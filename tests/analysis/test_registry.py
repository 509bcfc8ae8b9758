"""Tests for the experiment registry (no simulation runs)."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import cli
from repro.analysis import registry
from repro.analysis.comparison import ShapeCheck
from repro.analysis.paper import PAPER_CLAIMS, paper_claim
from repro.analysis.report import ReportSection
from repro.analysis.tables import ResultTable
from repro.experiments import ExperimentResult


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
        "'repro.experiments', 'repro.cli', 'repro.workloads.catalogue'))]\n"
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


# --------------------------------------------------------------------------- doctored results
def _failed(section: ReportSection) -> list[str]:
    return [check.name for check in section.checks if not check.passed]


def _run(duration: float, label: str, names: tuple, tentative: dict, proc_new: float = 1.4,
         **extra) -> ExperimentResult:
    """A fan-in or shard-kill run whose ``extra["groups"]`` holds ``tentative`` per node group."""
    extra["groups"] = {name: {"stable": 900, "tentative": tentative.get(name, 0), "undos": 0}
                       for name in names}
    return ExperimentResult(
        label=label, failure_duration=duration, chain_depth=1, policy="p", proc_new=proc_new,
        max_gap=proc_new, n_tentative=400, n_stable=5000, n_undos=400, n_rec_done=1,
        eventually_consistent=True, extra={**extra, "availability_bound": 3.0},
    )


_SHARD_PARTS = ("split", "shard1", "shard2", "shard3", "shard4", "merge")


def _shard_kill(duration: float, survivor_tentative: int = 0, merge_tentative: int = 800,
                proc_new: float = 1.4) -> ExperimentResult:
    return _run(duration, "shard-4", _SHARD_PARTS,
                {"shard3": survivor_tentative, "merge": merge_tentative}, proc_new,
                states={name: ["stable", "stable"] for name in _SHARD_PARTS},
                planner={"moves": 0})


def test_shard_checks_pass_when_only_the_merge_goes_tentative():
    section = registry._shard_section([_shard_kill(4.0), _shard_kill(8.0)])
    assert _failed(section) == []
    # One consistency check, then survivors, failed parts, bound, STABLE and moves per run.
    assert len(section.checks) == 1 + 5 * 2


def test_shard_checks_fail_on_a_survivor_with_tentative_output():
    failed = _failed(registry._shard_section([_shard_kill(4.0), _shard_kill(8.0, 5)]))
    assert failed == ["shard2, shard3, shard4 stable, never tentative (8 s failure)"]


def test_shard_checks_fail_when_the_merge_never_goes_tentative():
    failed = _failed(registry._shard_section([_shard_kill(4.0, merge_tentative=0)]))
    assert failed == ["tentative output from merge (4 s failure)"]


def test_shard_checks_fail_when_the_merge_exceeds_its_bound():
    failed = _failed(registry._shard_section([_shard_kill(4.0), _shard_kill(8.0, proc_new=3.5)]))
    assert failed == ["the merge meets the bound (8 s failure)"]


def test_shard_checks_fail_when_a_replica_group_does_not_end_stable():
    unsettled = _shard_kill(4.0)
    unsettled.extra["states"]["merge"] = ["stable", "up_failure"]
    assert _failed(registry._shard_section([unsettled])) == [
        "every replica group ends STABLE (4 s failure)"
    ]


def test_shard_checks_fail_when_the_planner_wants_bucket_moves():
    skewed = _shard_kill(4.0)
    skewed.extra["planner"]["moves"] = 2
    assert _failed(registry._shard_section([skewed])) == [
        "the planner wants no bucket moves (4 s failure)"
    ]


def _fanin(duration: float, **tentative: int) -> ExperimentResult:
    return _run(duration, "fanin", ("branch1", "branch2", "merge"),
                {"branch1": 300, "merge": 600, **tentative})


def test_fanin_checks_fail_when_the_other_branch_goes_tentative():
    fanin = registry.EXPERIMENTS["fanin"].section
    assert _failed(fanin([_fanin(4.0), _fanin(8.0)])) == []
    assert _failed(fanin([_fanin(4.0), _fanin(8.0, branch2=7)])) == [
        "branch2 stable, never tentative (8 s failure)"
    ]


def test_fanin_checks_fail_when_the_silent_branch_stays_stable():
    fanin = registry.EXPERIMENTS["fanin"].section
    assert _failed(fanin([_fanin(4.0, branch1=0)])) == [
        "tentative output from branch1 and merge (4 s failure)"
    ]


def _recovery(duration: float, mode: str, recovery_s: float, replayed: int,
              ledger: str = "l1") -> ExperimentResult:
    record = {"mode": mode, "recovery_s": recovery_s, "replayed": replayed,
              "shipped_items": 300 if mode == "checkpoint" else 0, "transfer_delay": 0.07,
              "node": "node1-r0"}
    return ExperimentResult(
        label=f"recovery-{mode}", failure_duration=duration, chain_depth=2, policy="p",
        proc_new=0.45, max_gap=0.45, n_tentative=0, n_stable=1000, n_undos=0, n_rec_done=0,
        eventually_consistent=True, extra={"recoveries": [record], "ledger_sha256": ledger},
    )


def _with(result: ExperimentResult, ledger: str | None = None, **record) -> ExperimentResult:
    """``result`` with its rejoin record (or ledger digest) changed."""
    extra = dict(result.extra, recoveries=[dict(result.extra["recoveries"][-1], **record)])
    if ledger is not None:
        extra["ledger_sha256"] = ledger
    return replace(result, extra=extra)


_RECOVERY_RUNS = [
    _recovery(4.0, "checkpoint", 0.17, 129), _recovery(4.0, "replay", 0.4, 480),
    _recovery(10.0, "checkpoint", 0.17, 126), _recovery(10.0, "replay", 1.0, 1200),
]


def test_recovery_checks_fail_when_the_checkpoint_path_is_slower_than_replay():
    assert _failed(registry._recovery_section(_RECOVERY_RUNS)) == []
    slow = _RECOVERY_RUNS[:2] + [_with(_RECOVERY_RUNS[2], recovery_s=1.2), _RECOVERY_RUNS[3]]
    assert _failed(registry._recovery_section(slow)) == [
        "checkpoint beats replay on modeled time and suffix (10 s failure)",
        "replay cost grows with the outage, checkpoint cost does not as fast",
    ]


def test_recovery_checks_fail_when_the_checkpoint_path_does_not_engage():
    fallback = _RECOVERY_RUNS[:2] + [_with(_RECOVERY_RUNS[2], mode="replay"), _RECOVERY_RUNS[3]]
    assert _failed(registry._recovery_section(fallback)) == [
        "the checkpoint path engages (10 s failure)"
    ]


def test_recovery_checks_fail_when_the_ledgers_differ():
    diverged = [_RECOVERY_RUNS[0], _with(_RECOVERY_RUNS[1], ledger="l2"), *_RECOVERY_RUNS[2:]]
    assert _failed(registry._recovery_section(diverged)) == [
        "both modes end with the same stable ledger (4 s failure)"
    ]


def test_recovery_checks_let_outages_under_4_s_prefer_replay():
    short = [_recovery(2.0, "replay", 0.2, 240), _recovery(2.0, "replay", 0.2, 240)]
    section = registry._recovery_section(short + _RECOVERY_RUNS[2:])
    assert _failed(section) == []
    assert [check.name for check in section.checks if "(2 s failure)" in check.name] == [
        "both modes end with the same stable ledger (2 s failure)"
    ]


def test_recovery_checks_fail_when_replay_cost_does_not_grow():
    flat = _RECOVERY_RUNS[:3] + [_with(_RECOVERY_RUNS[3], recovery_s=0.4)]
    assert _failed(registry._recovery_section(flat)) == [
        "replay cost grows with the outage, checkpoint cost does not as fast"
    ]


def test_recovery_table_reads_the_last_rejoin_and_compares_ledgers():
    [table] = registry._recovery_section(_RECOVERY_RUNS).tables
    assert table.as_dict()["10 s"] == {
        "ckpt mode": "checkpoint", "ckpt recovery (s)": 0.17, "replay recovery (s)": 1.0,
        "ckpt suffix": 126, "replay suffix": 1200, "shipped items": 300,
        "ledgers identical": True,
    }


def _throughput_run(label: str, events: int, egress: int, stable: int = 17757,
                    proc_new: float = 0.3, consistent: bool = True) -> ExperimentResult:
    return ExperimentResult(
        label=label, failure_duration=0.0, chain_depth=3, policy="p", proc_new=proc_new,
        max_gap=proc_new, n_tentative=0, n_stable=stable, n_undos=0, n_rec_done=0,
        eventually_consistent=consistent,
        extra={"events_fired": events, "split_egress": egress, "operators": 16,
               "wall_seconds": stable / 5e4},
    )


_THROUGHPUT_RUNS = [_throughput_run("shard-1", 3296, 18026),
                    _throughput_run("shard-4", 5087, 18473),
                    _throughput_run("chain-10", 6435, 0)]


def test_shard_throughput_checks_fail_on_full_stream_egress():
    runs = _THROUGHPUT_RUNS
    assert _failed(registry._shard_throughput_section(runs)) == []
    broadcast = [runs[0], _throughput_run("shard-4", 5087, 4 * 17757), runs[2]]
    assert _failed(registry._shard_throughput_section(broadcast)) == [
        "the split sends about one copy per stable tuple, not one per shard"
    ]


def test_shard_throughput_checks_fail_on_a_cheap_chain():
    runs = _THROUGHPUT_RUNS
    cheap = _throughput_run("chain-10", int(1.1 * 5087), 0)
    assert _failed(registry._shard_throughput_section(runs[:2] + [cheap])) == [
        "chain(10) fires >= 1.25x shard(4)'s events per stable tuple"
    ]


def test_shard_throughput_checks_fail_when_proc_new_reaches_x_or_a_run_diverges():
    runs = _THROUGHPUT_RUNS
    check = "every run is consistent with Proc_new < X = 3 s"
    late = [runs[0], _throughput_run("shard-4", 5087, 18473, proc_new=3.0), runs[2]]
    assert _failed(registry._shard_throughput_section(late)) == [check]
    diverged = runs[:2] + [_throughput_run("chain-10", 6435, 0, consistent=False)]
    assert _failed(registry._shard_throughput_section(diverged)) == [check]


def test_shard_throughput_checks_fail_when_shard_counts_deliver_different_output():
    runs = _THROUGHPUT_RUNS
    short = [_throughput_run("shard-1", 3296, 18026, stable=17000), runs[1], runs[2]]
    assert _failed(registry._shard_throughput_section(short)) == [
        "every shard count delivers the same stable output"
    ]


def test_shard_throughput_table_names_deployments_and_reads_wall_clock_throughput():
    [table] = registry._shard_throughput_section(_THROUGHPUT_RUNS).tables
    assert table.rows == ["shard(1)", "shard(4)", "chain(10)"]
    assert table.get("shard(4)", "tuples_per_second") == pytest.approx(5e4)
    assert table.get("chain(10)", "operators") == 16
