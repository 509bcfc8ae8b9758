"""Tests for the experiment registry (no simulation runs)."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from repro import cli
from repro.analysis import registry
from repro.analysis.comparison import ShapeCheck
from repro.analysis.paper import PAPER_CLAIMS, paper_claim
from repro.analysis.report import ReportSection
from repro.analysis.tables import ResultTable
from repro.experiments.ablations import RecoveryResult
from repro.experiments.harness import ExperimentResult


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


# --------------------------------------------------------------------------- doctored results
def _failed(section: ReportSection) -> list[str]:
    return [check.name for check in section.checks if not check.passed]


def _parts(duration: float, label: str, parts: str, names: tuple, tentative: dict,
           proc_new: float = 1.4, **extra) -> ExperimentResult:
    """A fan-in or shard-kill run whose ``extra[parts]`` holds ``tentative`` per part."""
    extra[parts] = {name: {"stable": 900, "tentative": tentative.get(name, 0), "undos": 0}
                    for name in names}
    return ExperimentResult(
        label=label, failure_duration=duration, chain_depth=1, policy="p", proc_new=proc_new,
        max_gap=proc_new, n_tentative=400, n_stable=5000, n_undos=400, n_rec_done=1,
        eventually_consistent=True, extra={**extra, "availability_bound": 3.0},
    )


_SHARD_PARTS = ("split", "shard1", "shard2", "shard3", "shard4", "merge")


def _shard_kill(duration: float, survivor_tentative: int = 0, merge_tentative: int = 800,
                proc_new: float = 1.4) -> ExperimentResult:
    return _parts(duration, "shard-4", "shards", _SHARD_PARTS,
                  {"shard3": survivor_tentative, "merge": merge_tentative}, proc_new,
                  survivors=["shard2", "shard3", "shard4"],
                  shard_states={name: ["stable", "stable"] for name in _SHARD_PARTS},
                  rebalance={"moves": 0})


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
    unsettled.extra["shard_states"]["merge"] = ["stable", "up_failure"]
    assert _failed(registry._shard_section([unsettled])) == [
        "every replica group ends STABLE (4 s failure)"
    ]


def test_shard_checks_fail_when_the_planner_wants_bucket_moves():
    skewed = _shard_kill(4.0)
    skewed.extra["rebalance"]["moves"] = 2
    assert _failed(registry._shard_section([skewed])) == [
        "the planner wants no bucket moves (4 s failure)"
    ]


def _fanin(duration: float, **tentative: int) -> ExperimentResult:
    return _parts(duration, "fanin", "branches", ("branch1", "branch2", "merge"),
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


def _recovery(duration: float, mode: str, recovery_s: float, replayed: int) -> RecoveryResult:
    return RecoveryResult(
        label=mode, mode=mode, failure_duration=duration, recovery_s=recovery_s,
        replayed=replayed, shipped_items=300 if mode == "checkpoint" else 0, transfer_delay=0.07,
        proc_new=0.45, tuples_processed=1000, recovery_checkpoints=10,
        eventually_consistent=True, ledger_rows=((1, 2.0),),
    )


_RECOVERY_PAIRS = [
    (_recovery(4.0, "checkpoint", 0.17, 129), _recovery(4.0, "replay", 0.4, 480)),
    (_recovery(10.0, "checkpoint", 0.17, 126), _recovery(10.0, "replay", 1.0, 1200)),
]


def test_recovery_checks_fail_when_the_checkpoint_path_is_slower_than_replay():
    assert _failed(registry._recovery_section(_RECOVERY_PAIRS)) == []
    slow = (replace(_RECOVERY_PAIRS[1][0], recovery_s=1.2), _RECOVERY_PAIRS[1][1])
    assert _failed(registry._recovery_section([_RECOVERY_PAIRS[0], slow])) == [
        "checkpoint beats replay on modeled time and suffix (10 s failure)",
        "replay cost grows with the outage, checkpoint cost does not as fast",
    ]


def test_recovery_checks_fail_when_the_checkpoint_path_does_not_engage():
    fallback = (replace(_RECOVERY_PAIRS[1][0], mode="replay"), _RECOVERY_PAIRS[1][1])
    assert _failed(registry._recovery_section([_RECOVERY_PAIRS[0], fallback])) == [
        "the checkpoint path engages (10 s failure)"
    ]


def test_recovery_checks_fail_when_the_ledgers_differ():
    diverged = (_RECOVERY_PAIRS[0][0], replace(_RECOVERY_PAIRS[0][1], ledger_rows=((1, 3.0),)))
    assert _failed(registry._recovery_section([diverged, _RECOVERY_PAIRS[1]])) == [
        "both modes end with the same stable ledger (4 s failure)"
    ]


def test_recovery_checks_let_outages_under_4_s_prefer_replay():
    short = (_recovery(2.0, "replay", 0.2, 240), _recovery(2.0, "replay", 0.2, 240))
    section = registry._recovery_section([short, _RECOVERY_PAIRS[1]])
    assert _failed(section) == []
    assert [check.name for check in section.checks if "(2 s failure)" in check.name] == [
        "both modes end with the same stable ledger (2 s failure)"
    ]


def test_recovery_checks_fail_when_replay_cost_does_not_grow():
    flat = (_RECOVERY_PAIRS[1][0], replace(_RECOVERY_PAIRS[1][1], recovery_s=0.4))
    assert _failed(registry._recovery_section([_RECOVERY_PAIRS[0], flat])) == [
        "replay cost grows with the outage, checkpoint cost does not as fast"
    ]


def _throughput_row(label: str, events: int, egress: int) -> dict:
    return {"label": label, "tuples_per_second": 5e4, "events_fired": events,
            "events_per_tuple": events / 17757, "split_egress": egress, "proc_new": 0.3,
            "operators": 16, "eventually_consistent": True, "stable_tuples": 17757}


_THROUGHPUT_ROWS = [_throughput_row("shard(1)", 3296, 18026),
                    _throughput_row("shard(4)", 5087, 18473),
                    _throughput_row("chain(10)", 6435, 0)]


def test_shard_throughput_checks_fail_on_full_stream_egress():
    rows = _THROUGHPUT_ROWS
    assert _failed(registry._shard_throughput_section(rows)) == []
    broadcast = [rows[0], dict(rows[1], split_egress=4 * 17757), rows[2]]
    assert _failed(registry._shard_throughput_section(broadcast)) == [
        "the split sends about one copy per stable tuple, not one per shard"
    ]


def test_shard_throughput_checks_fail_on_a_cheap_chain():
    rows = _THROUGHPUT_ROWS
    cheap = dict(rows[2], events_per_tuple=1.1 * rows[1]["events_per_tuple"])
    assert _failed(registry._shard_throughput_section(rows[:2] + [cheap])) == [
        "chain(10) fires >= 1.25x shard(4)'s events per stable tuple"
    ]


def test_shard_throughput_checks_fail_when_proc_new_reaches_x_or_a_run_diverges():
    rows = _THROUGHPUT_ROWS
    check = "every run is consistent with Proc_new < X = 3 s"
    late = [rows[0], dict(rows[1], proc_new=3.0), rows[2]]
    assert _failed(registry._shard_throughput_section(late)) == [check]
    diverged = rows[:2] + [dict(rows[2], eventually_consistent=False)]
    assert _failed(registry._shard_throughput_section(diverged)) == [check]


def test_shard_throughput_checks_fail_when_shard_counts_deliver_different_output():
    rows = _THROUGHPUT_ROWS
    short = [dict(rows[0], stable_tuples=17000), rows[1], rows[2]]
    assert _failed(registry._shard_throughput_section(short)) == [
        "every shard count delivers the same stable output"
    ]
