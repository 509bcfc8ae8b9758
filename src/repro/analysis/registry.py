"""The experiment registry: every table, figure and ablation, declared once.

Each :class:`Experiment` holds one grid per scale (``quick``: the reduced sweep
its shape checks were validated on; ``full``: the paper's grid), the runs to
make on a grid, and the tables and shape checks made of the results.
``python -m repro run`` / ``list`` / ``claims`` / ``report`` and CI only read
this module, so an id runs the same grid wherever it is named.  Importing it
runs nothing: ``EXPERIMENTS["fig15"].run("quick")`` returns (tables, checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..errors import LiveBackendUnavailable
from ..experiments import ablations, chains, dags, overhead, shards, single_node
from ..experiments.harness import ExperimentResult
from ..metrics.consistency import stable_ledger_rows
from ..runtime import ScenarioSpec
from .builders import (
    build_delay_assignment_section,
    build_fig15_section,
    build_overhead_section,
    build_table3_section,
    build_tentative_vs_depth_section,
    consistency_check,
)
from .comparison import ShapeCheck, check_holds, check_within
from .paper import PAPER_CLAIMS, PaperClaim
from .report import ExperimentReport, ReportSection
from .tables import ResultTable, metric_by_duration

#: The scales every entry has a grid for.
SCALES = ("quick", "full")

_CLAIMS = {claim.experiment_id: claim for claim in PAPER_CLAIMS}


@dataclass(frozen=True)
class Experiment:
    """One experiment: ``measure(grids[scale])`` runs it, ``section`` judges it.

    ``section(results)`` is the paper-vs-measured :class:`ReportSection`
    (tables plus shape checks); without one, ``measure`` returns the tables
    itself.  The grids default to the scale names, so a ``runner(scale) ->
    tables`` makes ``Experiment(name, description, runner)`` a tables-only entry.
    """

    name: str
    description: str
    measure: Callable[[Any], Any]
    grids: Mapping[str, Any] = field(default_factory=lambda: {scale: scale for scale in SCALES})
    section: Callable[[Any], ReportSection] | None = None
    #: The claim the checks encode, where the paper (or an ablation of it) makes one.
    claim: PaperClaim | None = None

    def run(self, scale: str = "quick") -> tuple[list[ResultTable], list[ShapeCheck]]:
        """Run the grid of ``scale``; return the tables and the shape checks."""
        results = self.measure(self.grids[scale])
        if self.section is None:
            return list(results), []
        section = self.section(results)
        return section.tables, section.checks


def build_report(names: Iterable[str] | None = None) -> ExperimentReport:
    """Run the quick grid of every entry with shape checks (or of ``names``); collect the sections.

    Entries with the same measurement and grid (Figures 19 and 20) share one run.
    """
    report = ExperimentReport(
        title="DPC reproduction -- paper-vs-measured report",
        preamble="Generated by `python -m repro report`: the quick grid of every "
        "experiment with shape checks, as `python -m repro run <id>` runs it.",
    )
    measured: dict[tuple, Any] = {}
    for name in EXPERIMENTS if names is None else names:
        entry = EXPERIMENTS[name]
        if entry.section is not None:
            grid = entry.grids["quick"]
            key = (entry.measure, repr(grid))
            if key not in measured:
                measured[key] = entry.measure(grid)
            report.add_section(entry.section(measured[key]))
    return report


# --------------------------------------------------------------------------- helpers
def _section(name: str, tables: Sequence[ResultTable], checks: Sequence[ShapeCheck]) -> ReportSection:
    return ReportSection(claim=_CLAIMS[name], tables=list(tables), checks=list(checks))


def _table(title: str, row_label: str, rows: Iterable[tuple[object, Mapping]]) -> ResultTable:
    """A table with one row per ``(key, {metric: value})`` of ``rows``."""
    table = ResultTable(title=title, row_label=row_label, column_label="metric")
    for key, cells in rows:
        for column, value in cells.items():
            table.set(key, column, value)
    return table


def _cells(result: ExperimentResult, **cells: object) -> dict:
    """``cells`` plus the client's view of one run."""
    return {**cells, "Proc_new (s)": result.proc_new, "N_tentative": result.n_tentative,
            "consistent": result.eventually_consistent}


def _pick(mapping: Mapping, *keys: str) -> dict:
    return {key: mapping[key] for key in keys}


def _by_duration(results: Sequence[ExperimentResult], title: str) -> list[ResultTable]:
    return [
        metric_by_duration(results, f"{title}: Proc_new (s)", lambda r: r.proc_new),
        metric_by_duration(results, f"{title}: N_tentative", lambda r: r.n_tentative),
    ]


def _branch_table(title: str, results: Sequence[ExperimentResult], parts: str) -> ResultTable:
    """Per failure duration: the client's view plus each branch's (or shard's) tentative count."""
    return _table(title, "failure", (
        (f"{r.failure_duration:g} s",
         _cells(r, **{f"{name} tentative": c["tentative"] for name, c in r.extra[parts].items()}))
        for r in results
    ))


def _bound(name: str, proc_new: float) -> ShapeCheck:
    """Proc_new within the single-node bound X = 3 s plus normal processing latency."""
    return check_within(name, proc_new, 3.0, slack=0.75)


# --------------------------------------------------------------------------- paper figures
def _fig11_section(name: str, result: single_node.TraceResult) -> ReportSection:
    table = _table(result.label, "run", [(name, {
        "eventually consistent": result.eventually_consistent, "tentative tuples": result.n_tentative,
        "undo tuples": result.n_undos, "REC_DONE markers": result.n_rec_done,
        "reconciliations": result.reconciliations,
    })])
    return _section(name, [table], [
        check_holds("every tentative tuple is corrected", result.eventually_consistent,
                    undos=result.n_undos),
        check_holds("the failures produce tentative tuples", result.n_tentative > 0,
                    N_tentative=result.n_tentative),
        check_holds("a REC_DONE closes the corrections", result.n_rec_done >= 1,
                    REC_DONE=result.n_rec_done),
    ])


def _fig13_section(results: list[ExperimentResult]) -> ReportSection:
    run = {(r.label, r.failure_duration): r for r in results}
    longest = max(r.failure_duration for r in results)
    checks = [consistency_check(results)]
    for r in results:
        at = f"{r.failure_duration:g} s"
        if r.failure_duration < 3.0:
            checks.append(check_holds(f"{r.label} masks the {at} failure", r.n_tentative == 0,
                                      N_tentative=r.n_tentative))
        if r.label in ("Process & Process", "Delay & Delay"):
            checks.append(check_within(f"{r.label} meets the bound at {at}", r.proc_new, 3.0,
                                       slack=1.0))
        if r.label == "Delay & Delay" and r.failure_duration > 3.0:
            process = run["Process & Process", r.failure_duration].n_tentative
            checks.append(check_holds(f"Delay & Delay no more tentative than Process & Process "
                                      f"at {at}", r.n_tentative <= process,
                                      delay=r.n_tentative, process=process))
    suspend = run.get(("Delay & Suspend", longest))
    if suspend is not None:
        checks.append(check_holds(f"Delay & Suspend breaks the bound at {longest:g} s",
                                  suspend.proc_new > 4.0, Proc_new=suspend.proc_new))
    return _section("fig13", _by_duration(results, "Figure 13"), checks)


def _delay_assignment_section(name: str, results: list[ExperimentResult]) -> ReportSection:
    section = build_delay_assignment_section(results, experiment_id=name)
    longest = max(r.failure_duration for r in results)
    run = {(r.label, r.failure_duration): r.n_tentative for r in results}
    full = run["Process & Process, D=6.5s each", longest]
    uniform = run["Process & Process, D=2s each", longest]
    section.add_check(check_holds(f"whole-budget assignment no worse than uniform at {longest:g} s",
                                  full <= uniform * 1.25 + 100, full=full, uniform=uniform))
    return section


def _overhead_section(name: str, rows: list[overhead.OverheadRow]) -> ReportSection:
    section = build_overhead_section(rows, experiment_id=name)
    small, large = rows[1], rows[-1]  # rows[0] is the plain Union baseline
    growth = large.latency.maximum - small.latency.maximum
    section.add_check(check_holds(
        "maximum latency grows at least half as fast as the parameter",
        growth > 0.5 * (large.parameter_ms - small.parameter_ms) / 1000.0,
        growth_s=growth, parameter_ms=(small.parameter_ms, large.parameter_ms),
    ))
    return section


# --------------------------------------------------------------------------- ablations
def _replicas_section(results: list[ExperimentResult]) -> ReportSection:
    by = {r.label: r for r in results}
    single, replicated = by["1 replica"], by["2 replicas"]
    checks = [consistency_check(results)]
    checks += [_bound(f"{r.label} meet the bound", r.proc_new) for r in results if r is not single]
    checks.append(check_holds("a single replica is never better than two",
                              single.proc_new >= replicated.proc_new - 0.25,
                              single=single.proc_new, replicated=replicated.proc_new))
    return _section("replicas", _by_duration(results, "Ablation: replicas per node"), checks)


def _detection_section(results: list[ablations.DetectionResult]) -> ReportSection:
    table = _table("Ablation: failure detection parameters", "keepalive", (
        (f"{r.keepalive_period * 1000:.0f} ms", {"Proc_new (s)": r.proc_new, "max gap (s)": r.max_gap,
                                                 "N_tentative": r.n_tentative, "switches": r.switches})
        for r in results
    ))
    fast, slow = results[0], results[-1]
    return _section("detection", [table], [
        check_holds("every run is eventually consistent",
                    all(r.eventually_consistent for r in results), runs=len(results)),
        _bound(f"keepalive {fast.keepalive_period * 1000:.0f} ms meets the bound", fast.proc_new),
        check_holds("slower detection never narrows the largest gap",
                    slow.max_gap >= fast.max_gap - 0.3, fast=fast.max_gap, slow=slow.max_gap),
        check_holds("slower detection never lowers Proc_new",
                    slow.proc_new >= fast.proc_new - 0.3, fast=fast.proc_new, slow=slow.proc_new),
    ])


def _crash_section(result: ExperimentResult) -> ReportSection:
    switches = result.extra["switches"]
    table = _table("Ablation: crash failover", "crash", [(
        f"{result.failure_duration:g} s",
        _cells(result, **{"max gap (s)": result.max_gap, "upstream switches": switches}),
    )])
    return _section("crash", [table], [
        consistency_check([result]),
        check_holds("the surviving replica masks the crash", result.n_tentative == 0,
                    N_tentative=result.n_tentative),
        _bound("meets the bound", result.proc_new),
        check_holds("the client switches upstream", switches >= 1, switches=switches),
    ])


def _granularity_section(results: list[ExperimentResult]) -> ReportSection:
    node_wide, per_stream = results
    checks = [consistency_check(results)]
    checks += [_bound(f"{r.label} meets the bound", r.proc_new) for r in results]
    checks.append(check_holds(
        "either granularity yields about as many tentative tuples",
        abs(per_stream.n_tentative - node_wide.n_tentative) <= max(200, 0.3 * node_wide.n_tentative),
        node_wide=node_wide.n_tentative, per_stream=per_stream.n_tentative,
    ))
    return _section("granularity", _by_duration(results, "Ablation: failure granularity"), checks)


def _buffer_runs(checkpoint_intervals: Sequence[float | None]) -> list[ablations.BufferBoundResult]:
    return [
        ablations.buffer_bound_run(
            max_output_tuples=None, block_on_full=True, checkpoint_interval=interval,
            label="no truncation" if interval is None else f"acks every {interval:g} s",
        )
        for interval in checkpoint_intervals
    ]


def _buffers_section(results: list[ablations.BufferBoundResult]) -> ReportSection:
    kept, truncated = results
    table = _table("Ablation: output-buffer truncation", "acknowledgments", (
        (r.label, _pick(vars(r), "buffered_tuples", "client_stable", "proc_new")) for r in results
    ))
    return _section("buffers", [table], [
        check_holds("truncation keeps the buffer over 5x smaller",
                    truncated.buffered_tuples < kept.buffered_tuples / 5,
                    kept=kept.buffered_tuples, truncated=truncated.buffered_tuples),
        check_holds("the client receives the same stable output (within 5 %)",
                    abs(truncated.client_stable - kept.client_stable) <= 0.05 * kept.client_stable,
                    kept=kept.client_stable, truncated=truncated.client_stable),
    ])


def _fanin_section(name: str, title: str, parts: str, survivors: Sequence[str],
                   failed: Sequence[str], results: list[ExperimentResult]) -> ReportSection:
    """Of the ``parts`` merged, only ``failed`` go tentative; the merge meets its bound."""
    checks = [consistency_check(results)]
    for r in results:
        at = f"{r.failure_duration:g} s failure"
        counts = r.extra[parts]
        tentative = {part: c["tentative"] for part, c in counts.items()}
        checks += [
            check_holds(f"{', '.join(survivors)} stable, never tentative ({at})",
                        all(counts[p]["tentative"] == 0 < counts[p]["stable"] for p in survivors),
                        **tentative),
            check_holds(f"tentative output from {' and '.join(failed)} ({at})",
                        all(tentative[p] > 0 for p in failed), **tentative),
            check_within(f"the merge meets the bound ({at})", r.proc_new,
                         r.extra["availability_bound"]),
        ]
    return _section(name, [_branch_table(title, results, parts)], checks)


def _shard_section(results: list[ExperimentResult]) -> ReportSection:
    section = _fanin_section("shard", "Sharded topology: both replicas of 'shard1' crashed",
                             "shards", results[0].extra["survivors"], ("merge",), results)
    for r in results:
        at = f"{r.failure_duration:g} s failure"
        unstable = [name for name, states in r.extra["shard_states"].items()
                    if set(states) != {"stable"}]
        moves = r.extra["rebalance"]["moves"]
        section.add_check(check_holds(f"every replica group ends STABLE ({at})", not unstable,
                                      unstable=unstable))
        section.add_check(check_holds(f"the planner wants no bucket moves ({at})", moves == 0,
                                      moves=moves))
    return section


def _shard_throughput_section(rows: list[dict]) -> ReportSection:
    columns = ("tuples_per_second", "events_fired", "split_egress", "proc_new", "operators",
               "eventually_consistent")
    table = _table("Sharded scale-out: sustained throughput vs the equal-operator chain",
                   "deployment", ((row["label"], _pick(row, *columns)) for row in rows))
    *sharded, chain = rows
    widest = sharded[-1]
    ratio = chain["events_per_tuple"] / widest["events_per_tuple"]
    return _section("shard-throughput", [table], [
        # X = 3 s, the DPCConfig default both deployments run with.
        check_holds("every run is consistent with Proc_new < X = 3 s",
                    all(r["eventually_consistent"] and r["proc_new"] < 3.0 for r in rows),
                    **{r["label"]: r["proc_new"] for r in rows}),
        check_holds(f"{chain['label']} fires >= 1.25x {widest['label']}'s events per stable tuple",
                    ratio >= 1.25, ratio=ratio),
        check_holds("every shard count delivers the same stable output",
                    len({r["stable_tuples"] for r in sharded}) == 1,
                    **{r["label"]: r["stable_tuples"] for r in sharded}),
        check_holds("the split sends about one copy per stable tuple, not one per shard",
                    all(r["split_egress"] < 1.25 * r["stable_tuples"] for r in sharded),
                    **{r["label"]: r["split_egress"] / r["stable_tuples"] for r in sharded}),
    ])


def _recovery_section(pairs: list[tuple[ablations.RecoveryResult, ...]]) -> ReportSection:
    table = _table("Crash recovery: checkpoint-shipped rejoin vs full subscription replay", "failure", (
        (f"{ckpt.failure_duration:g} s", {
            "ckpt mode": ckpt.mode, "ckpt recovery (s)": ckpt.recovery_s,
            "replay recovery (s)": replay.recovery_s, "ckpt suffix": ckpt.replayed,
            "replay suffix": replay.replayed, "shipped items": ckpt.shipped_items,
            "ledgers identical": ckpt.ledger_rows == replay.ledger_rows,
        })
        for ckpt, replay in pairs
    ))
    checks = [consistency_check([run for pair in pairs for run in pair])]
    for ckpt, replay in pairs:
        at = f"{ckpt.failure_duration:g} s failure"
        same = ckpt.ledger_rows == replay.ledger_rows and replay.mode == "replay"
        checks.append(check_holds(f"both modes end with the same stable ledger ({at})", same,
                                  replay_mode=replay.mode))
        if ckpt.failure_duration >= 4.0:  # shorter outages may rightly prefer replay
            faster = ckpt.recovery_s < replay.recovery_s and ckpt.replayed < replay.replayed
            checks += [
                check_holds(f"the checkpoint path engages ({at})", ckpt.mode == "checkpoint",
                            mode=ckpt.mode),
                check_holds(f"checkpoint beats replay on modeled time and suffix ({at})", faster,
                            ckpt_s=ckpt.recovery_s, replay_s=replay.recovery_s,
                            ckpt_suffix=ckpt.replayed, replay_suffix=replay.replayed),
            ]
    (short_ckpt, short_replay), (long_ckpt, long_replay) = pairs[0], pairs[-1]
    ckpt_growth = long_ckpt.recovery_s - short_ckpt.recovery_s
    replay_growth = long_replay.recovery_s - short_replay.recovery_s
    checks.append(check_holds("replay cost grows with the outage, checkpoint cost does not as fast",
                              0 < replay_growth and ckpt_growth < replay_growth,
                              ckpt_growth_s=ckpt_growth, replay_growth_s=replay_growth))
    return _section("recovery", [table], checks)


# --------------------------------------------------------------------------- tables-only extensions
def _branch_sweep(sweep: Callable, title: str, parts: str, durations: Sequence[float]) -> list:
    return [_branch_table(title, sweep(durations, seed=1), parts)]


def _rebalance(seeds: Sequence[int]) -> list[ResultTable]:
    columns = ("moves", "imbalance_before", "imbalance_after", "state_tuples_shipped")
    return [_table("Live rebalance: skewed hot-key load, mid-run Deployment.apply(plan)", "seed", (
        (f"seed {seed}", _cells(r, **_pick(r.extra["rebalance"], *columns)))
        for seed, r in zip(seeds, shards.rebalance_sweep(seeds))
    ))]


def _autoscale(seeds: Sequence[int]) -> list[ResultTable]:
    columns = ("peak_shards", "final_shards", "handoffs_completed", "handoff_aborts",
               "state_tuples_shipped")
    return [_table("Elastic autoscaling: load surge -> scale-out, subsidence -> scale-in", "seed", (
        (f"seed {seed}", _cells(r, actions=len(r.extra["autoscale"]["actions"]),
                                **_pick(r.extra["autoscale"], *columns)))
        for seed, r in zip(seeds, shards.autoscale_sweep(seeds))
    ))]


def _live_table(title: str, cases, cells) -> list[ResultTable]:
    """One row ``cells(spec, spec.run_live())`` per ``(label, spec)``; without fork, one 'unavailable' row."""
    table = ResultTable(title=title, row_label="scenario", column_label="metric")
    try:
        for label, spec in cases:
            for column, value in cells(spec, spec.run_live()).items():
                table.set(label, column, value)
    except LiveBackendUnavailable as error:
        table.set("unavailable", "reason", str(error))
    return [table]


def _live_throughput(grid: Mapping[str, float]) -> list[ResultTable]:
    """Wall-clock throughput of real worker processes: environment-bound trend numbers."""
    run = dict(grid, settle=0.0, seed=1)
    cases = [("chain-2", ScenarioSpec.chain(2, **run)), ("shard-4", ScenarioSpec.sharded(4, **run))]
    return _live_table("Live backend: wall-clock throughput, chain vs sharded fan-out", cases,
                       lambda spec, result: {
        "worker processes": len(result.nodes) + 1, "stable tuples": result.total_stable,
        "wall (s)": result.wall_seconds, "tuples/s (wall)": result.total_stable / result.wall_seconds,
        "consistent": result.eventually_consistent,
    })


def _live_faults(duration: float) -> list[ResultTable]:
    """Each spec run live and against its simulator oracle; "ledger matches sim" is the parity claim."""
    run = dict(warmup=1.5, duration=duration, seed=1)
    cases = [
        ("chain-2 disconnect", ScenarioSpec.chain(2, aggregate_rate=90.0, **run).with_failure(
            "disconnect", duration=1.0)),
        ("shard-4 partition", ScenarioSpec.sharded(4, aggregate_rate=120.0, **run).with_partition(
            "shard1", replica=-1, duration=1.0)),
    ]
    return _live_table("Live fault injection: disconnect/partition parity with the simulator", cases,
                       lambda spec, result: {
        "stable tuples": result.total_stable, "tentative tuples": result.total_tentative,
        "injected faults": sum(result.injected_faults().values()),
        "dead letters": result.dead_letters, "reconnects": result.reconnects,
        "consistent": result.eventually_consistent,
        "ledger matches sim": result.stable_rows() == stable_ledger_rows(spec.oracle().client),
    })


# --------------------------------------------------------------------------- the registry
def _entry(name, measure, quick, full=None, section=None, description=None) -> Experiment:
    """An entry described by its claim's title unless told otherwise; ``full`` defaults to ``quick``."""
    grids = {"quick": quick, "full": quick if full is None else full}
    claim = _CLAIMS.get(name)
    return Experiment(name, description or claim.title, measure, grids, section, claim)


def _kwargs(runner: Callable) -> Callable[[Mapping], Any]:
    """A measure whose grid is ``runner``'s keyword arguments."""
    return lambda grid: runner(**grid)


_FIG13_QUICK_POLICIES = {
    name: single_node.FIG13_POLICIES[name]
    for name in ("Process & Process", "Delay & Delay", "Process & Suspend", "Delay & Suspend")
}
_OVERHEAD_FULL = (0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5)
_DURATIONS_FULL = (4.0, 8.0, 16.0, 30.0)

EXPERIMENTS: dict[str, Experiment] = {entry.name: entry for entry in (
    _entry("table3", single_node.table3, (2, 8, 16, 30, 60),
           (2, 4, 6, 8, 10, 12, 14, 16, 30, 45, 60), build_table3_section),
    _entry("fig11a", _kwargs(single_node.eventual_consistency_trace), {"overlapping": True},
           section=partial(_fig11_section, "fig11a")),
    _entry("fig11b", _kwargs(single_node.eventual_consistency_trace), {"overlapping": False},
           section=partial(_fig11_section, "fig11b")),
    _entry("fig13", _kwargs(partial(single_node.fig13, aggregate_rate=300.0)),
           {"failure_durations": (2, 10, 30), "policies": _FIG13_QUICK_POLICIES},
           {"failure_durations": (2, 6, 10, 14, 30, 60)}, _fig13_section),
    _entry("fig15", chains.fig15, (1, 2, 4), (1, 2, 3, 4), build_fig15_section),
    _entry("fig16", _kwargs(chains.fig16), {"failure_durations": (5, 15), "depths": (1, 2, 4)},
           {"failure_durations": (5, 10, 15, 30), "depths": (1, 2, 3, 4)},
           partial(build_tentative_vs_depth_section, experiment_id="fig16")),
    _entry("fig18", chains.fig18, (1, 4), (1, 2, 3, 4),
           partial(build_tentative_vs_depth_section, experiment_id="fig18")),
    _entry("fig19", chains.fig19_20, (5, 10), (5, 10, 15, 30),
           partial(_delay_assignment_section, "fig19")),
    _entry("fig20", chains.fig19_20, (5, 10), (5, 10, 15, 30),
           partial(_delay_assignment_section, "fig20")),
    _entry("table4", partial(overhead.table4, duration=20.0), (0.01, 0.1, 0.2, 0.5),
           _OVERHEAD_FULL, partial(_overhead_section, "table4")),
    _entry("table5", partial(overhead.table5, duration=20.0), (0.01, 0.1, 0.2, 0.5),
           _OVERHEAD_FULL, partial(_overhead_section, "table5")),
    _entry("diamond", partial(_branch_sweep, dags.diamond_sweep,
                              "Diamond topology: branch crash (all replicas of 'left')", "branches"),
           (4.0, 8.0), _DURATIONS_FULL,
           description="DAG: diamond (fan-out + fan-in) with one branch crashed"),
    _entry("fanin", partial(dags.fanin_sweep, seed=1), (4.0, 8.0), _DURATIONS_FULL,
           partial(_fanin_section, "fanin", "Fan-in topology: boundary silence on one branch",
                   "branches", ("branch2",), ("branch1", "merge"))),
    _entry("shard", partial(shards.shard_kill_sweep, shards=4, seed=1), (4.0, 8.0),
           _DURATIONS_FULL, _shard_section),
    _entry("shard-throughput", shards.shard_throughput_sweep, (1, 2, 4), (1, 2, 4, 8),
           section=_shard_throughput_section),
    _entry("rebalance", _rebalance, (1, 2), (1, 2, 3, 4),
           description="Live rebalance: skewed load, mid-run bucket handoff between shards"),
    _entry("autoscale", _autoscale, (1, 2), (1, 2, 3, 4),
           description="Elastic autoscaling: surge-driven scale-out, subsidence-driven scale-in"),
    _entry("replicas", partial(ablations.replica_sweep, failure_duration=12.0), (1, 2), (1, 2, 3),
           _replicas_section),
    _entry("detection", ablations.detection_sweep, (0.1, 0.5), (0.05, 0.1, 0.25, 0.5),
           _detection_section),
    _entry("crash", _kwargs(ablations.crash_failover), {"crash_duration": 15.0},
           section=_crash_section),
    _entry("granularity", lambda modes: [ablations.granularity_run(m) for m in modes],
           (False, True), section=_granularity_section),
    _entry("buffers", _buffer_runs, (None, 1.0), section=_buffers_section),
    _entry("recovery", ablations.recovery_time_sweep, (4.0, 10.0), (2.0, 4.0, 10.0, 20.0),
           section=_recovery_section),
    _entry("live-throughput", _live_throughput, {"aggregate_rate": 240.0, "warmup": 4.0},
           {"aggregate_rate": 480.0, "warmup": 8.0},
           description="Live backend: wall-clock throughput over real processes and sockets"),
    _entry("live-faults", _live_faults, 4.0, 8.0,
           description="Live fault injection: disconnect/partition parity against the sim oracle"),
)}
