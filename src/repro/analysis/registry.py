"""The experiment registry: every table, figure and ablation, declared once.

Each :class:`Experiment` holds one grid per scale (``quick``: the reduced sweep
its shape checks were validated on; ``full``: the paper's grid), the runs to
make on a grid, and the tables and shape checks made of the results.  A grid
is a list of ``(name, point)`` pairs: ``CATALOGUE[name](**point)`` is the
:class:`~repro.runtime.ScenarioSpec` of one run (:mod:`repro.workloads.catalogue`)
and :func:`~repro.experiments.summarize_run` condenses it.
``python -m repro run`` / ``list`` / ``claims`` / ``report`` and CI only read
this module, so an id runs the same grid wherever it is named.  Importing it
runs nothing: ``EXPERIMENTS["fig15"].run("quick")`` returns (tables, checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..errors import LiveBackendUnavailable
from ..experiments import ExperimentResult, OverheadRow, overhead_row, summarize_run
from ..metrics.consistency import stable_ledger_rows
from ..workloads.catalogue import CATALOGUE, FIG13_POLICIES, FIG19_VARIANTS
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

#: One run: a catalogue entry and its keyword arguments.
Point = tuple[str, Mapping[str, Any]]


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


# --------------------------------------------------------------------------- grids and runs
def _points(name: str, **axes: Sequence) -> list[Point]:
    """Every combination of ``axes`` (the first axis outermost) as runs of entry ``name``."""
    return [(name, dict(zip(axes, values))) for values in product(*axes.values())]


def _each(names: Sequence[str], **point: Any) -> list[Point]:
    """One run of each entry of ``names`` at the same ``point``."""
    return [(name, point) for name in names]


def _summaries(grid: Sequence[Point]) -> list[ExperimentResult]:
    """The one measurement: run each point's spec and summarize it."""
    return [summarize_run(CATALOGUE[name](**point).run()) for name, point in grid]


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


def _branch_table(title: str, results: Sequence[ExperimentResult]) -> ResultTable:
    """Per failure duration: the client's view plus each node group's tentative count."""
    return _table(title, "failure", (
        (f"{r.failure_duration:g} s",
         _cells(r, **{f"{name} tentative": c["tentative"] for name, c in r.extra["groups"].items()}))
        for r in results
    ))


def _bound(name: str, proc_new: float) -> ShapeCheck:
    """Proc_new within the single-node bound X = 3 s plus normal processing latency."""
    return check_within(name, proc_new, 3.0, slack=0.75)


# --------------------------------------------------------------------------- paper figures
def _fig11_section(name: str, results: list[ExperimentResult]) -> ReportSection:
    [result] = results
    table = _table(result.label, "run", [(name, {
        "eventually consistent": result.eventually_consistent, "tentative tuples": result.n_tentative,
        "undo tuples": result.n_undos, "REC_DONE markers": result.n_rec_done,
        "reconciliations": result.extra["reconciliations"],
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


def _overhead(vary: str, grid: Sequence[Point]) -> list[OverheadRow]:
    """Table IV / V rows: each run's latency keyed by the ``vary`` value (0: the baseline)."""
    return [overhead_row(CATALOGUE[name](**point).run(), point[vary]) for name, point in grid]


def _overhead_grid(vary: str, fixed: str, values: Sequence[float]) -> list[Point]:
    """The plain-Union baseline, then one SUnion run per value of ``vary`` (``fixed`` = 10 ms)."""
    return ([("serialization", {vary: 0.0, fixed: 0.01, "baseline": True})]
            + _points("serialization", **{vary: values, fixed: (0.01,)}))


def _overhead_section(name: str, rows: list[OverheadRow]) -> ReportSection:
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


def _detection_section(results: list[ExperimentResult]) -> ReportSection:
    table = _table("Ablation: failure detection parameters", "keepalive", (
        (r.label.removeprefix("keepalive "), {"Proc_new (s)": r.proc_new, "max gap (s)": r.max_gap,
                                             "N_tentative": r.n_tentative,
                                             "switches": r.extra["switches"]})
        for r in results
    ))
    fast, slow = results[0], results[-1]
    return _section("detection", [table], [
        check_holds("every run is eventually consistent",
                    all(r.eventually_consistent for r in results), runs=len(results)),
        _bound(f"{fast.label} meets the bound", fast.proc_new),
        check_holds("slower detection never narrows the largest gap",
                    slow.max_gap >= fast.max_gap - 0.3, fast=fast.max_gap, slow=slow.max_gap),
        check_holds("slower detection never lowers Proc_new",
                    slow.proc_new >= fast.proc_new - 0.3, fast=fast.proc_new, slow=slow.proc_new),
    ])


def _crash_section(results: list[ExperimentResult]) -> ReportSection:
    [result] = results
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


def _buffers_section(results: list[ExperimentResult]) -> ReportSection:
    kept, truncated = ({"buffered_tuples": r.extra["groups"]["node1"]["buffered"],
                        "client_stable": r.n_stable, "proc_new": r.proc_new} for r in results)
    table = _table("Ablation: output-buffer truncation", "acknowledgments", (
        (r.label, cells) for r, cells in zip(results, (kept, truncated))
    ))
    return _section("buffers", [table], [
        check_holds("truncation keeps the buffer over 5x smaller",
                    truncated["buffered_tuples"] < kept["buffered_tuples"] / 5,
                    kept=kept["buffered_tuples"], truncated=truncated["buffered_tuples"]),
        check_holds("the client receives the same stable output (within 5 %)",
                    abs(truncated["client_stable"] - kept["client_stable"])
                    <= 0.05 * kept["client_stable"],
                    kept=kept["client_stable"], truncated=truncated["client_stable"]),
    ])


def _fanin_section(name: str, title: str, survivors: Sequence[str], failed: Sequence[str],
                   results: list[ExperimentResult]) -> ReportSection:
    """Of the node groups merged, only ``failed`` go tentative; the merge meets its bound."""
    checks = [consistency_check(results)]
    for r in results:
        at = f"{r.failure_duration:g} s failure"
        counts = r.extra["groups"]
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
    return _section(name, [_branch_table(title, results)], checks)


def _shard_section(results: list[ExperimentResult]) -> ReportSection:
    section = _fanin_section("shard", "Sharded topology: both replicas of 'shard1' crashed",
                             ("shard2", "shard3", "shard4"), ("merge",), results)
    for r in results:
        at = f"{r.failure_duration:g} s failure"
        unstable = [name for name, states in r.extra["states"].items()
                    if set(states) != {"stable"}]
        moves = r.extra["planner"]["moves"]
        section.add_check(check_holds(f"every replica group ends STABLE ({at})", not unstable,
                                      unstable=unstable))
        section.add_check(check_holds(f"the planner wants no bucket moves ({at})", moves == 0,
                                      moves=moves))
    return section


def _deployment(result: ExperimentResult) -> str:
    """``shard(4)`` / ``chain(10)`` for the runs named ``shard-4`` / ``chain-10``."""
    shape, size = result.label.rsplit("-", 1)
    return f"{shape}({size})"


def _shard_throughput_section(results: list[ExperimentResult]) -> ReportSection:
    rows = [{
        "label": _deployment(r),
        "tuples_per_second": r.n_stable / wall if (wall := r.extra["wall_seconds"]) > 0
        else float("inf"),
        **_pick(r.extra, "events_fired", "split_egress"),
        "proc_new": r.proc_new, "operators": r.extra["operators"],
        "eventually_consistent": r.eventually_consistent,
        "stable_tuples": r.n_stable, "events_per_tuple": r.extra["events_fired"] / max(r.n_stable, 1),
    } for r in results]
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


#: The rejoin record of a run in which nothing rejoined.
_NO_RECOVERY = {"mode": "none", "replayed": 0, "shipped_items": 0, "recovery_s": 0.0}


def _recovery_section(results: list[ExperimentResult]) -> ReportSection:
    """``results`` alternate checkpoint-shipped and full-replay runs of one failure duration."""
    pairs = list(zip(results[::2], results[1::2]))
    rejoin = {id(r): (r.extra["recoveries"] or [_NO_RECOVERY])[-1] for r in results}
    same_ledger = {id(c): c.extra["ledger_sha256"] == r.extra["ledger_sha256"] for c, r in pairs}
    table = _table("Crash recovery: checkpoint-shipped rejoin vs full subscription replay", "failure", (
        (f"{ckpt.failure_duration:g} s", {
            "ckpt mode": rejoin[id(ckpt)]["mode"], "ckpt recovery (s)": rejoin[id(ckpt)]["recovery_s"],
            "replay recovery (s)": rejoin[id(replay)]["recovery_s"],
            "ckpt suffix": rejoin[id(ckpt)]["replayed"], "replay suffix": rejoin[id(replay)]["replayed"],
            "shipped items": rejoin[id(ckpt)]["shipped_items"],
            "ledgers identical": same_ledger[id(ckpt)],
        })
        for ckpt, replay in pairs
    ))
    checks = [consistency_check(results)]
    for ckpt_run, replay_run in pairs:
        ckpt, replay = rejoin[id(ckpt_run)], rejoin[id(replay_run)]
        at = f"{ckpt_run.failure_duration:g} s failure"
        same = same_ledger[id(ckpt_run)] and replay["mode"] == "replay"
        checks.append(check_holds(f"both modes end with the same stable ledger ({at})", same,
                                  replay_mode=replay["mode"]))
        if ckpt_run.failure_duration >= 4.0:  # shorter outages may rightly prefer replay
            faster = (ckpt["recovery_s"] < replay["recovery_s"]
                      and ckpt["replayed"] < replay["replayed"])
            checks += [
                check_holds(f"the checkpoint path engages ({at})", ckpt["mode"] == "checkpoint",
                            mode=ckpt["mode"]),
                check_holds(f"checkpoint beats replay on modeled time and suffix ({at})", faster,
                            ckpt_s=ckpt["recovery_s"], replay_s=replay["recovery_s"],
                            ckpt_suffix=ckpt["replayed"], replay_suffix=replay["replayed"]),
            ]
    (short_ckpt, short_replay), (long_ckpt, long_replay) = pairs[0], pairs[-1]
    ckpt_growth = rejoin[id(long_ckpt)]["recovery_s"] - rejoin[id(short_ckpt)]["recovery_s"]
    replay_growth = rejoin[id(long_replay)]["recovery_s"] - rejoin[id(short_replay)]["recovery_s"]
    checks.append(check_holds("replay cost grows with the outage, checkpoint cost does not as fast",
                              0 < replay_growth and ckpt_growth < replay_growth,
                              ckpt_growth_s=ckpt_growth, replay_growth_s=replay_growth))
    return _section("recovery", [table], checks)


def _recovery_grid(durations: Sequence[float]) -> list[Point]:
    """A checkpoint-shipped (every 2 s) then a full-replay run per failure duration."""
    return _points("recovery", failure_duration=durations, checkpoint_interval=(2.0, None))


# --------------------------------------------------------------------------- tables-only extensions
def _branch_tables(title: str, grid: Sequence[Point]) -> list[ResultTable]:
    return [_branch_table(title, _summaries(grid))]


def _rebalance(grid: Sequence[Point]) -> list[ResultTable]:
    def cells(r: ExperimentResult) -> dict:
        record = r.extra["rebalances"][0] if r.extra["rebalances"] else {}
        return _cells(r, moves=len(record.get("moves", [])),
                      imbalance_before=record.get("imbalance_before"),
                      imbalance_after=record.get("imbalance_after"),
                      state_tuples_shipped=record.get("state_tuples_shipped", 0))

    return [_table("Live rebalance: skewed hot-key load, mid-run Deployment.apply(plan)", "seed", (
        (f"seed {point['seed']}", cells(r)) for (_, point), r in zip(grid, _summaries(grid))
    ))]


def _autoscale(grid: Sequence[Point]) -> list[ResultTable]:
    columns = ("peak_shards", "final_shards", "handoffs_completed", "handoff_aborts",
               "state_tuples_shipped")
    return [_table("Elastic autoscaling: load surge -> scale-out, subsidence -> scale-in", "seed", (
        (f"seed {point['seed']}", _cells(r, actions=len(r.extra["autoscale"]["actions"]),
                                         **_pick(r.extra["autoscale"], *columns)))
        for (_, point), r in zip(grid, _summaries(grid))
    ))]


def _live_table(title: str, grid: Sequence[Point], cells) -> list[ResultTable]:
    """One row ``cells(spec, spec.run_live())`` per point; without fork, one 'unavailable' row.

    A row is named by its spec and failure kinds (``chain-2 disconnect``).
    """
    table = ResultTable(title=title, row_label="scenario", column_label="metric")
    try:
        for name, point in grid:
            spec = CATALOGUE[name](**point)
            label = " ".join([spec.name, *(failure.kind for failure in spec.failures)])
            for column, value in cells(spec, spec.run_live()).items():
                table.set(label, column, value)
    except LiveBackendUnavailable as error:
        table.set("unavailable", "reason", str(error))
    return [table]


def _live_throughput(grid: Sequence[Point]) -> list[ResultTable]:
    """Wall-clock throughput of real worker processes: environment-bound trend numbers."""
    return _live_table("Live backend: wall-clock throughput, chain vs sharded fan-out", grid,
                       lambda spec, result: {
        "worker processes": len(result.nodes) + 1, "stable tuples": result.total_stable,
        "wall (s)": result.wall_seconds, "tuples/s (wall)": result.total_stable / result.wall_seconds,
        "consistent": result.eventually_consistent,
    })


def _live_faults(grid: Sequence[Point]) -> list[ResultTable]:
    """Each spec run live and against its simulator oracle; "ledger matches sim" is the parity claim."""
    return _live_table("Live fault injection: disconnect/partition parity with the simulator", grid,
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


_CHAIN_POLICIES = ("Process & Process", "Delay & Delay")
_FIG13_QUICK_POLICIES = ("Process & Process", "Delay & Delay", "Process & Suspend",
                         "Delay & Suspend")
_OVERHEAD_QUICK = (0.01, 0.1, 0.2, 0.5)
_OVERHEAD_FULL = (0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5)
_DURATIONS_QUICK = (4.0, 8.0)
_DURATIONS_FULL = (4.0, 8.0, 16.0, 30.0)
_LIVE_THROUGHPUT = ("live-throughput-chain2", "live-throughput-shard4")
_LIVE_FAULTS = ("live-disconnect-chain2", "live-partition-shard4")

EXPERIMENTS: dict[str, Experiment] = {entry.name: entry for entry in (
    _entry("table3", _summaries, _points("table3", failure_duration=(2, 8, 16, 30, 60)),
           _points("table3", failure_duration=(2, 4, 6, 8, 10, 12, 14, 16, 30, 45, 60)),
           build_table3_section),
    _entry("fig11a", _summaries, [("fig11", {"overlapping": True})],
           section=partial(_fig11_section, "fig11a")),
    _entry("fig11b", _summaries, [("fig11", {"overlapping": False})],
           section=partial(_fig11_section, "fig11b")),
    _entry("fig13", _summaries,
           _points("fig13", policy=_FIG13_QUICK_POLICIES, failure_duration=(2, 10, 30)),
           _points("fig13", policy=tuple(FIG13_POLICIES), failure_duration=(2, 6, 10, 14, 30, 60)),
           _fig13_section),
    _entry("fig15", _summaries, _points("chain-silence", policy=_CHAIN_POLICIES, depth=(1, 2, 4)),
           _points("chain-silence", policy=_CHAIN_POLICIES, depth=(1, 2, 3, 4)),
           build_fig15_section),
    _entry("fig16", _summaries,
           _points("chain-silence", failure_duration=(5, 15), policy=_CHAIN_POLICIES,
                   depth=(1, 2, 4)),
           _points("chain-silence", failure_duration=(5, 10, 15, 30), policy=_CHAIN_POLICIES,
                   depth=(1, 2, 3, 4)),
           partial(build_tentative_vs_depth_section, experiment_id="fig16")),
    _entry("fig18", _summaries,
           _points("chain-silence", policy=_CHAIN_POLICIES, depth=(1, 4), failure_duration=(60.0,),
                   settle=(40.0,)),
           _points("chain-silence", policy=_CHAIN_POLICIES, depth=(1, 2, 3, 4),
                   failure_duration=(60.0,), settle=(40.0,)),
           partial(build_tentative_vs_depth_section, experiment_id="fig18")),
    _entry("fig19", _summaries,
           _points("delay-assignment", variant=tuple(FIG19_VARIANTS), failure_duration=(5, 10)),
           _points("delay-assignment", variant=tuple(FIG19_VARIANTS),
                   failure_duration=(5, 10, 15, 30)),
           partial(_delay_assignment_section, "fig19")),
    _entry("fig20", _summaries,
           _points("delay-assignment", variant=tuple(FIG19_VARIANTS), failure_duration=(5, 10)),
           _points("delay-assignment", variant=tuple(FIG19_VARIANTS),
                   failure_duration=(5, 10, 15, 30)),
           partial(_delay_assignment_section, "fig20")),
    _entry("table4", partial(_overhead, "bucket_size"),
           _overhead_grid("bucket_size", "boundary_interval", _OVERHEAD_QUICK),
           _overhead_grid("bucket_size", "boundary_interval", _OVERHEAD_FULL),
           partial(_overhead_section, "table4")),
    _entry("table5", partial(_overhead, "boundary_interval"),
           _overhead_grid("boundary_interval", "bucket_size", _OVERHEAD_QUICK),
           _overhead_grid("boundary_interval", "bucket_size", _OVERHEAD_FULL),
           partial(_overhead_section, "table5")),
    _entry("diamond",
           partial(_branch_tables, "Diamond topology: branch crash (all replicas of 'left')"),
           _points("diamond", failure_duration=_DURATIONS_QUICK),
           _points("diamond", failure_duration=_DURATIONS_FULL),
           description="DAG: diamond (fan-out + fan-in) with one branch crashed"),
    _entry("fanin", _summaries, _points("fanin", failure_duration=_DURATIONS_QUICK),
           _points("fanin", failure_duration=_DURATIONS_FULL),
           partial(_fanin_section, "fanin", "Fan-in topology: boundary silence on one branch",
                   ("branch2",), ("branch1", "merge"))),
    _entry("shard", _summaries, _points("shard-kill", failure_duration=_DURATIONS_QUICK),
           _points("shard-kill", failure_duration=_DURATIONS_FULL), _shard_section),
    # The chain runs as many operators as the widest sharding (2d + 1 >= 4N + 4).
    _entry("shard-throughput", _summaries,
           _points("shard-throughput", shards=(1, 2, 4)) + [("chain-throughput", {"depth": 10})],
           _points("shard-throughput", shards=(1, 2, 4, 8)) + [("chain-throughput", {"depth": 18})],
           section=_shard_throughput_section),
    _entry("rebalance", _rebalance, _points("rebalance", seed=(1, 2)),
           _points("rebalance", seed=(1, 2, 3, 4)),
           description="Live rebalance: skewed load, mid-run bucket handoff between shards"),
    _entry("autoscale", _autoscale, _points("shard2-autoscale", seed=(1, 2)),
           _points("shard2-autoscale", seed=(1, 2, 3, 4)),
           description="Elastic autoscaling: surge-driven scale-out, subsidence-driven scale-in"),
    _entry("replicas", _summaries, _points("replicas", replicas=(1, 2)),
           _points("replicas", replicas=(1, 2, 3)), _replicas_section),
    _entry("detection", _summaries, _points("detection", keepalive_period=(0.1, 0.5)),
           _points("detection", keepalive_period=(0.05, 0.1, 0.25, 0.5)), _detection_section),
    _entry("crash", _summaries, [("crash", {"crash_duration": 15.0})], section=_crash_section),
    _entry("granularity", _summaries, _points("granularity", per_stream=(False, True)),
           section=_granularity_section),
    _entry("buffers", _summaries, _points("buffers", checkpoint_interval=(None, 1.0)),
           section=_buffers_section),
    _entry("recovery", _summaries, _recovery_grid((4.0, 10.0)), _recovery_grid((2.0, 4.0, 10.0, 20.0)),
           section=_recovery_section),
    _entry("live-throughput", _live_throughput,
           _each(_LIVE_THROUGHPUT, aggregate_rate=240.0, warmup=4.0),
           _each(_LIVE_THROUGHPUT, aggregate_rate=480.0, warmup=8.0),
           description="Live backend: wall-clock throughput over real processes and sockets"),
    _entry("live-faults", _live_faults, _each(_LIVE_FAULTS, duration=4.0),
           _each(_LIVE_FAULTS, duration=8.0),
           description="Live fault injection: disconnect/partition parity against the sim oracle"),
)}
