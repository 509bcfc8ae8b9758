"""Shared experiment harness.

Every entry of :mod:`repro.analysis.registry` (one per table / figure /
ablation of the paper) runs the runners in this package, so the same code
can be used interactively::

    from repro.experiments import availability_run
    result = availability_run(failure_duration=10.0)
    print(result.proc_new, result.n_tentative)

Every runner describes its deployment as a
:class:`~repro.runtime.ScenarioSpec` and executes it through a
:class:`~repro.runtime.SimulationRuntime`; :func:`summarize_run` condenses a
completed runtime into an :class:`ExperimentResult`.

Scale note: the paper drives its prototype at 500-4500 tuples/s on real
hardware.  The default rates here are lower so that the full sweeps complete
in minutes on a laptop; every rate is a parameter and the registry's grids
record the values ``python -m repro run`` / ``report`` use.  All durations,
delay bounds, and failure lengths are in *simulated seconds* and match the
paper exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..config import DelayAssignment, DelayPolicy, DPCConfig, SimulationConfig
from ..runtime import FailureSpec, ScenarioSpec, SimulationRuntime


@dataclass(frozen=True)
class ExperimentResult:
    """Summary of one cluster run, in the units the paper reports."""

    label: str
    failure_duration: float
    chain_depth: int
    policy: str
    proc_new: float
    max_gap: float
    n_tentative: int
    n_stable: int
    n_undos: int
    n_rec_done: int
    eventually_consistent: bool
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def availability_run(
    failure_duration: float,
    *,
    label: str = "",
    chain_depth: int = 1,
    replicas_per_node: int = 2,
    aggregate_rate: float = 150.0,
    max_incremental_latency: float = 3.0,
    policy: DelayPolicy | None = None,
    delay_assignment: DelayAssignment = DelayAssignment.UNIFORM,
    per_node_delay: float | None = None,
    failure_kind: str = "disconnect",
    failure_stream: int = 0,
    warmup: float = 5.0,
    settle: float = 30.0,
    redo_rate: float = 1200.0,
    join_state_size: int | None = 100,
    config: DPCConfig | None = None,
    sim_config: SimulationConfig | None = None,
    seed: int | None = None,
) -> ExperimentResult:
    """Run one failure scenario and summarize availability and consistency.

    This is the workhorse behind Table III and Figures 13, 15, 16, 18, 19,
    and 20: a (chain of) replicated node(s), a single input-stream failure of
    ``failure_duration`` seconds, and a client that measures Proc_new and
    counts tentative tuples.  Everything is expressed as a
    :class:`~repro.runtime.ScenarioSpec` and executed by a
    :class:`~repro.runtime.SimulationRuntime`.
    """
    policy = policy or DelayPolicy.process_process()
    config = config or DPCConfig(
        max_incremental_latency=max_incremental_latency,
        delay_policy=policy,
        delay_assignment=delay_assignment,
        redo_rate=redo_rate,
    )
    spec = ScenarioSpec(
        name=label or policy.name,
        chain_depth=chain_depth,
        replicas_per_node=replicas_per_node,
        aggregate_rate=aggregate_rate,
        join_state_size=join_state_size,
        config=config,
        sim_config=sim_config,
        per_node_delay=per_node_delay,
        warmup=warmup,
        settle=settle,
        failures=(
            FailureSpec(
                kind=failure_kind,
                start=warmup,
                duration=failure_duration,
                stream_index=failure_stream,
            ),
        ),
        seed=seed,
    )
    return summarize_run(spec.run(), failure_duration=failure_duration)


def group_output_counts(runtime: SimulationRuntime, group: str) -> dict:
    """Stable/tentative/undo totals across the replicas of logical node ``group``."""
    totals = {"stable": 0, "tentative": 0, "undos": 0}
    for node in runtime.node_group(group):
        for stats in node.statistics()["outputs"].values():
            for key in totals:
                totals[key] += stats[key]
    return totals


def summarize_run(
    runtime: SimulationRuntime,
    failure_duration: float | None = None,
    label: str | None = None,
) -> ExperimentResult:
    """Condense a completed runtime into the paper's reporting units.

    Metrics aggregate over *every* sink client of the deployment: counters
    (stable / tentative / undos / REC_DONE / switches) are summed and the
    latency figures (Proc_new, max gap) take the worst sink, so a fan-out
    deployment's secondary sinks are never silently dropped.  Single-sink
    deployments are unaffected.  Multi-sink runs additionally report each
    sink's own summary under ``extra["per_sink"]``.
    """
    spec = runtime.spec
    # One summary + consistency pass per sink; everything below derives
    # from it (the consistency verdict sorts the full stable ledger, so
    # recomputing it per aggregate would be O(n log n) per sink again).
    per_sink = runtime.sink_summaries()
    summaries = list(per_sink.values())
    if failure_duration is None:
        failure_duration = max((f.duration for f in spec.failures), default=0.0)
    extra = {
        "switches": sum(s["switches"] for s in summaries),
        "node_states": [n.state.value for n in runtime.nodes()],
        "reconciliations": sum(n.reconciliations_completed for n in runtime.nodes()),
        "events_fired": runtime.simulator.events_fired,
    }
    if len(summaries) > 1:
        extra["per_sink"] = per_sink
    return ExperimentResult(
        label=label or spec.name,
        failure_duration=failure_duration,
        chain_depth=spec.chain_depth,
        policy=spec.dpc_config().delay_policy.name,
        proc_new=max(s["proc_new"] for s in summaries),
        max_gap=max(s["max_gap"] for s in summaries),
        n_tentative=sum(s["total_tentative"] for s in summaries),
        n_stable=sum(s["total_stable"] for s in summaries),
        n_undos=sum(s["total_undos"] for s in summaries),
        n_rec_done=sum(s["total_rec_done"] for s in summaries),
        eventually_consistent=all(s["eventually_consistent"] for s in summaries),
        extra=extra,
    )

