"""One measurement for every experiment: a completed run, in the paper's units.

Every table, figure and ablation (:mod:`repro.analysis.registry`) is a grid
of named scenarios from :data:`repro.workloads.catalogue.CATALOGUE`, and each
run is condensed by :func:`summarize_run`::

    from repro.experiments import summarize_run
    from repro.workloads.catalogue import CATALOGUE

    result = summarize_run(CATALOGUE["table3"](failure_duration=10.0).run())
    print(result.proc_new, result.n_tentative, result.extra["groups"])

Tables IV and V read per-tuple latencies instead (:func:`overhead_row`).

Scale note: the paper drives its prototype at 500-4500 tuples/s on real
hardware.  The catalogue's rates are lower so that the full sweeps complete in
minutes on a laptop.  All durations, delay bounds and failure lengths are in
*simulated seconds* and match the paper exactly.
"""

from __future__ import annotations

import hashlib
import marshal
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .metrics.latency import LatencySummary
from .sharding import ShardPlanner, bucket_loads_from_keys

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import SimulationRuntime


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


def _group_counts(replicas) -> dict:
    """Stable/tentative/undo/buffered totals across one logical node's replicas."""
    totals = {"stable": 0, "tentative": 0, "undos": 0, "buffered": 0}
    for node in replicas:
        for stats in node.statistics()["outputs"].values():
            for key in totals:
                totals[key] += stats[key]
    return totals


def _ledger_digest(clients) -> str:
    """SHA-256 of every sink's stable rows: (stable_seq, stime, sorted payload).

    Tuple ids and tentative tuples stay out, so two runs that deliver the same
    stable output through different replicas or recovery paths digest alike.
    Marshal format 2 writes floats exactly and, unlike later formats, no
    object references or interning flags, so equal rows serialize alike.
    """
    rows = [
        [(t.stable_seq, t.stime, sorted(t.values.items()))
         for t in client.metrics.consistency.ledger if t.is_stable]
        for client in clients
    ]
    return hashlib.sha256(marshal.dumps(rows, 2)).hexdigest()


def summarize_run(runtime: "SimulationRuntime") -> ExperimentResult:
    """Condense a completed runtime into the paper's reporting units.

    Metrics aggregate over *every* sink client of the deployment: counters
    (stable / tentative / undos / REC_DONE / switches) are summed and the
    latency figures (Proc_new, max gap) take the worst sink, so a fan-out
    deployment's secondary sinks are never silently dropped.  ``extra``
    records the rest of the run:

    * ``groups`` / ``states`` -- per logical node, the output totals of
      :func:`_group_counts` and each replica's final state;
    * ``availability_bound`` -- the configured X;
    * ``recoveries`` / ``rebalances`` -- every rejoin and bucket handoff record,
      and ``autoscale`` -- the elastic loop's actions, on runs that arm it;
    * ``planner`` -- on seq-sharded runs, the peak-to-mean imbalance of the
      stable output and the bucket moves a rebalance would make (tolerance 0.25);
    * ``ledger_sha256`` -- a digest of every sink's stable rows;
    * ``wall_seconds`` (host time, the one non-deterministic value),
      ``events_fired``, ``operators`` and ``split_egress`` (tuples the split
      router sent; 0 without one);
    * ``per_sink`` -- each sink's own summary, on multi-sink runs.
    """
    spec = runtime.spec
    # One summary + consistency pass per sink; everything below derives from it.
    per_sink = runtime.sink_summaries()
    summaries = list(per_sink.values())
    names = list(runtime.cluster.node_groups)  # elastic runs add and retire shards
    nodes = runtime.nodes()
    deployment = runtime.deployment
    extra = {
        "switches": sum(s["switches"] for s in summaries),
        "reconciliations": sum(n.reconciliations_completed for n in nodes),
        "events_fired": runtime.simulator.events_fired,
        "groups": {name: _group_counts(runtime.node_group(name)) for name in names},
        "states": {name: [n.state.value for n in runtime.node_group(name)] for name in names},
        "availability_bound": spec.dpc_config().max_incremental_latency,
        "recoveries": [dict(r, node=n.name) for n in nodes for r in n.recoveries],
        "rebalances": [dict(record) for record in deployment.rebalances],
        "ledger_sha256": _ledger_digest(runtime.clients),
        "wall_seconds": runtime.wall_seconds,
        "operators": sum(len(n.diagram.operators) for n in nodes),
        "split_egress": sum(n.tuples_sent for n in runtime.node_group("split"))
        if "split" in names else 0,
    }
    assignment = runtime.topology.shard_assignment
    if assignment is not None and spec.hot_key_skew is None:
        # The synthetic seq key space is near-uniform: a healthy run needs no moves.
        loads = bucket_loads_from_keys(assignment.spec, runtime.client.stable_sequence)
        plan = ShardPlanner(assignment.spec).rebalance(assignment, loads, tolerance=0.25)
        extra["planner"] = {"imbalance": plan.imbalance_before, "moves": len(plan.moves)}
    if runtime.autoscaler is not None:
        handoffs = deployment.rebalances
        extra["autoscale"] = {
            "actions": list(runtime.autoscaler.actions),
            "skipped": len(runtime.autoscaler.skipped),
            "scale_events": list(deployment.scale_events),
            "peak_shards": max([event["shards"] for event in deployment.scale_events],
                               default=deployment.active_shards()),
            "final_shards": deployment.active_shards(),
            "handoffs_completed": sum(1 for r in handoffs if r.get("completed")),
            "handoff_aborts": sum(len(r.get("aborts", [])) for r in handoffs),
            "state_tuples_shipped": sum(r.get("state_tuples_shipped", 0) for r in handoffs),
            "state_tuples_trimmed": sum(r.get("state_tuples_trimmed", 0) for r in handoffs),
        }
    if len(summaries) > 1:
        extra["per_sink"] = per_sink
    return ExperimentResult(
        label=spec.name,
        failure_duration=max((f.duration for f in spec.failures), default=0.0),
        chain_depth=runtime.topology.depth(),
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


@dataclass(frozen=True)
class OverheadRow:
    """One column of Table IV / V (latencies in milliseconds)."""

    parameter_ms: float
    latency: LatencySummary


def overhead_row(runtime: "SimulationRuntime", parameter: float) -> OverheadRow:
    """The Table IV / V reading of a ``serialization`` run: every tuple's latency.

    ``parameter`` is the swept bucket size or boundary interval in seconds (0
    for the plain-Union baseline).
    """
    latencies = runtime.client.metrics.latency.latencies(new_only=False)
    return OverheadRow(parameter_ms=parameter * 1000.0,
                       latency=LatencySummary.from_values(latencies))
