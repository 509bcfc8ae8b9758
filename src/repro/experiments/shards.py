"""Sharded scale-out experiments: shard-kill recovery and throughput scaling.

The paper never deploys more than a chain, but its DPC machinery is
topology-agnostic; combined with the :mod:`repro.sharding` planner it gives
an N-way key-hash sharded deployment (``Topology.shard``: split -> N shard
fragments each subscribed to their slice -> fan-in SUnion merge).
These runners exercise the two questions that shape asks:

* **shard-kill** -- crash *every* replica of one shard, so the merge cannot
  mask the failure by switching.  The dead shard's key-hash slice goes
  missing; the surviving shards must keep producing stable output (their
  slices are never in doubt), the merge trades availability against
  consistency within its delay budget, and after the shard recovers the
  client's ledger must reconcile gap-free.
* **throughput** -- how many tuples per wall-clock second the simulated
  deployment sustains as the shard count grows, against a single chain with
  the *same total operator count*.  Sharding wins because each tuple crosses
  three fragment levels (split, its shard, merge) instead of every level of
  the chain, and per-shard serialization and output work is 1/N.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..config import DelayPolicy, DPCConfig
from ..runtime import ScenarioSpec
from ..sharding import bucket_loads_from_keys
from .harness import ExperimentResult, group_output_counts, summarize_run

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..deploy import AutoscalePolicy


def shard_operator_count(shards: int) -> int:
    """Operators in a sharded deployment.

    The split is a stateless router (SUnion + SOutput), each shard runs
    Filter + SUnion + SJoin + SOutput over its slice, and the merge is an
    N-way SUnion + SOutput: ``4N + 4`` operators in total.
    """
    return 4 * shards + 4


def equivalent_chain_depth(shards: int) -> int:
    """Depth of the single chain with the same operator count as ``shard(N)``.

    A chain deployment runs 3 operators on its entry node (SUnion + SJoin +
    SOutput) and 2 on every relay (SUnion + SOutput): ``2 * depth + 1``
    operators in total.  Solving ``2d + 1 = 4N + 4`` (rounding up) gives the
    equal-operator baseline the ``shard-throughput`` experiment compares against.
    """
    return max(1, -(-(shard_operator_count(shards) - 1) // 2))


def shard_spec(
    shards: int = 4,
    *,
    aggregate_rate: float = 120.0,
    replicas_per_node: int = 2,
    n_input_streams: int = 3,
    max_incremental_latency: float = 3.0,
    policy: DelayPolicy | None = None,
    warmup: float = 5.0,
    settle: float = 30.0,
    seed: int | None = None,
) -> ScenarioSpec:
    """The sharded deployment the experiments run (no failures scheduled)."""
    config = DPCConfig(
        max_incremental_latency=max_incremental_latency,
        delay_policy=policy or DelayPolicy.process_process(),
    )
    return ScenarioSpec.sharded(
        name=f"shard-{shards}",
        shards=shards,
        n_input_streams=n_input_streams,
        replicas_per_node=replicas_per_node,
        aggregate_rate=aggregate_rate,
        config=config,
        warmup=warmup,
        settle=settle,
        seed=seed,
    )


def shard_kill_failure(
    failure_duration: float = 8.0, *, shards: int = 4, kill_shard: int = 1, **spec_options
) -> ExperimentResult:
    """Kill both replicas of one shard; measure the survivors and the merge.

    ``spec_options`` are :func:`shard_spec`'s keyword arguments.

    The registry's ``shard`` checks assert the acceptance properties:

    * every *surviving* shard keeps its output stable (their key-hash slices
      are never in doubt) and every replica group ends STABLE;
    * the client's Proc_new stays within the availability bound X;
    * after the shard recovers, reconciliation converges: the merged ledger
      is gap-free, duplicate-free, and ordered.
    """
    spec = shard_spec(shards, **spec_options).with_shard_kill(kill_shard, duration=failure_duration)
    runtime = spec.run()
    result = summarize_run(runtime, failure_duration=failure_duration)
    killed = f"shard{kill_shard}"
    result.extra["killed_shard"] = killed
    result.extra["shards"] = {
        name: group_output_counts(runtime, name) for name in runtime.topology.node_names
    }
    result.extra["shard_states"] = {
        name: [replica.state.value for replica in runtime.node_group(name)]
        for name in runtime.topology.node_names
    }
    result.extra["survivors"] = [
        name
        for name in runtime.topology.node_names
        if name.startswith("shard") and name != killed
    ]
    result.extra["availability_bound"] = spec.dpc_config().max_incremental_latency
    assignment = runtime.topology.shard_assignment
    if assignment is not None:
        # Observed shard balance over the run, and whether the planner would
        # migrate buckets: the synthetic key space is near-uniform, so a
        # healthy run needs no moves.
        from ..sharding import ShardPlanner

        loads = bucket_loads_from_keys(
            assignment.spec, runtime.client.stable_sequence
        )
        plan = ShardPlanner(assignment.spec).rebalance(assignment, loads, tolerance=0.25)
        result.extra["rebalance"] = {
            "imbalance": plan.imbalance_before,
            "moves": len(plan.moves),
        }
    return result


def shard_kill_sweep(
    durations: Sequence[float] = (4.0, 8.0, 16.0),
    *,
    shards: int = 4,
    seed: int | None = None,
) -> list[ExperimentResult]:
    """Shard-kill across failure durations (the CLI table)."""
    return [
        shard_kill_failure(float(d), shards=shards, seed=seed) for d in durations
    ]


def shard_throughput_spec(
    shards: int,
    *,
    aggregate_rate: float = 1200.0,
    duration: float = 15.0,
    replicas_per_node: int = 1,
    seed: int | None = 1,
) -> ScenarioSpec:
    """The failure-free sharded deployment of the throughput runs.

    ``replicas_per_node=1`` by default: the throughput axis is orthogonal to
    replication (replicating both sides scales both costs equally).  The
    golden digest ``shard4-steady`` pins ``shard_throughput_spec(4)``.
    """
    return shard_spec(
        shards,
        aggregate_rate=aggregate_rate,
        replicas_per_node=replicas_per_node,
        warmup=duration,
        settle=0.0,
        seed=seed,
    )


def shard_throughput_run(shards: int, **spec_options) -> dict:
    """Run :func:`shard_throughput_spec` and measure sustained throughput.

    Reports wall-clock tuples/sec (stable tuples the client received per
    second of host time spent simulating), the deterministic simulator event
    count, the split's egress, and the consistency verdict.
    """
    spec = shard_throughput_spec(shards, **spec_options)
    return _measure_throughput(spec, label=f"shard({shards})")


def chain_throughput_run(
    depth: int,
    *,
    aggregate_rate: float = 1200.0,
    duration: float = 15.0,
    replicas_per_node: int = 1,
    seed: int | None = 1,
) -> dict:
    """The equal-operator single-chain baseline of the throughput runs."""
    config = DPCConfig(delay_policy=DelayPolicy.process_process())
    spec = ScenarioSpec.chain(
        depth,
        replicas_per_node=replicas_per_node,
        aggregate_rate=aggregate_rate,
        config=config,
        warmup=duration,
        settle=0.0,
        seed=seed,
    )
    return _measure_throughput(spec, label=f"chain({depth})")


def _measure_throughput(spec: ScenarioSpec, label: str) -> dict:
    runtime = spec.run()
    # The runtime's own wall clock: one definition of "wall time for a run".
    wall = runtime.wall_seconds
    stable = sum(c.summary()["total_stable"] for c in runtime.clients)
    split = runtime.node_group("split") if "split" in runtime.topology.node_names else []
    return {
        "label": label,
        "scenario": spec.name,
        "duration": spec.total_duration(),
        "wall_seconds": wall,
        "stable_tuples": stable,
        "tuples_per_second": stable / wall if wall > 0 else float("inf"),
        "events_fired": runtime.simulator.events_fired,
        "events_per_tuple": runtime.simulator.events_fired / max(stable, 1),
        "proc_new": max(c.summary()["proc_new"] for c in runtime.clients),
        "eventually_consistent": runtime.eventually_consistent(),
        "operators": sum(
            len(node.diagram.operators) for group in runtime.cluster.nodes for node in group
        ),
        # Tuples the split router put on the wire (0 for a chain): filtered
        # subscriptions send each shard only its slice, so about one per
        # stable tuple rather than one per shard.
        "split_egress": sum(node.tuples_sent for node in split),
    }


def rebalance_run(
    seed: int | None = 1,
    *,
    shards: int = 4,
    skew: float = 1.2,
    hot_keys: int = 64,
    aggregate_rate: float = 120.0,
    replicas_per_node: int = 2,
    rebalance_at: float = 20.0,
    tolerance: float = 0.10,
    settle: float = 20.0,
    max_incremental_latency: float = 3.0,
) -> ExperimentResult:
    """Skewed load, then a live rebalance: observed skew -> bucket handoff.

    The deployment runs the zipfian hot-key workload (the hot key
    concentrates load on a few hash buckets), and at ``rebalance_at`` the
    runtime asks the :class:`~repro.sharding.ShardPlanner` for a plan against
    the *observed* bucket loads and applies it to the live deployment
    (filter-epoch cut at a bucket boundary + SJoin state shipping).  The
    properties ``tests/deploy/test_rebalance.py`` asserts on the same
    schedule (the golden digest ``shard4-rebalance`` pins one run):

    * the plan has real moves and strictly improves the peak-to-mean shard
      imbalance;
    * the handoff completes (state shipped) and the run stays failure-free;
    * the merged ledger is gap-free, duplicate-free, and ordered -- the
      handoff loses and duplicates nothing.
    """
    config = DPCConfig(
        max_incremental_latency=max_incremental_latency,
        delay_policy=DelayPolicy.process_process(),
    )
    spec = ScenarioSpec.sharded(
        name=f"rebalance-{shards}",
        shards=shards,
        skew=skew,
        hot_keys=hot_keys,
        aggregate_rate=aggregate_rate,
        replicas_per_node=replicas_per_node,
        config=config,
        warmup=rebalance_at,
        settle=settle,
        seed=seed,
        rebalance_at=rebalance_at,
        rebalance_tolerance=tolerance,
    )
    runtime = spec.run()
    result = summarize_run(runtime, failure_duration=0.0)
    records = runtime.deployment.rebalances
    record = records[0] if records else {}
    result.extra["rebalance"] = {
        "applied_at": record.get("applied_at"),
        "moves": len(record.get("moves", [])),
        "imbalance_before": record.get("imbalance_before"),
        "imbalance_after": record.get("imbalance_after"),
        "cut_stime": record.get("cut_stime"),
        "completed": record.get("completed", False),
        "state_tuples_shipped": record.get("state_tuples_shipped", 0),
        "noop": record.get("noop", True),
    }
    result.extra["observed_imbalance_end"] = (
        runtime.deployment.current_assignment.imbalance(
            runtime.deployment.observed_bucket_loads()
        )
    )
    result.extra["shard_states"] = {
        name: [replica.state.value for replica in runtime.node_group(name)]
        for name in runtime.topology.node_names
    }
    return result


def autoscale_spec(
    seed: int | None = 1,
    *,
    shards: int = 2,
    skew: float = 1.2,
    hot_keys: int = 64,
    base_rate: float = 120.0,
    surge_factor: float = 2.0,
    surge_start: float = 14.0,
    surge_end: float = 34.0,
    duration: float = 55.0,
    policy: "AutoscalePolicy | None" = None,
) -> ScenarioSpec:
    """Elastic scale-out and scale-in driven by the autoscaler policy loop.

    The zipfian hot-key workload runs at ``base_rate`` until ``surge_start``,
    doubles (``surge_factor``) until ``surge_end``, then subsides.  The
    autoscaler watches per-shard processing rates and reacts: the surge
    pushes the mean past the high watermark (scale-out attaches fragments
    live, seeds their state, cuts buckets over with a priced handoff), the
    subsidence drops it below the low watermark (scale-in drains a shard and
    decommissions its fragment).  ``tests/deploy/test_elasticity.py`` asserts
    across seeds, and the golden digest ``shard2-autoscale`` pins, that:

    * the deployment actually scales out beyond its initial shard count and
      back down to it, within one run;
    * every handoff completes (no aborts on this failure-free schedule);
    * the merged ledger is gap-free, duplicate-free, and ordered across all
      of it -- elasticity loses and duplicates nothing.
    """
    from ..deploy import AutoscalePolicy
    from ..workloads.generators import step_rate

    config = DPCConfig(delay_policy=DelayPolicy.process_process())
    return ScenarioSpec.sharded(
        name=f"autoscale-{shards}",
        shards=shards,
        skew=skew,
        hot_keys=hot_keys,
        aggregate_rate=base_rate,
        replicas_per_node=2,
        config=config,
        warmup=surge_start,
        settle=duration - surge_start,
        duration=duration,
        seed=seed,
        rate_profile=step_rate(surge_start, surge_factor, until=surge_end),
        autoscale=policy
        or AutoscalePolicy(
            period=2.0,
            high_watermark=200.0,
            low_watermark=140.0,
            min_shards=shards,
            max_shards=shards + 2,
            cooldown=8.0,
            plan_budget=8,
        ),
    )


def autoscale_run(seed: int | None = 1, **spec_options) -> ExperimentResult:
    """Run :func:`autoscale_spec`; report the autoscaler's actions and handoffs."""
    runtime = autoscale_spec(seed, **spec_options).run()
    result = summarize_run(runtime, failure_duration=0.0)
    deployment = runtime.deployment
    aborts = sum(len(r.get("aborts", [])) for r in deployment.rebalances)
    completed = sum(1 for r in deployment.rebalances if r.get("completed"))
    result.extra["autoscale"] = {
        "actions": list(runtime.autoscaler.actions),
        "skipped": len(runtime.autoscaler.skipped),
        "scale_events": list(deployment.scale_events),
        "peak_shards": max(
            [event["shards"] for event in deployment.scale_events],
            default=deployment.active_shards(),
        ),
        "final_shards": deployment.active_shards(),
        "handoffs_completed": completed,
        "handoff_aborts": aborts,
        "state_tuples_shipped": sum(
            r.get("state_tuples_shipped", 0) for r in deployment.rebalances
        ),
        "state_tuples_trimmed": sum(
            r.get("state_tuples_trimmed", 0) for r in deployment.rebalances
        ),
    }
    return result


def autoscale_sweep(
    seeds: Sequence[int] = (1, 2, 3), *, shards: int = 2, skew: float = 1.2
) -> list[ExperimentResult]:
    """The elastic surge-and-subside run across determinism seeds (the CLI table)."""
    return [autoscale_run(seed, shards=shards, skew=skew) for seed in seeds]


def rebalance_sweep(
    seeds: Sequence[int] = (1, 2, 3), *, shards: int = 4, skew: float = 1.2
) -> list[ExperimentResult]:
    """The mid-run rebalance across determinism seeds (the CLI table)."""
    return [rebalance_run(seed, shards=shards, skew=skew) for seed in seeds]


def shard_throughput_sweep(shard_counts: Sequence[int] = (1, 2, 4, 8), **options) -> list[dict]:
    """Throughput for each shard count plus the largest one's equal-operator chain.

    ``options`` (rate, duration, replicas, seed) apply to every run alike.
    """
    rows = [shard_throughput_run(int(shards), **options) for shards in shard_counts]
    depth = equivalent_chain_depth(max(int(s) for s in shard_counts))
    return rows + [chain_throughput_run(depth, **options)]
