"""The scenario catalogue: every deployment the reproduction runs, named once.

:data:`CATALOGUE` maps a name to a function ``(**point) -> ScenarioSpec``.  The
keyword arguments of an entry are the axis its experiment sweeps (failure
duration, chain depth, delay assignment, bucket size, seed); everything else is
fixed here, once.  Every consumer names entries instead of writing a spec:

* :mod:`repro.analysis.registry` runs each table, figure and ablation as a
  grid of ``(name, point)`` pairs and summarizes every run with
  :func:`repro.experiments.summarize_run`;
* the golden digests (``tests/integration/test_golden_summaries.py``) pin ten
  entries at two seeds;
* ``benchmarks/bench_hot_path.py`` and the row-construction guard profile the
  ``sim-*`` entries, the simulated workloads of the end-to-end benchmark.

So the scenario that is benched is the one that is pinned and the one whose
shape the report certifies.  Importing this module builds nothing; call an
entry to get its spec::

    from repro.workloads.catalogue import CATALOGUE

    runtime = CATALOGUE["chain-silence"](depth=2, failure_duration=10.0).run()
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

from ..config import (
    DelayAssignment,
    DelayPolicy,
    DPCConfig,
    SimulationConfig,
)
from ..deploy import AutoscalePolicy
from ..errors import ConfigurationError
from ..runtime import ScenarioSpec
from ..spe.operators import SOutput, Union
from ..spe.query_diagram import QueryDiagram
from .generators import bursty_rate, step_rate
from .scenarios import FailureSpec

#: Name -> ``(**point) -> ScenarioSpec``; see the module docstring.
CATALOGUE: dict[str, Callable[..., ScenarioSpec]] = {}

#: The six delay-policy variants compared in Figure 13, in the paper's naming.
FIG13_POLICIES: dict[str, DelayPolicy] = {
    "Process & Process": DelayPolicy.process_process(),
    "Delay & Process": DelayPolicy.delay_process(),
    "Process & Delay": DelayPolicy.process_delay(),
    "Delay & Delay": DelayPolicy.delay_delay(),
    "Process & Suspend": DelayPolicy.process_suspend(),
    "Delay & Suspend": DelayPolicy.delay_suspend(),
}

#: The three delay assignments of Figures 19 and 20 on a chain of four, X = 8 s:
#: (policy, D per node, assignment).  The whole-budget assignment gives every
#: SUnion the budget minus a queuing allowance (6.5 s), as in Section 6.3.
FIG19_VARIANTS: dict[str, tuple[DelayPolicy, float, DelayAssignment]] = {
    "Delay & Delay, D=2s each": (DelayPolicy.delay_delay(), 2.0, DelayAssignment.UNIFORM),
    "Process & Process, D=2s each": (DelayPolicy.process_process(), 2.0, DelayAssignment.UNIFORM),
    "Process & Process, D=6.5s each": (DelayPolicy.process_process(), 6.5, DelayAssignment.FULL),
}


def _entry(name: str):
    """Register the decorated spec builder as ``CATALOGUE[name]``."""

    def register(build: Callable[..., ScenarioSpec]) -> Callable[..., ScenarioSpec]:
        if name in CATALOGUE:
            raise ValueError(f"catalogue name {name!r} is taken")
        CATALOGUE[name] = build
        return build

    return register


def _named(table: dict, key: str, what: str):
    """``table[key]``, or a :class:`ConfigurationError` listing the valid ``what`` names."""
    try:
        return table[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown {what} {key!r}; one of {', '.join(map(repr, table))}"
        ) from None


def _dpc(policy: str = "Process & Process", max_incremental_latency: float = 3.0,
         **changes) -> DPCConfig:
    return DPCConfig(max_incremental_latency=max_incremental_latency,
                     delay_policy=_named(FIG13_POLICIES, policy, "policy"), **changes)


def _availability(name: str, failure_duration: float, config: DPCConfig, *, depth: int = 1,
                  replicas: int = 2, rate: float = 150.0, per_node_delay: float | None = None,
                  kind: str = "disconnect", join_state_size: int | None = 100,
                  settle: float = 30.0) -> ScenarioSpec:
    """Table III and Figures 13-20: (a chain of) replicated node(s), one input fails at 5 s.

    ``kind="silence"`` is the Section 6.2 chain failure (data keeps flowing,
    boundaries stop); ``"disconnect"`` the Section 5 / 6.1 one.
    """
    return ScenarioSpec.chain(
        depth,
        name=name,
        replicas_per_node=replicas,
        aggregate_rate=rate,
        join_state_size=join_state_size,
        config=config,
        per_node_delay=per_node_delay,
        warmup=5.0,
        settle=settle,
        failures=(
            FailureSpec(kind=kind, start=5.0, duration=float(failure_duration), stream_index=0),
        ),
    )


# --------------------------------------------------------------------------- paper: single node
@_entry("table3")
def table3(failure_duration: float = 10.0) -> ScenarioSpec:
    """Table III: Proc_new vs failure duration, one replicated node, X = 3 s."""
    return _availability("Table III", failure_duration, _dpc(),
                         settle=30.0 + failure_duration * 0.5)


@_entry("fig13")
def fig13(failure_duration: float = 10.0, policy: str = "Process & Process") -> ScenarioSpec:
    """Figure 13: Table III's deployment at 300 tuples/s under one of :data:`FIG13_POLICIES`."""
    return _availability(policy, failure_duration, _dpc(policy), rate=300.0,
                         settle=30.0 + failure_duration * 0.5)


@_entry("fig11")
def fig11(overlapping: bool = True) -> ScenarioSpec:
    """Figure 11: one unreplicated node, input 1 fails at 5 s for 10 s, then input 3.

    Overlapping (11a): the second failure starts while the first is active;
    otherwise (11b) exactly when the first heals, i.e. during recovery.
    """
    second_start = 5.0 + (10.0 / 2 if overlapping else 10.0)
    return ScenarioSpec.single_node(
        name="Figure 11(a) overlapping failures"
        if overlapping
        else "Figure 11(b) failure during recovery",
        replicated=False,
        aggregate_rate=150.0,
        join_state_size=None,
        config=DPCConfig(max_incremental_latency=2.0),
        warmup=5.0,
        settle=30.0,
        failures=(
            FailureSpec(kind="disconnect", start=5.0, duration=10.0, stream_index=0),
            FailureSpec(kind="disconnect", start=second_start, duration=10.0, stream_index=2),
        ),
    )


# --------------------------------------------------------------------------- paper: chains
@_entry("chain-silence")
def chain_silence(depth: int = 4, failure_duration: float = 30.0,
                  policy: str = "Process & Process", settle: float = 30.0) -> ScenarioSpec:
    """Figures 15, 16 and 18: a chain with D = 2 s per node (X = depth * D), one input silent."""
    return _availability(f"{policy} (depth {depth})", failure_duration, _dpc(policy, 2.0 * depth),
                         depth=depth, per_node_delay=2.0, kind="silence", join_state_size=None,
                         settle=settle + failure_duration * 0.5)


@_entry("delay-assignment")
def delay_assignment(failure_duration: float = 10.0,
                     variant: str = "Process & Process, D=6.5s each") -> ScenarioSpec:
    """Figures 19 and 20: a chain of four under one of :data:`FIG19_VARIANTS`."""
    policy, per_node_delay, assignment = _named(FIG19_VARIANTS, variant, "variant")
    config = DPCConfig(max_incremental_latency=8.0, delay_policy=policy,
                       delay_assignment=assignment)
    return _availability(variant, failure_duration, config, depth=4,
                         per_node_delay=per_node_delay, kind="silence", join_state_size=None,
                         settle=30.0 + failure_duration * 0.5)


# --------------------------------------------------------------------------- paper: overhead
def _union_diagram(node_name: str, input_streams: Sequence[str], output_stream: str) -> QueryDiagram:
    """Baseline fragment of Tables IV/V: standard Union (arrival order, no serialization)."""
    diagram = QueryDiagram(name=node_name)
    union = Union(name=f"{node_name}.union", arity=len(input_streams))
    soutput = SOutput(name=f"{node_name}.soutput")
    diagram.add_operator(union)
    diagram.add_operator(soutput)
    diagram.connect(union, soutput)
    for port, stream in enumerate(input_streams):
        diagram.bind_input(stream, union, port)
    diagram.bind_output(output_stream, soutput)
    diagram.validate()
    return diagram


@_entry("serialization")
def serialization(bucket_size: float = 0.01, boundary_interval: float = 0.01,
                  baseline: bool = False) -> ScenarioSpec:
    """Tables IV and V: one source feeds one unreplicated SUnion -> SOutput node for 20 s.

    ``baseline=True`` swaps in a plain Union with no serialization (the
    paper's "0 ms" column, the transport/batching floor).
    """
    config = DPCConfig(
        bucket_size=max(bucket_size, 1e-3),
        boundary_interval=max(boundary_interval, 1e-3),
        max_incremental_latency=10.0,
    )
    sim_config = SimulationConfig(batch_interval=0.01, network_latency=0.001)
    return ScenarioSpec.single_node(
        name="serialization-overhead",
        replicated=False,
        n_input_streams=1,
        aggregate_rate=100.0,
        join_state_size=None,
        config=config,
        sim_config=sim_config,
        diagram_factory=_union_diagram if baseline else None,
        duration=20.0,
    )


# --------------------------------------------------------------------------- DAGs and shards
@_entry("diamond")
def diamond(failure_duration: float = 8.0, seed: int | None = 1) -> ScenarioSpec:
    """Diamond (ingest -> left/right -> merge) with every replica of ``left`` crashed."""
    return ScenarioSpec.diamond(
        name="diamond-branch-crash",
        replicas_per_node=2,
        aggregate_rate=120.0,
        config=_dpc(),
        warmup=5.0,
        settle=30.0,
        seed=seed,
    ).with_branch_crash("left", duration=failure_duration)


@_entry("fanin")
def fanin(failure_duration: float = 8.0, seed: int | None = 1) -> ScenarioSpec:
    """Two ingest branches merged by one node; branch 1's first source goes silent."""
    return ScenarioSpec.fanin(
        name="fanin-silence",
        branches=2,
        streams_per_branch=2,
        replicas_per_node=2,
        aggregate_rate=120.0,
        config=_dpc(),
        warmup=5.0,
        settle=30.0,
        seed=seed,
    ).with_failure("silence", duration=failure_duration, stream_index=0)


@_entry("shard-kill")
def shard_kill(failure_duration: float = 8.0, shards: int = 4,
               seed: int | None = 1) -> ScenarioSpec:
    """Key-hash sharded split -> N shards -> merge with both replicas of ``shard1`` crashed."""
    return ScenarioSpec.sharded(
        name=f"shard-{shards}",
        shards=shards,
        n_input_streams=3,
        replicas_per_node=2,
        aggregate_rate=120.0,
        config=_dpc(),
        warmup=5.0,
        settle=30.0,
        seed=seed,
    ).with_shard_kill(1, duration=failure_duration)


@_entry("shard-throughput")
def shard_throughput(shards: int = 4, seed: int | None = 1) -> ScenarioSpec:
    """Failure-free N-way sharded deployment at 1200 tuples/s for 15 s, one replica per node.

    One replica: the throughput axis is orthogonal to replication
    (replicating both sides scales both costs equally).
    """
    return ScenarioSpec.sharded(
        name=f"shard-{shards}",
        shards=shards,
        n_input_streams=3,
        replicas_per_node=1,
        aggregate_rate=1200.0,
        config=_dpc(),
        warmup=15.0,
        settle=0.0,
        seed=seed,
    )


@_entry("chain-throughput")
def chain_throughput(depth: int = 10, seed: int | None = 1) -> ScenarioSpec:
    """The single-chain baseline of ``shard-throughput``: same rate, length and replication.

    A chain runs 2 * depth + 1 operators, a sharded deployment 4 * N + 4, so
    depth 10 matches shard(4) and depth 18 shard(8).
    """
    return ScenarioSpec.chain(
        depth,
        replicas_per_node=1,
        aggregate_rate=1200.0,
        config=DPCConfig(delay_policy=DelayPolicy.process_process()),
        warmup=15.0,
        settle=0.0,
        seed=seed,
    )


@_entry("rebalance")
def rebalance(seed: int | None = 1) -> ScenarioSpec:
    """Zipfian hot-key load on 4 shards; at 20 s a live rebalance hands hot buckets over."""
    return ScenarioSpec.sharded(
        name="rebalance-4",
        shards=4,
        skew=1.2,
        hot_keys=64,
        aggregate_rate=120.0,
        replicas_per_node=2,
        config=_dpc(),
        warmup=20.0,
        settle=20.0,
        seed=seed,
        rebalance_at=20.0,
    )


@_entry("shard2-autoscale")
def shard2_autoscale(seed: int | None = 1) -> ScenarioSpec:
    """Elastic round trip: the rate doubles from 14 s to 34 s, the autoscaler follows.

    The surge pushes the per-shard rate past the high watermark (scale-out
    attaches fragments live and hands buckets over), the subsidence drops it
    below the low watermark (scale-in drains a shard and decommissions it).
    """
    return ScenarioSpec.sharded(
        name="autoscale-2",
        shards=2,
        skew=1.2,
        hot_keys=64,
        aggregate_rate=120.0,
        replicas_per_node=2,
        config=DPCConfig(delay_policy=DelayPolicy.process_process()),
        warmup=14.0,
        settle=55.0 - 14.0,
        duration=55.0,
        seed=seed,
        rate_profile=step_rate(14.0, 2.0, until=34.0),
        autoscale=AutoscalePolicy(
            period=2.0,
            high_watermark=200.0,
            low_watermark=140.0,
            min_shards=2,
            max_shards=4,
            cooldown=8.0,
            plan_budget=8,
        ),
    )


# --------------------------------------------------------------------------- ablations
@_entry("replicas")
def replicas(replicas: int = 2, failure_duration: float = 12.0) -> ScenarioSpec:
    """Table III's deployment with 1, 2 or more replicas per node."""
    return _availability(f"{replicas} replica{'s' if replicas != 1 else ''}", failure_duration,
                         _dpc(), replicas=replicas, settle=30.0 + failure_duration * 0.5)


@_entry("detection")
def detection(keepalive_period: float = 0.1) -> ScenarioSpec:
    """Table III's deployment, 10 s failure, under one keepalive period (timeout 2.5x it)."""
    config = _dpc(keepalive_period=keepalive_period,
                  failure_detection_timeout=min(keepalive_period * 2.5, 3.0 * 0.5))
    return _availability(f"keepalive {keepalive_period * 1000:.0f} ms", 10.0, config,
                         settle=30.0 + 10.0 * 0.5)


@_entry("crash")
def crash(crash_duration: float = 15.0) -> ScenarioSpec:
    """The replica the client reads from (node1 replica 0) fail-stops at 5 s."""
    return ScenarioSpec.single_node(
        name="crash failover",
        aggregate_rate=150.0,
        join_state_size=100,
        config=_dpc(),
        warmup=5.0,
        settle=30.0,
    ).with_failure("crash", start=5.0, duration=crash_duration, node="node1", node_replica=0)


@_entry("granularity")
def granularity(per_stream: bool = False) -> ScenarioSpec:
    """Table III's deployment, 10 s failure, with per-stream or node-wide failure advertisement."""
    return _availability(f"granularity={'per-stream' if per_stream else 'node-wide'}", 10.0,
                         _dpc(per_stream_granularity=per_stream), settle=30.0 + 10.0 * 0.5)


@_entry("buffers")
def buffers(checkpoint_interval: float | None = None) -> ScenarioSpec:
    """One unreplicated node for 30 s failure-free under one acknowledgment cadence.

    ``checkpoint_interval`` is the cadence of the acknowledgments that
    truncate the output buffers and source logs; ``None`` retains the whole run.
    """
    return ScenarioSpec.single_node(
        name="no truncation" if checkpoint_interval is None
        else f"acks every {checkpoint_interval:g} s",
        replicated=False,
        aggregate_rate=150.0,
        config=DPCConfig(checkpoint_interval=checkpoint_interval),
        duration=30.0,
    )


@_entry("recovery")
def recovery(failure_duration: float = 8.0, checkpoint_interval: float | None = 2.0,
             seed: int | None = 1) -> ScenarioSpec:
    """Chain of two; node1 replica 0 crashes at 5 s.

    With ``checkpoint_interval`` the partner keeps capturing recovery
    checkpoints through the outage and the replica rejoins from shipped state
    plus a short replay suffix; ``None`` forces full subscription replay.
    """
    label = "full replay" if checkpoint_interval is None else f"checkpoint@{checkpoint_interval:g}s"
    return ScenarioSpec.chain(
        2,
        name=f"recovery-{label}",
        aggregate_rate=90.0,
        seed=seed,
        warmup=5.0,
        settle=20.0 + failure_duration * 0.5,
        checkpoint_interval=checkpoint_interval,
    ).with_failure("crash", start=5.0, duration=failure_duration, node="node1", node_replica=0)


# --------------------------------------------------------------------------- live backend tables
@_entry("live-throughput-chain2")
def live_throughput_chain2(aggregate_rate: float = 240.0, warmup: float = 4.0) -> ScenarioSpec:
    """Failure-free chain of two, run on real worker processes."""
    return ScenarioSpec.chain(2, aggregate_rate=aggregate_rate, warmup=warmup, settle=0.0, seed=1)


@_entry("live-throughput-shard4")
def live_throughput_shard4(aggregate_rate: float = 240.0, warmup: float = 4.0) -> ScenarioSpec:
    """Failure-free shard(4), run on real worker processes."""
    return ScenarioSpec.sharded(4, aggregate_rate=aggregate_rate, warmup=warmup, settle=0.0,
                                seed=1)


@_entry("live-disconnect-chain2")
def live_disconnect_chain2(duration: float = 4.0) -> ScenarioSpec:
    """Chain of two; one source disconnected for 1 s at 1.5 s."""
    return ScenarioSpec.chain(2, aggregate_rate=90.0, warmup=1.5, duration=duration,
                              seed=1).with_failure("disconnect", duration=1.0)


@_entry("live-partition-shard4")
def live_partition_shard4(duration: float = 4.0) -> ScenarioSpec:
    """Shard(4); every replica of ``shard1`` partitioned off for 1 s at 1.5 s."""
    return ScenarioSpec.sharded(4, aggregate_rate=120.0, warmup=1.5, duration=duration,
                                seed=1).with_partition("shard1", replica=-1, duration=1.0)


# --------------------------------------------------------------------------- golden digests
@_entry("chain2-disconnect")
def golden_chain(seed: int | None = 1) -> ScenarioSpec:
    return ScenarioSpec.chain(
        2, name="golden-chain", aggregate_rate=90.0, settle=15.0, seed=seed
    ).with_failure("disconnect", start=5.0, duration=6.0)


@_entry("aggregate-disconnect")
def golden_aggregate(seed: int | None = 1) -> ScenarioSpec:
    """Pane-based windowed aggregation under a bursty rate and a mid-run disconnect.

    Covers the aggregate's pane-level checkpoint/restore reconciliation.
    """
    return ScenarioSpec.windowed_aggregate(
        window_size=1.0,
        window_slide=0.25,
        name="golden-aggregate",
        aggregate_rate=90.0,
        warmup=4.0,
        settle=16.0,
        seed=seed,
        rate_profile=bursty_rate(period=8.0, burst_length=2.0, burst_factor=2.0),
    ).with_failure("disconnect", start=5.0, duration=6.0)


@_entry("diamond-branch-crash")
def golden_diamond(seed: int | None = 1) -> ScenarioSpec:
    return ScenarioSpec.diamond(
        name="golden-diamond", aggregate_rate=90.0, warmup=4.0, settle=16.0, seed=seed
    ).with_branch_crash("left", duration=5.0)


@_entry("shard4-shard-kill")
def golden_shard_kill(seed: int | None = 1) -> ScenarioSpec:
    return ScenarioSpec.sharded(
        shards=4,
        name="golden-shard4",
        aggregate_rate=90.0,
        warmup=4.0,
        settle=16.0,
        seed=seed,
    ).with_shard_kill(1, duration=5.0)


@_entry("shard4-rebalance")
def golden_rebalance(seed: int | None = 1) -> ScenarioSpec:
    return ScenarioSpec.sharded(
        shards=4,
        skew=1.2,
        name="golden-rebalance",
        aggregate_rate=120.0,
        warmup=16.0,
        settle=18.0,
        seed=seed,
        rebalance_at=16.0,
    )


@_entry("recovery-longfail")
def golden_recovery(seed: int | None = 1) -> ScenarioSpec:
    """A long single-replica crash rejoined through the checkpoint-shipped path.

    Pins the whole statexfer flow: capture cadence, adoption, cursor
    resubscription and log truncation.
    """
    return ScenarioSpec.chain(
        2, name="golden-recovery", aggregate_rate=90.0, warmup=5.0, settle=20.0, seed=seed
    ).with_failure("crash", start=5.0, duration=8.0, node="node1", node_replica=0)


@_entry("recovery-replay")
def golden_replay(seed: int | None = 1) -> ScenarioSpec:
    """``recovery-longfail`` without recovery checkpoints: the full-replay rejoin."""
    return golden_recovery(seed).with_overrides(checkpoint_interval=None)


#: The failure-free shard(4) of ``shard-throughput``, pinned as it runs.
CATALOGUE["shard4-steady"] = partial(shard_throughput, 4)


# --------------------------------------------------------------------------- end-to-end benchmark
@_entry("sim-shard4-steady")
def sim_shard4_steady(seed: int | None = 1, quick: bool = False) -> ScenarioSpec:
    """Failure-free shard(4) at 2400 tuples/s for 30 s (3 s when ``quick``)."""
    return ScenarioSpec.sharded(
        shards=4,
        replicas_per_node=2,
        n_input_streams=3,
        aggregate_rate=2400,
        warmup=3 if quick else 30,
        settle=0,
        seed=seed,
    )


@_entry("sim-chain4-disconnect")
def sim_chain4_disconnect(seed: int | None = 1, quick: bool = False) -> ScenarioSpec:
    """Figures 15/16/19 at benchmark size: D = 2 s at each of 4 nodes, one input silent 30 s.

    The rate stays at 150: at 300 the modelled redo_rate=1200 never lets the
    chain re-stabilise within the settle.
    """
    warmup, outage, settle = (2, 4, 12) if quick else (10, 30, 45)
    return ScenarioSpec.chain(
        4,
        replicas_per_node=2,
        aggregate_rate=150,
        per_node_delay=2.0,
        config=DPCConfig(max_incremental_latency=8.0),
        warmup=warmup,
        settle=settle,
        seed=seed,
    ).with_failure("silence", start=warmup, duration=outage, stream_index=0)


@_entry("sim-window-crash")
def sim_window_crash(seed: int | None = 1, quick: bool = False) -> ScenarioSpec:
    """A (100, 1) sliding window at 2400 tuples/s; one replica crashes for 10 s."""
    warmup, downtime, settle = (6, 3, 8) if quick else (20, 10, 30)
    return ScenarioSpec.windowed_aggregate(
        window_size=100,
        window_slide=1,
        aggregate_rate=600 if quick else 2400,
        replicas_per_node=2,
        checkpoint_interval=2,
        warmup=warmup,
        settle=settle,
        seed=seed,
    ).with_failure("crash", start=warmup, duration=downtime, node_replica=0)
