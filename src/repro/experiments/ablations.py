"""Ablation experiments for the design decisions DESIGN.md calls out.

The paper's evaluation fixes several parameters (two replicas per node, a
100 ms keepalive, node-wide failure granularity, unbounded buffers).  The
runners in this module vary them one at a time so the effect of each design
choice can be measured:

* :func:`replica_sweep` -- how many replicas are needed to keep Proc_new flat
  (Section 5.2 relies on "at least two replicas").
* :func:`detection_sweep` -- keepalive period / detection timeout against the
  failure-to-new-data gap (the 140 ms figure of Section 5.1).
* :func:`crash_failover` -- fail-stop crash of the replica a client reads
  from; DPC must mask it by switching to the other replica (Section 4.5).
* :func:`buffer_bound_run` -- bounded output buffers with and without
  blocking back-pressure (Section 8.1).
* :func:`granularity_run` -- per-stream vs node-wide failure advertisement
  (Section 8.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..config import BufferPolicy, DelayPolicy, DPCConfig
from ..errors import BufferOverflowError
from ..metrics.consistency import stable_ledger_rows
from ..runtime import ScenarioSpec
from .harness import ExperimentResult, availability_run, summarize_run


# --------------------------------------------------------------------------- replicas
def replica_sweep(
    replica_counts: Sequence[int] = (1, 2, 3),
    *,
    failure_duration: float = 10.0,
    aggregate_rate: float = 150.0,
    max_incremental_latency: float = 3.0,
    settle: float = 30.0,
) -> list[ExperimentResult]:
    """Proc_new and N_tentative as the number of replicas per node varies.

    With a single replica the node itself must reconcile, so new data stops
    flowing while it does and Proc_new grows with the failure duration; with
    two or more replicas the inter-replica protocol keeps one replica serving
    new data at all times.
    """
    results = []
    for replicas in replica_counts:
        results.append(
            availability_run(
                failure_duration=failure_duration,
                label=f"{replicas} replica{'s' if replicas != 1 else ''}",
                chain_depth=1,
                replicas_per_node=replicas,
                aggregate_rate=aggregate_rate,
                max_incremental_latency=max_incremental_latency,
                policy=DelayPolicy.process_process(),
                settle=settle + failure_duration * 0.5,
            )
        )
    return results


# --------------------------------------------------------------------------- failure detection
@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one detection-parameter configuration."""

    keepalive_period: float
    detection_timeout: float
    proc_new: float
    max_gap: float
    n_tentative: int
    switches: int
    eventually_consistent: bool

    def row(self) -> str:
        return (
            f"keepalive={self.keepalive_period * 1000:5.0f} ms  "
            f"timeout={self.detection_timeout * 1000:5.0f} ms  "
            f"Proc_new={self.proc_new:5.2f} s  max_gap={self.max_gap:5.2f} s  "
            f"N_tentative={self.n_tentative:5d}  switches={self.switches}"
        )


def detection_sweep(
    keepalive_periods: Sequence[float] = (0.05, 0.1, 0.25, 0.5),
    *,
    failure_duration: float = 10.0,
    aggregate_rate: float = 150.0,
    max_incremental_latency: float = 3.0,
    settle: float = 30.0,
) -> list[DetectionResult]:
    """Vary the keepalive / detection parameters and measure their latency cost.

    The paper quotes ~40 ms to switch upstream replicas plus up to one
    keepalive period to detect the failure (~140 ms total with the default
    100 ms period).  In the reproduction the switch cost is a configuration
    constant, so the sweep shows the detection component: larger keepalive
    periods and timeouts delay the reaction to a failure, which shows up in
    the maximum gap between new tuples and, eventually, in tentative output.
    """
    results = []
    for period in keepalive_periods:
        config = DPCConfig(
            max_incremental_latency=max_incremental_latency,
            delay_policy=DelayPolicy.process_process(),
            keepalive_period=period,
            failure_detection_timeout=min(period * 2.5, max_incremental_latency * 0.5),
        )
        outcome = availability_run(
            failure_duration=failure_duration,
            label=f"keepalive {period * 1000:.0f} ms",
            chain_depth=1,
            replicas_per_node=2,
            aggregate_rate=aggregate_rate,
            config=config,
            settle=settle + failure_duration * 0.5,
        )
        results.append(
            DetectionResult(
                keepalive_period=period,
                detection_timeout=config.failure_detection_timeout,
                proc_new=outcome.proc_new,
                max_gap=outcome.max_gap,
                n_tentative=outcome.n_tentative,
                switches=int(outcome.extra.get("switches", 0)),
                eventually_consistent=outcome.eventually_consistent,
            )
        )
    return results


# --------------------------------------------------------------------------- crash failover
def crash_failover(
    *,
    crash_duration: float = 15.0,
    aggregate_rate: float = 150.0,
    max_incremental_latency: float = 3.0,
    warmup: float = 5.0,
    settle: float = 30.0,
) -> ExperimentResult:
    """Crash the replica the client reads from and let DPC fail over.

    The client initially subscribes to the first replica of the (single)
    processing node.  That replica fail-stops for ``crash_duration`` seconds;
    the client's consistency manager must detect the silence and switch to the
    second replica, so new results keep flowing within the availability bound
    and no inconsistency is introduced (both replicas are STABLE throughout).
    """
    config = DPCConfig(
        max_incremental_latency=max_incremental_latency,
        delay_policy=DelayPolicy.process_process(),
    )
    spec = ScenarioSpec.single_node(
        name="crash failover",
        aggregate_rate=aggregate_rate,
        join_state_size=100,
        config=config,
        warmup=warmup,
        settle=settle,
    ).with_failure("crash", start=warmup, duration=crash_duration, node="node1", node_replica=0)
    runtime = spec.run()
    result = summarize_run(runtime, failure_duration=crash_duration)
    result.extra.pop("node_states", None)
    result.extra.update(
        crashed_replica=runtime.node("node1", 0).name,
        surviving_replica=runtime.node("node1", 1).name,
    )
    return result


# --------------------------------------------------------------------------- buffer bounds
@dataclass(frozen=True)
class BufferBoundResult:
    """Outcome of one buffer-policy configuration."""

    label: str
    max_output_tuples: int | None
    block_on_full: bool
    overflowed: bool
    buffered_tuples: int
    client_stable: int
    proc_new: float

    def row(self) -> str:
        bound = "unbounded" if self.max_output_tuples is None else str(self.max_output_tuples)
        return (
            f"{self.label:<24} bound={bound:>9}  block={'yes' if self.block_on_full else 'no '}  "
            f"overflowed={'yes' if self.overflowed else 'no '}  buffered={self.buffered_tuples:>6}  "
            f"stable@client={self.client_stable:>6}  Proc_new={self.proc_new:5.2f}s"
        )


def buffer_bound_run(
    *,
    max_output_tuples: int | None,
    block_on_full: bool,
    label: str | None = None,
    aggregate_rate: float = 150.0,
    duration: float = 30.0,
    checkpoint_interval: float | None = None,
) -> BufferBoundResult:
    """Run a failure-free deployment under one output-buffer policy.

    With ``block_on_full=True`` a full buffer raises
    :class:`~repro.errors.BufferOverflowError` (the back-pressure signal of
    Section 8.1, which in a full deployment propagates to the sources); with
    ``block_on_full=False`` the oldest tuples are dropped, which is only safe
    for convergent-capable diagrams.  ``checkpoint_interval`` is the cadence
    on which the client acknowledges what it recorded, i.e. the
    acknowledgment-driven truncation that keeps buffers small in the absence
    of failures; the default ``None`` retains the whole run.
    """
    policy = BufferPolicy(max_output_tuples=max_output_tuples, block_on_full=block_on_full)
    config = DPCConfig(buffer_policy=policy, checkpoint_interval=checkpoint_interval)
    runtime = ScenarioSpec.single_node(
        name="buffer-bounds",
        replicated=False,
        aggregate_rate=aggregate_rate,
        config=config,
        duration=duration,
    ).build()
    node = runtime.node("node1")
    overflowed = False
    try:
        runtime.run()
    except BufferOverflowError:
        overflowed = True
    manager = node.data_path.outputs()[0]
    return BufferBoundResult(
        label=label or f"bound={max_output_tuples}, block={block_on_full}",
        max_output_tuples=max_output_tuples,
        block_on_full=block_on_full,
        overflowed=overflowed,
        buffered_tuples=manager.buffered_tuples,
        client_stable=runtime.client.metrics.consistency.total_stable,
        proc_new=runtime.client.proc_new,
    )


# --------------------------------------------------------------------------- checkpoint-shipped recovery
@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of one crash-recovery run under one recovery mode."""

    label: str
    mode: str
    failure_duration: float
    recovery_s: float
    replayed: int
    shipped_items: int
    transfer_delay: float
    proc_new: float
    tuples_processed: int
    recovery_checkpoints: int
    eventually_consistent: bool
    ledger_rows: Sequence = ()


def recovery_run(
    *,
    checkpoint_interval: float | None,
    failure_duration: float = 8.0,
    chain_depth: int = 2,
    aggregate_rate: float = 90.0,
    seed: int = 1,
    warmup: float = 5.0,
    settle: float = 20.0,
    label: str | None = None,
) -> RecoveryResult:
    """Crash one replica for ``failure_duration`` and measure its rejoin.

    With ``checkpoint_interval`` set, the surviving partner keeps capturing
    recovery checkpoints during the outage, so the crashed replica rejoins
    from shipped state plus a short replay suffix (O(suffix since the last
    capture)); with ``None`` it rebuilds through full subscription replay of
    the whole outage (O(retained window)).  Both modes must converge to the
    same stable ledger -- compare :attr:`RecoveryResult.ledger_rows`.
    """
    if label is None:
        label = "full replay" if checkpoint_interval is None else (
            f"checkpoint@{checkpoint_interval:g}s"
        )
    spec = ScenarioSpec.chain(
        chain_depth,
        name=f"recovery-{label}",
        aggregate_rate=aggregate_rate,
        seed=seed,
        warmup=warmup,
        settle=settle + failure_duration * 0.5,
        checkpoint_interval=checkpoint_interval,
    ).with_failure(
        "crash", start=warmup, duration=failure_duration, node="node1", node_replica=0
    )
    runtime = spec.run()
    node = runtime.node("node1")
    record = (
        node.recoveries[-1]
        if node.recoveries
        else {"mode": "none", "replayed": 0, "shipped_items": 0,
              "transfer_delay": 0.0, "recovery_s": 0.0}
    )
    return RecoveryResult(
        label=label,
        mode=record["mode"],
        failure_duration=failure_duration,
        recovery_s=record["recovery_s"],
        replayed=record["replayed"],
        shipped_items=record["shipped_items"],
        transfer_delay=record["transfer_delay"],
        proc_new=runtime.client.proc_new,
        tuples_processed=node.engine.tuples_processed,
        recovery_checkpoints=sum(
            n.recovery_checkpoints_taken for g in runtime.cluster.nodes for n in g
        ),
        eventually_consistent=runtime.eventually_consistent(),
        ledger_rows=stable_ledger_rows(runtime.client),
    )


def recovery_time_sweep(
    durations: Sequence[float] = (2.0, 4.0, 8.0, 16.0),
    *,
    checkpoint_interval: float = 2.0,
    **kwargs,
) -> list[tuple[RecoveryResult, RecoveryResult]]:
    """``(checkpoint-shipped, full-replay)`` result pair per failure duration."""
    return [
        (
            recovery_run(
                checkpoint_interval=checkpoint_interval, failure_duration=duration, **kwargs
            ),
            recovery_run(checkpoint_interval=None, failure_duration=duration, **kwargs),
        )
        for duration in durations
    ]


# --------------------------------------------------------------------------- failure granularity
def granularity_run(
    per_stream: bool,
    *,
    failure_duration: float = 10.0,
    aggregate_rate: float = 150.0,
    max_incremental_latency: float = 3.0,
    settle: float = 30.0,
) -> ExperimentResult:
    """One availability run with node-wide or per-stream failure advertisement."""
    config = DPCConfig(
        max_incremental_latency=max_incremental_latency,
        delay_policy=DelayPolicy.process_process(),
        per_stream_granularity=per_stream,
    )
    return availability_run(
        failure_duration=failure_duration,
        label=f"granularity={'per-stream' if per_stream else 'node-wide'}",
        aggregate_rate=aggregate_rate,
        config=config,
        settle=settle + failure_duration * 0.5,
    )
