"""Single-node experiments: Figure 11, Table III, and Figure 13."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..config import DelayPolicy, DPCConfig
from ..metrics.collector import TraceEntry
from ..runtime import FailureSpec, ScenarioSpec
from .harness import ExperimentResult, availability_run

#: The six delay-policy variants compared in Figure 13, in the paper's naming.
FIG13_POLICIES: dict[str, DelayPolicy] = {
    "Process & Process": DelayPolicy.process_process(),
    "Delay & Process": DelayPolicy.delay_process(),
    "Process & Delay": DelayPolicy.process_delay(),
    "Delay & Delay": DelayPolicy.delay_delay(),
    "Process & Suspend": DelayPolicy.process_suspend(),
    "Delay & Suspend": DelayPolicy.delay_suspend(),
}


@dataclass
class TraceResult:
    """Output trace of one eventual-consistency experiment (Figure 11)."""

    label: str
    trace: list[TraceEntry]
    eventually_consistent: bool
    n_tentative: int
    n_undos: int
    n_rec_done: int
    reconciliations: int = 0
    extra: dict = field(default_factory=dict)


def eventual_consistency_trace(
    *,
    overlapping: bool,
    aggregate_rate: float = 150.0,
    max_incremental_latency: float = 2.0,
    first_failure_start: float = 5.0,
    first_failure_duration: float = 10.0,
    settle: float = 30.0,
    config: DPCConfig | None = None,
) -> TraceResult:
    """Reproduce Figure 11: a single unreplicated node and two failures.

    With ``overlapping=True`` the second failure (on input stream 3) starts
    while the first (on input stream 1) is still active -- Figure 11(a).  With
    ``overlapping=False`` the second failure starts exactly when the first one
    heals, i.e. during recovery -- Figure 11(b).
    """
    config = config or DPCConfig(max_incremental_latency=max_incremental_latency)
    if overlapping:
        second_start = first_failure_start + first_failure_duration / 2
    else:
        second_start = first_failure_start + first_failure_duration
    spec = ScenarioSpec.single_node(
        name="Figure 11(a) overlapping failures"
        if overlapping
        else "Figure 11(b) failure during recovery",
        replicated=False,
        aggregate_rate=aggregate_rate,
        join_state_size=None,
        config=config,
        warmup=first_failure_start,
        settle=settle,
        failures=(
            FailureSpec(
                kind="disconnect",
                start=first_failure_start,
                duration=first_failure_duration,
                stream_index=0,
            ),
            FailureSpec(
                kind="disconnect",
                start=second_start,
                duration=first_failure_duration,
                stream_index=2,
            ),
        ),
    )
    runtime = spec.run()
    client = runtime.client
    summary = client.summary()
    return TraceResult(
        label=spec.name,
        trace=list(client.metrics.trace),
        eventually_consistent=runtime.eventually_consistent(),
        n_tentative=summary["total_tentative"],
        n_undos=summary["total_undos"],
        n_rec_done=summary["total_rec_done"],
        reconciliations=sum(n.reconciliations_completed for n in runtime.nodes()),
        extra={"proc_new": summary["proc_new"]},
    )


def table3(
    failure_durations: Sequence[float] = (2, 4, 6, 8, 10, 12, 14, 16, 30, 45, 60),
    *,
    aggregate_rate: float = 150.0,
    max_incremental_latency: float = 3.0,
    settle: float = 30.0,
) -> list[ExperimentResult]:
    """Table III: Proc_new vs failure duration, one replicated node, X = 3 s.

    Figure 13's set-up with Process & Process as the only policy.
    """
    return fig13(
        failure_durations,
        {"Table III": DelayPolicy.process_process()},
        aggregate_rate=aggregate_rate,
        max_incremental_latency=max_incremental_latency,
        settle=settle,
    )


def fig13(
    failure_durations: Sequence[float] = (2, 6, 10, 14, 30, 60),
    policies: dict[str, DelayPolicy] | None = None,
    *,
    aggregate_rate: float = 450.0,
    max_incremental_latency: float = 3.0,
    settle: float = 30.0,
) -> list[ExperimentResult]:
    """Figure 13: Proc_new and N_tentative for the six delay-policy variants."""
    policies = policies or FIG13_POLICIES
    results = []
    for name, policy in policies.items():
        for duration in failure_durations:
            results.append(
                availability_run(
                    failure_duration=float(duration),
                    label=name,
                    chain_depth=1,
                    replicas_per_node=2,
                    aggregate_rate=aggregate_rate,
                    max_incremental_latency=max_incremental_latency,
                    policy=policy,
                    settle=settle + duration * 0.5,
                )
            )
    return results
