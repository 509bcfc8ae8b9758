"""Chain experiments: Figures 15, 16, 18, 19, and 20."""

from __future__ import annotations

from typing import Sequence

from ..config import DelayAssignment, DelayPolicy
from .harness import ExperimentResult, availability_run

#: The two policies compared throughout Section 6.2.
CHAIN_POLICIES: dict[str, DelayPolicy] = {
    "Process & Process": DelayPolicy.process_process(),
    "Delay & Delay": DelayPolicy.delay_delay(),
}


def _chain_run(
    depth: int,
    policy_name: str,
    policy: DelayPolicy,
    failure_duration: float,
    *,
    per_node_delay: float,
    aggregate_rate: float,
    settle: float,
    delay_assignment: DelayAssignment = DelayAssignment.UNIFORM,
) -> ExperimentResult:
    # Per Section 6.2 the chain experiments assign D per node explicitly; the
    # end-to-end availability requirement is therefore depth * D.
    return availability_run(
        failure_duration=failure_duration,
        label=f"{policy_name} (depth {depth})",
        chain_depth=depth,
        replicas_per_node=2,
        aggregate_rate=aggregate_rate,
        max_incremental_latency=per_node_delay * depth,
        policy=policy,
        delay_assignment=delay_assignment,
        per_node_delay=per_node_delay,
        failure_kind="silence",
        settle=settle + failure_duration * 0.5,
        join_state_size=None,
    )


def fig15(
    depths: Sequence[int] = (1, 2, 3, 4),
    *,
    failure_duration: float = 30.0,
    per_node_delay: float = 2.0,
    aggregate_rate: float = 150.0,
    settle: float = 30.0,
) -> list[ExperimentResult]:
    """Figure 15: Proc_new vs chain depth (D = 2 s per node, 30 s failure)."""
    results = []
    for name, policy in CHAIN_POLICIES.items():
        for depth in depths:
            results.append(
                _chain_run(
                    depth,
                    name,
                    policy,
                    failure_duration,
                    per_node_delay=per_node_delay,
                    aggregate_rate=aggregate_rate,
                    settle=settle,
                )
            )
    return results


def fig16(
    failure_durations: Sequence[float] = (5, 10, 15, 30),
    depths: Sequence[int] = (1, 2, 3, 4),
    *,
    per_node_delay: float = 2.0,
    aggregate_rate: float = 150.0,
    settle: float = 30.0,
) -> list[ExperimentResult]:
    """Figure 16: N_tentative vs chain depth for 5/10/15/30-second failures."""
    return [
        result
        for duration in failure_durations
        for result in fig15(
            depths,
            failure_duration=float(duration),
            per_node_delay=per_node_delay,
            aggregate_rate=aggregate_rate,
            settle=settle,
        )
    ]


def fig18(
    depths: Sequence[int] = (1, 2, 3, 4),
    *,
    failure_duration: float = 60.0,
    per_node_delay: float = 2.0,
    aggregate_rate: float = 150.0,
    settle: float = 40.0,
) -> list[ExperimentResult]:
    """Figure 18: N_tentative for a 60-second (long) failure."""
    return fig15(
        depths,
        failure_duration=failure_duration,
        per_node_delay=per_node_delay,
        aggregate_rate=aggregate_rate,
        settle=settle,
    )


#: The three delay-assignment variants compared in Figures 19 and 20.
FIG19_VARIANTS: dict[str, dict] = {
    "Delay & Delay, D=2s each": {
        "policy": DelayPolicy.delay_delay(),
        "per_node_delay": 2.0,
        "delay_assignment": DelayAssignment.UNIFORM,
    },
    "Process & Process, D=2s each": {
        "policy": DelayPolicy.process_process(),
        "per_node_delay": 2.0,
        "delay_assignment": DelayAssignment.UNIFORM,
    },
    "Process & Process, D=6.5s each": {
        "policy": DelayPolicy.process_process(),
        "per_node_delay": 6.5,
        "delay_assignment": DelayAssignment.FULL,
    },
}


def fig19_20(
    failure_durations: Sequence[float] = (5, 10, 15, 30),
    *,
    depth: int = 4,
    aggregate_rate: float = 150.0,
    settle: float = 30.0,
) -> list[ExperimentResult]:
    """Figures 19 and 20: delay assignment strategies on a chain of four nodes.

    The application budget is X = 8 s; the uniform assignment gives each node
    D = 2 s, while the full assignment gives each SUnion the whole budget
    minus a queuing allowance (6.5 s), as in Section 6.3.
    """
    results = []
    for name, variant in FIG19_VARIANTS.items():
        for duration in failure_durations:
            results.append(
                availability_run(
                    failure_duration=float(duration),
                    label=name,
                    chain_depth=depth,
                    replicas_per_node=2,
                    aggregate_rate=aggregate_rate,
                    max_incremental_latency=8.0,
                    policy=variant["policy"],
                    delay_assignment=variant["delay_assignment"],
                    per_node_delay=variant["per_node_delay"],
                    failure_kind="silence",
                    settle=settle + duration * 0.5,
                    join_state_size=None,
                )
            )
    return results
