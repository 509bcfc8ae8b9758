"""DAG-topology experiments: branch failures in reconvergent deployments.

The paper's evaluation deploys single nodes and chains, but its query
diagrams (and the Section 6.3 delay-assignment discussion around Figure 21)
are general DAGs.  These runners exercise the distributed-SUnion machinery on
the two shapes the chain experiments cannot express:

* ``diamond`` -- an ingest node fans out to two partitioned branches that a
  fan-in SUnion re-merges (reconvergent paths).  The failure schedule kills
  *every* replica of one branch, so the downstream merge cannot mask the
  failure by switching and must trade availability against consistency,
  while the sibling branch keeps producing stable output.
* ``fanin`` -- two independent ingest branches merged by one node; the
  failure silences one branch's source, which suspends only the SUnion ports
  fed by that branch.

Both runners express their deployments as :class:`~repro.runtime.ScenarioSpec`
topologies and report the standard :class:`ExperimentResult` units plus the
DAG-specific evidence (per-branch tentative counts and final states).
"""

from __future__ import annotations

from typing import Sequence

from ..config import DelayPolicy, DPCConfig
from ..runtime import ScenarioSpec, SimulationRuntime
from .harness import ExperimentResult, group_output_counts, summarize_run


def diamond_spec(
    failure_duration: float = 8.0,
    *,
    aggregate_rate: float = 120.0,
    replicas_per_node: int = 2,
    max_incremental_latency: float = 3.0,
    policy: DelayPolicy | None = None,
    warmup: float = 5.0,
    settle: float = 30.0,
    seed: int | None = None,
) -> ScenarioSpec:
    """The diamond branch-kill scenario (crash every replica of ``left``)."""
    config = DPCConfig(
        max_incremental_latency=max_incremental_latency,
        delay_policy=policy or DelayPolicy.process_process(),
    )
    return ScenarioSpec.diamond(
        name="diamond-branch-crash",
        replicas_per_node=replicas_per_node,
        aggregate_rate=aggregate_rate,
        config=config,
        warmup=warmup,
        settle=settle,
        seed=seed,
    ).with_branch_crash("left", duration=failure_duration)


def diamond_branch_failure(failure_duration: float = 8.0, **spec_options) -> ExperimentResult:
    """Kill one branch of a diamond; measure the merge output and the survivor.

    ``spec_options`` are :func:`diamond_spec`'s keyword arguments.

    The acceptance properties, asserted by
    ``tests/runtime/test_dag_scenarios.py`` (and pinned by the golden digest
    ``diamond-branch-crash``):

    * the unaffected branch (``right``) never produces a tentative tuple and
      ends STABLE -- its slice of the stream is never in doubt;
    * the client's Proc_new stays within the availability bound (the merge
      suspends for its delay budget, then processes the survivor's slice
      tentatively);
    * after the branch recovers, reconciliation converges: the client's
      stable ledger is gap-free, duplicate-free, and ordered.
    """
    spec = diamond_spec(failure_duration, **spec_options)
    runtime = spec.run()
    result = summarize_run(runtime, failure_duration=failure_duration)
    result.extra["branches"] = {
        name: group_output_counts(runtime, name)
        for name in ("ingest", "left", "right", "merge")
    }
    result.extra["branch_states"] = {
        name: [replica.state.value for replica in runtime.node_group(name)]
        for name in runtime.topology.node_names
    }
    result.extra["availability_bound"] = spec.dpc_config().max_incremental_latency
    return result


def fanin_spec(
    failure_duration: float = 8.0,
    *,
    branches: int = 2,
    streams_per_branch: int = 2,
    aggregate_rate: float = 120.0,
    replicas_per_node: int = 2,
    max_incremental_latency: float = 3.0,
    policy: DelayPolicy | None = None,
    failure_kind: str = "silence",
    warmup: float = 5.0,
    settle: float = 30.0,
    seed: int | None = None,
) -> ScenarioSpec:
    """The fan-in scenario: one branch's source fails for ``failure_duration``."""
    config = DPCConfig(
        max_incremental_latency=max_incremental_latency,
        delay_policy=policy or DelayPolicy.process_process(),
    )
    return ScenarioSpec.fanin(
        name=f"fanin-{failure_kind}",
        branches=branches,
        streams_per_branch=streams_per_branch,
        replicas_per_node=replicas_per_node,
        aggregate_rate=aggregate_rate,
        config=config,
        warmup=warmup,
        settle=settle,
        seed=seed,
    ).with_failure(failure_kind, duration=failure_duration, stream_index=0)


def fanin_branch_failure(failure_duration: float = 8.0, **spec_options) -> ExperimentResult:
    """Fail one ingest branch of a fan-in deployment and measure the merge.

    ``spec_options`` are :func:`fanin_spec`'s keyword arguments.
    """
    spec = fanin_spec(failure_duration, **spec_options)
    runtime = spec.run()
    result = summarize_run(runtime, failure_duration=failure_duration)
    result.extra["branches"] = {
        name: group_output_counts(runtime, name) for name in runtime.topology.node_names
    }
    result.extra["availability_bound"] = spec.dpc_config().max_incremental_latency
    return result


def diamond_sweep(
    durations: Sequence[float] = (4.0, 8.0, 16.0), *, seed: int | None = None
) -> list[ExperimentResult]:
    """Diamond branch-kill across failure durations (the CLI table)."""
    return [diamond_branch_failure(float(d), seed=seed) for d in durations]


def fanin_sweep(
    durations: Sequence[float] = (4.0, 8.0, 16.0), *, seed: int | None = None
) -> list[ExperimentResult]:
    """Fan-in branch silence across failure durations (the CLI table)."""
    return [fanin_branch_failure(float(d), seed=seed) for d in durations]
