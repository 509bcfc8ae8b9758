"""Integration tests: full simulated deployments under failures.

These exercise the whole stack (sources, nodes with DPC, clients) at small
rates so they stay fast, and assert the paper's qualitative guarantees:
availability within the bound and eventual consistency.
"""

import pytest

from repro.config import DelayPolicy, DPCConfig
from repro.deploy import compile as compile_topology
from repro.experiments import availability_run
from repro.runtime import ScenarioSpec, client_is_eventually_consistent
from repro.topology import Topology

RATE = 60.0  # tuples/second, kept small so the suite stays fast


def _chain(depth: int = 1, replicas: int = 2, **changes) -> ScenarioSpec:
    """A stateless chain (no SJoin) at the suite's small rate."""
    return ScenarioSpec.chain(
        depth, replicas_per_node=replicas, aggregate_rate=RATE, join_state_size=None, **changes
    )


def stable_sequence_is_complete(client) -> bool:
    seq = client.stable_sequence
    if not seq or seq != sorted(seq):
        return False
    return set(range(min(seq), max(seq) + 1)) == set(seq)


def test_failure_free_run_produces_only_stable_output():
    placement = compile_topology(Topology.chain(1), replicas_per_node=1)
    cluster = placement.deploy(aggregate_rate=RATE, join_state_size=None).cluster
    cluster.start()
    cluster.run_for(15.0)
    client = cluster.client
    assert client.n_tentative == 0
    assert client.metrics.consistency.total_stable > 0
    assert stable_sequence_is_complete(client)
    assert client.proc_new < 1.0  # well within the bound; no failure happened
    assert all(node.state.value == "stable" for node in cluster.all_nodes())


def test_short_failure_is_fully_masked():
    spec = _chain(warmup=5.0, settle=20.0).with_failure("disconnect", duration=2.0)
    client = spec.run().client
    assert client.n_tentative == 0
    assert stable_sequence_is_complete(client)
    assert client.proc_new < 3.6


def test_long_failure_single_node_reaches_eventual_consistency():
    spec = _chain(replicas=1, warmup=5.0, settle=25.0).with_failure("disconnect", duration=10.0)
    runtime = spec.run()
    client = runtime.client
    assert client.n_tentative > 0
    assert client.metrics.consistency.total_rec_done >= 1
    assert stable_sequence_is_complete(client)
    assert not client.metrics.consistency.has_pending_tentative()
    node = runtime.node("node1")
    assert node.reconciliations_completed == 1
    assert node.state.value == "stable"


def test_replicated_node_maintains_availability_through_long_failure():
    result = availability_run(failure_duration=12.0, aggregate_rate=RATE, settle=30.0)
    assert result.eventually_consistent
    assert result.proc_new < 3.75
    assert result.n_rec_done >= 1


def test_overlapping_failures_on_two_streams():
    spec = (
        _chain(replicas=1, warmup=5.0, settle=25.0)
        .with_failure("disconnect", start=5.0, duration=8.0, stream_index=0)
        .with_failure("disconnect", start=8.0, duration=8.0, stream_index=2)
    )
    client = spec.run().client
    assert stable_sequence_is_complete(client)
    assert client.metrics.consistency.total_rec_done >= 1


def test_failure_during_recovery_triggers_second_reconciliation():
    # A slow redo rate keeps the first reconciliation running long enough for
    # the second failure (which starts one second later) to interrupt it.
    config = DPCConfig(max_incremental_latency=3.0, redo_rate=150.0)
    spec = (
        _chain(replicas=1, config=config, warmup=5.0, settle=35.0)
        .with_failure("disconnect", start=5.0, duration=10.0, stream_index=0)
        .with_failure("disconnect", start=16.0, duration=8.0, stream_index=2)
    )
    runtime = spec.run()
    client = runtime.client
    node = runtime.node("node1")
    assert stable_sequence_is_complete(client)
    assert client.metrics.consistency.total_rec_done >= 1
    assert node.reconciliations_completed + node.reconciliations_aborted >= 2


def test_chain_recovers_level_by_level():
    config = DPCConfig(max_incremental_latency=4.0)
    spec = _chain(2, config=config, warmup=5.0, settle=30.0).with_failure(
        "silence", duration=10.0
    )
    runtime = spec.run()
    assert client_is_eventually_consistent(runtime.client)
    assert runtime.client.proc_new < 4.0 + 1.0
    for node in runtime.nodes():
        assert node.state.value == "stable"
        assert node.reconciliations_completed >= 1


def test_delay_policy_reduces_tentative_tuples():
    eager = availability_run(
        failure_duration=8.0, aggregate_rate=120.0, policy=DelayPolicy.process_process(), settle=30.0
    )
    delaying = availability_run(
        failure_duration=8.0, aggregate_rate=120.0, policy=DelayPolicy.delay_delay(), settle=30.0
    )
    assert eager.eventually_consistent and delaying.eventually_consistent
    assert delaying.n_tentative <= eager.n_tentative
    assert delaying.proc_new < 3.75


def test_node_crash_and_recovery_with_replica():
    placement = compile_topology(Topology.chain(1), replicas_per_node=2)
    cluster = placement.deploy(aggregate_rate=RATE, join_state_size=None).cluster
    node_to_crash = cluster.nodes[0][0]
    cluster.simulator.schedule_at(5.0, lambda now: node_to_crash.crash())
    cluster.simulator.schedule_at(15.0, lambda now: node_to_crash.recover())
    cluster.start()
    cluster.run_for(30.0)
    client = cluster.client
    # The client switches to the surviving replica, so data keeps flowing and
    # remains gap-free.
    assert stable_sequence_is_complete(client)
    assert client.cm.switches_performed >= 1
    assert client.proc_new < 4.0
