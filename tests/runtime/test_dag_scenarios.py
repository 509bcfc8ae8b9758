"""DAG topology scenarios through the runtime layer (tier-1 acceptance).

The headline property (ISSUE 2): a diamond deployment -- 2-way fan-out into
partitioned branches, 2-way fan-in, two replicas per node -- survives the
crash of *every* replica of one branch: the other branch's output stays
stable, the client's Proc_new stays within the availability bound, and after
recovery reconciliation converges to the failure-free output.
"""

import pytest

from repro.config import DPCConfig
from repro.errors import ConfigurationError
from repro.runtime import NodeSpec, ScenarioSpec, Topology


def _diamond_spec(**changes):
    defaults = dict(
        aggregate_rate=90.0,
        warmup=4.0,
        settle=18.0,
        seed=1,
        config=DPCConfig(max_incremental_latency=3.0),
    )
    defaults.update(changes)
    return ScenarioSpec.diamond(**defaults)


# --------------------------------------------------------------------------- validation
def test_crash_on_unknown_node_fails_at_build_time():
    spec = _diamond_spec().with_failure("crash", duration=5.0, node="nonexistent")
    with pytest.raises(ConfigurationError):
        spec.validate()
    with pytest.raises(ConfigurationError):
        spec.build()


def test_crash_on_out_of_range_replica_fails_at_build_time():
    spec = _diamond_spec().with_failure("crash", duration=5.0, node="left", node_replica=5)
    with pytest.raises(ConfigurationError):
        spec.validate()


def test_crash_of_a_chain_name_on_a_dag_fails_at_build_time():
    spec = _diamond_spec().with_failure("crash", duration=5.0, node="node1")
    with pytest.raises(ConfigurationError, match="node1"):
        spec.validate()


def test_disconnect_stream_out_of_range_uses_topology_sources():
    spec = _diamond_spec().with_failure("disconnect", duration=5.0, stream_index=3)
    with pytest.raises(ConfigurationError):
        spec.validate()
    # stream 2 exists (the diamond has three sources).
    _diamond_spec().with_failure("disconnect", duration=5.0, stream_index=2).validate()


def test_custom_topology_from_node_specs():
    spec = ScenarioSpec(
        name="custom",
        topology=Topology([NodeSpec("ingest", ("s1", "s2")), NodeSpec("relay", ("ingest",))]),
        aggregate_rate=60.0,
        settle=6.0,
        warmup=2.0,
    )
    runtime = spec.run()
    assert runtime.topology.node_names == ["ingest", "relay"]
    assert len(runtime.sources) == 2
    assert runtime.client.stream == "relay.out"
    assert runtime.eventually_consistent()


# --------------------------------------------------------------------------- name-based addressing
def test_name_based_node_lookup():
    runtime = _diamond_spec(settle=5.0, warmup=1.0).build()
    assert runtime.node("merge", 0).name == "merge"
    assert runtime.node("merge", 1).name == "merge'"
    assert [n.name for n in runtime.node_group("left")] == ["left", "left'"]
    # Replica groups are listed in topological order.
    assert [group[0].name for group in runtime.cluster.nodes] == runtime.topology.node_names
    assert runtime.topology.node_names[0] == "ingest"
    with pytest.raises(ConfigurationError):
        runtime.node("nope")
    with pytest.raises(ConfigurationError):
        runtime.node("merge", 7)
    with pytest.raises(ConfigurationError, match="no node"):
        runtime.node_group("node4")


# --------------------------------------------------------------------------- end-to-end acceptance
def test_diamond_branch_kill_keeps_survivor_stable_and_reconciles():
    """ISSUE 2 acceptance: kill one branch, survivor stable, bound kept, converges."""
    spec = _diamond_spec().with_branch_crash("left", duration=6.0)
    assert len(spec.failures) == 1  # one schedule entry, resolved to all replicas
    runtime = spec.run()
    assert len(runtime.injected) == 2  # both replicas of the branch crashed

    # The unaffected branch never produced a tentative tuple and ended STABLE.
    for replica in runtime.node_group("right"):
        stats = replica.statistics()
        assert stats["state"] == "stable"
        assert stats["outputs"]["right.out"]["tentative"] == 0
    # The failed branch's slice went tentative at the merge during the outage.
    merge_tentative = sum(
        replica.statistics()["outputs"]["merge.out"]["tentative"]
        for replica in runtime.node_group("merge")
    )
    assert merge_tentative > 0
    assert runtime.client.n_tentative > 0

    # Availability: Proc_new within the end-to-end bound X.
    assert runtime.client.proc_new < spec.dpc_config().max_incremental_latency

    # Eventual consistency after recovery.
    assert runtime.eventually_consistent()
    sequence = runtime.client.stable_sequence
    assert sequence == sorted(sequence)
    assert set(range(min(sequence), max(sequence) + 1)) <= set(sequence)

    # Every replica group settles back to STABLE.
    for name in runtime.topology.node_names:
        for replica in runtime.node_group(name):
            assert replica.state.value == "stable", (name, replica.name)


def test_fanin_branch_silence_reconciles():
    spec = ScenarioSpec.fanin(
        aggregate_rate=80.0,
        warmup=4.0,
        settle=16.0,
        seed=1,
        config=DPCConfig(max_incremental_latency=3.0),
    ).with_failure("silence", duration=5.0, stream_index=0)
    runtime = spec.run()
    assert runtime.eventually_consistent()
    # Only branch1 (fed by the silenced source) went tentative.
    for replica in runtime.node_group("branch2"):
        assert replica.statistics()["outputs"]["branch2.out"]["tentative"] == 0
    branch1_tentative = sum(
        replica.statistics()["outputs"]["branch1.out"]["tentative"]
        for replica in runtime.node_group("branch1")
    )
    assert branch1_tentative > 0
    assert runtime.client.proc_new < spec.dpc_config().max_incremental_latency


def test_pure_fanout_gets_one_client_per_sink():
    topo = Topology(
        [
            NodeSpec("ingest", ("s1", "s2")),
            NodeSpec("alpha", ("ingest",)),
            NodeSpec("beta", ("ingest",)),
        ],
        name="fanout",
    )
    runtime = ScenarioSpec(
        name="fanout",
        topology=topo,
        aggregate_rate=60.0,
        warmup=2.0,
        settle=6.0,
    ).run()
    assert len(runtime.clients) == 2
    streams = {client.stream for client in runtime.clients}
    assert streams == {"alpha.out", "beta.out"}
    for client in runtime.clients:
        assert client.metrics.consistency.total_stable > 0


def test_branch_crash_tracks_replica_overrides():
    spec = _diamond_spec(settle=5.0).with_branch_crash("left", duration=3.0)
    bigger = spec.with_overrides(replicas_per_node=3)
    runtime = bigger.build()
    runtime.start()
    # The single schedule entry expands to the *overridden* replica count.
    assert len(runtime.injected) == 3
    assert {record.target for record in runtime.injected} == {"left", "left'", "left''"}
