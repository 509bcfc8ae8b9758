"""compile(Topology) -> Placement: plan shape, inspection, and diffing."""

import pytest

from repro import deploy
from repro.config import DPCConfig, SimulationConfig
from repro.errors import ConfigurationError
from repro.topology import NodeSpec, Topology, modulo_partition


def test_chain_placement_plans_entry_and_relays():
    placement = deploy.compile(Topology.chain(3), replicas_per_node=2)
    assert [plan.name for plan in placement.nodes] == ["node1", "node2", "node3"]
    assert placement.node_plan("node1").fragment == deploy.FRAGMENT_ENTRY
    assert placement.node_plan("node2").fragment == deploy.FRAGMENT_RELAY
    assert placement.node_plan("node1").stateful
    assert not placement.node_plan("node2").stateful
    assert placement.node_plan("node1").replica_names == ("node1", "node1'")
    assert [c.name for c in placement.clients] == ["client"]
    assert placement.filtered_subscriptions() == []
    assert placement.shard_producer is None


def test_diamond_placement_plans_fanin_merge():
    placement = deploy.compile(Topology.diamond())
    assert placement.node_plan("merge").fragment == deploy.FRAGMENT_FANIN
    assert placement.node_plan("left").fragment == deploy.FRAGMENT_RELAY
    # Each branch's partition is selected at ingest: two filtered edges.
    filtered = placement.filtered_subscriptions()
    assert [(edge.producer, edge.consumer) for edge in filtered] == [
        ("ingest", "left"),
        ("ingest", "right"),
    ]
    assert [edge.filter_name for edge in filtered] == ["left.slice", "right.slice"]


def test_shard_placement_plans_filtered_subscriptions():
    placement = deploy.compile(Topology.shard(4))
    assert placement.shard_fragments == ("shard1", "shard2", "shard3", "shard4")
    assert placement.shard_producer == "split"
    filtered = placement.filtered_subscriptions()
    assert [edge.consumer for edge in filtered] == ["shard1", "shard2", "shard3", "shard4"]
    assert all(edge.producer == "split" for edge in filtered)
    assert all(edge.filter_name == f"{edge.consumer}.slice" for edge in filtered)
    # The fragments themselves are plain relays (slice cut at the producer).
    for name in placement.shard_fragments:
        assert placement.node_plan(name).fragment == deploy.FRAGMENT_RELAY
        assert placement.node_plan(name).stateful


def test_describe_is_plain_data():
    import json

    placement = deploy.compile(Topology.shard(2))
    rendered = json.dumps(placement.describe(), sort_keys=True)
    assert "shard1.slice" in rendered


def test_diff_reports_structural_changes():
    a = deploy.compile(Topology.shard(2))
    b = deploy.compile(Topology.shard(2))
    assert a.diff(b) == []
    c = deploy.compile(Topology.shard(3))
    changes = "\n".join(a.diff(c))
    assert "shard3" in changes and "added" in changes
    d = deploy.compile(Topology.shard(2), replicas_per_node=3)
    assert any("replicas 2 -> 3" in line for line in a.diff(d))

    def selecting(select):
        consumer = NodeSpec("b", ("a",), select=select)
        return deploy.compile(Topology([NodeSpec("a", ("s1",)), consumer]))

    changes = selecting(modulo_partition(0, 2)).diff(selecting(None))
    assert any("filtered True -> False" in line for line in changes)


def test_compile_validates_replicas():
    with pytest.raises(ConfigurationError):
        deploy.compile(Topology.chain(1), replicas_per_node=0)


def test_deploy_materializes_the_plan():
    placement = deploy.compile(Topology.shard(2), replicas_per_node=1)
    deployment = placement.deploy(aggregate_rate=90.0, seed=1)
    cluster = deployment.cluster
    assert set(cluster.node_groups) == {"split", "shard1", "shard2", "merge"}
    assert set(deployment.subscription_filters) == {"shard1", "shard2"}
    # The shared filter object is referenced by the consumer's monitor and by
    # the producer-side subscription of the initial upstream replica.
    filt = deployment.subscription_filters["shard1"]
    monitor = deployment.node("shard1").cm.monitor("split.out")
    assert monitor.subscription_filter is filt


@pytest.mark.parametrize("backend", ["sim", "live"])
@pytest.mark.parametrize("keepalive", [0.07, 0.03])
def test_deploy_rejects_a_keepalive_off_the_batch_grid(keepalive, backend):
    """A node runs one tick: its control work needs a keepalive on its batch grid."""
    placement = deploy.compile(Topology.chain(1))
    with pytest.raises(ConfigurationError, match=f"keepalive_period {keepalive} .* 0.05"):
        placement.deploy(
            DPCConfig(keepalive_period=keepalive),
            SimulationConfig(batch_interval=0.05),
            backend=backend,
        )
