"""Unit tests for the deployment-topology model (repro.topology)."""

import pytest

from repro.deploy import compile as compile_topology
from repro.errors import ConfigurationError
from repro.sharding import PartitionSlice, ShardSlice
from repro.spe.tuples import StreamTuple, TupleBlock
from repro.topology import NodeSpec, Topology, modulo_partition
from repro.workloads.scenarios import FailureSpec, resolve_failures


# --------------------------------------------------------------------------- NodeSpec
def test_node_spec_validation():
    with pytest.raises(ConfigurationError):
        NodeSpec(name="", inputs=("s1",))
    with pytest.raises(ConfigurationError):
        NodeSpec(name="a", inputs=())
    with pytest.raises(ConfigurationError):
        NodeSpec(name="a", inputs=("s1", "s1"))
    with pytest.raises(ConfigurationError):
        NodeSpec(name="a", inputs=("a",))
    with pytest.raises(ConfigurationError):
        NodeSpec(name="a", inputs=("s1",), replicas=0)
    assert NodeSpec(name="a", inputs=("s1",)).output_stream == "a.out"


def seq_block(count):
    return TupleBlock.of([StreamTuple.insertion(seq, 0.0, {"seq": seq}) for seq in range(count)])


def test_modulo_partition_routes_by_column():
    left = modulo_partition(0, 2, "seq", group=3)
    right = modulo_partition(1, 2, "seq", group=3)
    assert left.spec == right.spec and left.keep == {0} and right.keep == {1}
    assert left.spec.route(seq_block(24)) == [(seq // 3) % 2 for seq in range(24)]
    with pytest.raises(ConfigurationError):
        modulo_partition(2, 2)
    with pytest.raises(ConfigurationError):
        modulo_partition(0, 2, group=0)


# --------------------------------------------------------------------------- graph validation
def test_topology_rejects_duplicates_and_cycles():
    with pytest.raises(ConfigurationError):
        Topology([NodeSpec("a", ("s1",)), NodeSpec("a", ("s2",))])
    with pytest.raises(ConfigurationError):
        Topology([NodeSpec("a", ("s1", "b")), NodeSpec("b", ("a",))])
    with pytest.raises(ConfigurationError):
        Topology([])


def test_topology_requires_sources():
    with pytest.raises(ConfigurationError):
        # "b" only consumes "a"; "a" only consumes "b" -> cycle, but also a
        # topology whose only node consumes another node is source-less.
        Topology([NodeSpec("a", ("a2",)), NodeSpec("a2", ("a",))])


# --------------------------------------------------------------------------- shapes
def test_chain_topology_shape():
    topo = Topology.chain(3, n_input_streams=2)
    assert topo.node_names == ["node1", "node2", "node3"]
    assert topo.source_streams == ["s1", "s2"]
    assert topo.depth() == 3
    assert topo.paths() == [("node1", "node2", "node3")]
    assert topo.is_entry(topo.node("node1"))
    assert not topo.is_entry(topo.node("node2"))
    assert [s.name for s in topo.sinks()] == ["node3"]
    assert topo.input_streams(topo.node("node2")) == ["node1.out"]
    with pytest.raises(ConfigurationError):
        Topology.chain(0)


def test_diamond_topology_shape():
    topo = Topology.diamond()
    assert topo.node_names == ["ingest", "left", "right", "merge"]
    assert topo.source_streams == ["s1", "s2", "s3"]
    assert topo.depth() == 3
    assert sorted(topo.paths()) == [
        ("ingest", "left", "merge"),
        ("ingest", "right", "merge"),
    ]
    assert [s.name for s in topo.consumers_of("ingest")] == ["left", "right"]
    assert [s.name for s in topo.sinks()] == ["merge"]
    merge = topo.node("merge")
    assert topo.input_streams(merge) == ["left.out", "right.out"]
    # The branches partition the stream disjointly, through one router.
    left, right = topo.node("left").select, topo.node("right").select
    assert left.spec is right.spec and not left.keep & right.keep
    assert set(left.spec.route(seq_block(30))) == left.keep | right.keep


def test_fanin_topology_shape():
    topo = Topology.fanin(branches=3, streams_per_branch=2)
    assert topo.node_names == ["branch1", "branch2", "branch3", "merge"]
    assert topo.source_streams == [f"s{i}" for i in range(1, 7)]
    assert topo.depth() == 2
    assert len(topo.paths()) == 3
    assert topo.input_streams(topo.node("merge")) == [
        "branch1.out",
        "branch2.out",
        "branch3.out",
    ]


# --------------------------------------------------------------------------- replicas / failure targets
def test_replicas_override_and_failure_validation():
    topo = Topology(
        [NodeSpec("a", ("s1",), replicas=3), NodeSpec("b", ("a",))], name="t"
    )
    assert topo.replicas_of("a", default=2) == 3
    assert topo.replicas_of("b", default=2) == 2
    placement = compile_topology(topo, replicas_per_node=2)

    def crash(node, replica):
        failure = FailureSpec("crash", start=1.0, duration=1.0, node=node, node_replica=replica)
        return resolve_failures(placement, [failure])

    assert [action.endpoint for action in crash("a", 2)] == [
        placement.node_plan("a").replica_names[2]
    ]
    with pytest.raises(ConfigurationError):
        crash("a", 3)
    with pytest.raises(ConfigurationError):
        crash("zzz", 0)


def test_node_names_matching_source_convention_are_rejected():
    with pytest.raises(ConfigurationError):
        Topology([NodeSpec("s1", ("s2",))])
    with pytest.raises(ConfigurationError):
        Topology([NodeSpec("a", ("s1",)), NodeSpec("s2", ("a",))])


# --------------------------------------------------------------------------- sharded shape
def test_shard_topology_shape_and_assignment():
    topo = Topology.shard(4, n_input_streams=3)
    assert topo.node_names == ["split", "shard1", "shard2", "shard3", "shard4", "merge"]
    assert topo.source_streams == ["s1", "s2", "s3"]
    assert topo.depth() == 3
    assert len(topo.paths()) == 4
    assignment = topo.shard_assignment
    assert assignment is not None
    assert assignment.spec.shards == 4
    assert assignment.spec.group == 3  # tie-groups never straddle shards
    # The shard fragments carry the planner's slices (run at the split) and
    # own the deployment's stateful join; the split is a stateless router.
    assert topo.node("split").stateful is False
    for index in range(4):
        spec = topo.node(f"shard{index + 1}")
        assert spec.select == assignment.predicate(index)
        assert spec.stateful is True
        assert spec.select({"seq": 0}) == (assignment.shard_of({"seq": 0}) == index)


def test_shard_topology_single_shard_is_valid():
    topo = Topology.shard(1)
    assert topo.node_names == ["split", "shard1", "merge"]
    # One shard owns the whole key space: its predicate is exhaustive.
    select = topo.node("shard1").select
    assert all(select({"seq": value}) for value in range(100))


def test_shard_topology_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        Topology.shard(0)
    with pytest.raises(ConfigurationError):
        Topology.shard(2, n_input_streams=0)
    with pytest.raises(ConfigurationError):
        Topology.shard(8, buckets=4)  # fewer buckets than shards


def test_shard_topology_rejects_foreign_assignment():
    from repro.sharding import ShardPlanner, ShardSpec

    other = ShardPlanner(ShardSpec(shards=2, group=1)).plan()
    with pytest.raises(ConfigurationError):
        Topology.shard(2, n_input_streams=3, assignment=other)  # group mismatch


def test_shard_topology_accepts_rebalanced_assignment():
    from repro.sharding import ShardPlanner, ShardSpec

    spec = ShardSpec(shards=2, group=3)
    planner = ShardPlanner(spec)
    assignment = planner.plan()
    hot = {bucket: 100 for bucket in assignment.buckets_by_shard[0]}
    plan = planner.rebalance(assignment, hot)
    topo = Topology.shard(2, assignment=plan.after)
    assert topo.shard_assignment is plan.after


def test_select_is_a_slice_of_one_upstream_node():
    select = modulo_partition(0, 2)
    # A bare callable is not a slice: it has no router to run at a producer.
    with pytest.raises(ConfigurationError, match="'a' has select .* not a slice"):
        NodeSpec(name="a", inputs=("s1",), select=lambda values: True)
    # An entry node is fed by sources, which run no select.
    with pytest.raises(ConfigurationError, match="'a' has a select but is an entry node"):
        Topology([NodeSpec(name="a", inputs=("s1",), select=select)])
    # A fan-in node has several producers.
    with pytest.raises(ConfigurationError, match="'c' has a select but is a fan-in node"):
        Topology(
            [
                NodeSpec(name="a", inputs=("s1",)),
                NodeSpec(name="b", inputs=("s2",)),
                NodeSpec(name="c", inputs=("a", "b"), select=select),
            ]
        )
    with pytest.raises(ConfigurationError, match="'c' has a select but is a fan-in node"):
        Topology([NodeSpec(name="a", inputs=("s1",)), NodeSpec("c", ("a", "s2"), select=select)])
    # One upstream node: the select is valid, whatever its kind of slice.
    for slice_ in (select, Topology.shard(2).shard_assignment.predicate(0)):
        assert isinstance(slice_, (PartitionSlice, ShardSlice))
        Topology([NodeSpec(name="a", inputs=("s1",)), NodeSpec("b", ("a",), select=slice_)])
