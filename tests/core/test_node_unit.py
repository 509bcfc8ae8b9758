"""Unit-level tests for ProcessingNode (wiring, checkpointing, state advertisement)."""

import pytest

from repro.config import DPCConfig, SimulationConfig
from repro.core.node import ProcessingNode
from repro.core.protocol import DATA, HEARTBEAT_RESPONSE, SUBSCRIBE, DataBatch, SubscribeRequest
from repro.core.states import NodeState
from repro.errors import ProtocolError
from repro.sim.cluster import merge_diagram
from repro.sim.event_loop import Simulator
from repro.sim.network import Message, Network
from repro.spe.tuples import StreamTuple


def make_node(diagram=None, config=None, name="node1", partners=()):
    sim = Simulator()
    net = Network(sim, default_latency=0.001)
    diagram = diagram or merge_diagram(name, ["s1", "s2"], "out", bucket_size=0.1, join_state_size=10)
    node = ProcessingNode(
        name=name,
        diagram=diagram,
        simulator=sim,
        network=net,
        config=config or DPCConfig(),
        sim_config=SimulationConfig(),
        replica_partners=list(partners),
    )
    return sim, net, node


def test_node_registers_outputs_and_inputs():
    sim, net, node = make_node()
    node.register_input_stream("s1", producers=["src1"], source_producers=["src1"])
    node.register_input_stream("s2", producers=["src2"], source_producers=["src2"])
    assert node.data_path.output_streams() == ["out"]
    assert set(node.cm.monitors) == {"s1", "s2"}
    with pytest.raises(ProtocolError):
        node.register_input_stream("nope", producers=["x"])


def test_data_message_flows_through_fragment_to_output_buffer():
    sim, net, node = make_node()
    node.register_input_stream("s1", producers=["src1"], source_producers=["src1"])
    node.register_input_stream("s2", producers=["src2"], source_producers=["src2"])
    node.register_subscriber("out", "client")
    tuples = [StreamTuple.insertion(0, 0.05, {"seq": 0}), StreamTuple.boundary(1, 1.0)]
    batch = DataBatch.of("s1", tuples, producer="src1")
    node._on_message(Message("src1", node.endpoint, DATA, batch, 0.0), now=0.1)
    batch2 = DataBatch.of("s2", [StreamTuple.boundary(0, 1.0)], producer="src2")
    node._on_message(Message("src2", node.endpoint, DATA, batch2, 0.0), now=0.1)
    manager = node.data_path.output("out")
    stable = [t for t in manager.buffered_items() if t.is_stable]
    assert [t.value("seq") for t in stable] == [0]


def test_subscribe_message_triggers_replay():
    sim, net, node = make_node()
    node.register_input_stream("s1", producers=["src1"], source_producers=["src1"])
    node.register_input_stream("s2", producers=["src2"], source_producers=["src2"])
    received = []
    net.register("downstream", lambda msg, now: received.append(msg))
    manager = node.data_path.output("out")
    manager.append(StreamTuple.insertion(0, 0.0, {"seq": 0}))
    request = SubscribeRequest(stream="out", subscriber="downstream", last_stable_seq=-1)
    node._on_message(Message("downstream", node.endpoint, SUBSCRIBE, request, 0.0), now=0.1)
    sim.run_until(0.2)
    assert received and received[0].payload.tuples[0].value("seq") == 0


def test_output_stream_states_follow_node_state():
    sim, net, node = make_node()
    node.register_input_stream("s1", producers=["src1"], source_producers=["src1"])
    node.register_input_stream("s2", producers=["src2"], source_producers=["src2"])
    assert node.output_stream_states() == {"out": NodeState.STABLE}
    node.cm.set_state(NodeState.UP_FAILURE)
    assert node.output_stream_states() == {"out": NodeState.UP_FAILURE}


def test_per_stream_granularity_keeps_unaffected_outputs_stable():
    diagram = merge_diagram("node1", ["in"], "out", bucket_size=0.1)
    sim, net, node = make_node(diagram=diagram, config=DPCConfig(per_stream_granularity=True))
    node.register_input_stream("in", producers=["src"], source_producers=["src"])
    node.cm.set_state(NodeState.UP_FAILURE)
    # No monitor is marked failed, and the fragment is clean: the output can
    # still be advertised STABLE under per-stream granularity.
    assert node.output_stream_states() == {"out": NodeState.STABLE}
    node.cm.monitor("in").failed = True
    assert node.output_stream_states() == {"out": NodeState.UP_FAILURE}


def test_push_state_advertises_only_to_watchers_without_recent_data():
    diagram = merge_diagram("node1", ["in"], "out", bucket_size=0.1)
    sim, net, node = make_node(diagram=diagram, config=DPCConfig(per_stream_granularity=True))
    node.register_input_stream("in", producers=["src"], source_producers=["src"])
    inboxes = {"fresh": [], "stale": []}
    for watcher, inbox in inboxes.items():
        net.register(watcher, lambda msg, now, inbox=inbox: inbox.append(msg))
        node.add_state_watcher(watcher)
    node.cm.set_state(NodeState.UP_FAILURE)
    node.cm.monitor("in").failed = True
    # "fresh" got a data batch (its subscription replay) within the keepalive
    # period, which carried the state already; "stale" got nothing.
    request = SubscribeRequest(stream="out", subscriber="fresh")
    node._on_message(Message("fresh", node.endpoint, SUBSCRIBE, request, 0.0), now=0.95)
    node._push_state(now=1.0)
    sim.run_until(1.1)
    assert [m.kind for m in inboxes["fresh"]] == [DATA]
    (push,) = inboxes["stale"]
    assert push.kind == HEARTBEAT_RESPONSE
    assert push.payload.responder == "node1"
    assert push.payload.node_state is NodeState.UP_FAILURE
    assert push.payload.stream_states == {"out": NodeState.UP_FAILURE}


def test_tentative_input_takes_checkpoint_and_dirties_fragment():
    diagram = merge_diagram("node1", ["in"], "out", bucket_size=0.1)
    sim, net, node = make_node(diagram=diagram)
    node.register_input_stream("in", producers=["up", "up'"])
    batch = DataBatch.of("in", [StreamTuple.tentative(0, 0.05, {"seq": 0})], producer="up")
    node._on_message(Message("up", node.endpoint, DATA, batch, 0.0), now=0.1)
    assert node.fragment_dirty
    assert node.checkpoints_taken == 1
    # Everything leaving the fragment is tentative while dirty.
    items = node.data_path.output("out").buffered_items()
    assert all(not t.is_stable for t in items if t.is_data)


def test_crash_and_recover_resubscribes():
    diagram = merge_diagram("node2", ["node1.out"], "out", bucket_size=0.1)
    sim, net, node = make_node(diagram=diagram, name="node2")
    requests = []
    net.register("node1", lambda msg, now: requests.append(msg))
    node.register_input_stream("node1.out", producers=["node1"])
    node.crash()
    assert net.is_down(node.endpoint)
    batch = DataBatch.of("node1.out", [StreamTuple.insertion(0, 0.0, {"seq": 0})], producer="node1")
    node._on_message(Message("node1", node.endpoint, DATA, batch, 0.0), now=0.1)
    assert node.engine.tuples_processed == 0  # crashed nodes process nothing
    node.recover()
    sim.run_until(0.5)
    assert not net.is_down(node.endpoint)
    assert any(msg.kind == SUBSCRIBE for msg in requests)


def test_statistics_snapshot():
    sim, net, node = make_node()
    node.register_input_stream("s1", producers=["src1"], source_producers=["src1"])
    node.register_input_stream("s2", producers=["src2"], source_producers=["src2"])
    stats = node.statistics()
    assert stats["name"] == "node1"
    assert stats["state"] == "stable"
    assert "out" in stats["outputs"]
