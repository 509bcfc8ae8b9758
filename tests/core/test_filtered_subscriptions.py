"""Filtered subscriptions at the OutputStreamManager / InputStreamMonitor level.

The producer evaluates the subscription's content predicate before sending;
cursors stay in full-stream stable_seq coordinates, and the replay flag lets
a filtered consumer tell a legitimate filter gap from a stale-cursor race.
"""

from repro.core.data_path import OutputStreamManager
from repro.core.input_streams import InputStreamMonitor
from repro.core.protocol import SubscribeRequest, TupleBatch
from repro.deploy import SubscriptionFilter
from repro.sharding import PartitionSlice, ShardPlanner, ShardSpec, modulo_partition
from repro.spe.tuples import StreamTuple

even = modulo_partition(0, 2)
nothing = PartitionSlice(even.spec, frozenset())


def fill(manager, count=6, start=0):
    for seq in range(start, start + count):
        manager.append(
            StreamTuple.insertion(tuple_id=seq, stime=float(seq), values={"seq": seq})
        )


def subscribe(manager, subscriber="downstream", filt=None, last=-1):
    return manager.subscribe(
        SubscribeRequest(
            stream=manager.stream, subscriber=subscriber, last_stable_seq=last, filter=filt
        )
    )


def test_initial_replay_is_filtered():
    manager = OutputStreamManager("s.out", owner="node")
    fill(manager)
    filt = SubscriptionFilter(even, name="even.slice")
    replay = subscribe(manager, filt=filt)
    assert [item.values["seq"] for item in replay] == [0, 2, 4]
    # The stamped positions are full-stream coordinates, gaps included.
    assert [item.stable_seq for item in replay] == [0, 2, 4]


def test_pending_batches_group_by_filter():
    manager = OutputStreamManager("s.out", owner="node")
    filt = SubscriptionFilter(even, name="even.slice")
    subscribe(manager, "replica-a", filt=filt)
    subscribe(manager, "replica-b", filt=filt)
    subscribe(manager, "full")
    fill(manager)
    batches = manager.pending_batches()
    assert len(batches) == 2
    by_members = {tuple(sorted(subs)): [t.values["seq"] for t in items] for items, subs in batches}
    assert by_members[("full",)] == [0, 1, 2, 3, 4, 5]
    assert by_members[("replica-a", "replica-b")] == [0, 2, 4]


def test_shard_filters_share_one_route_column_per_slice(monkeypatch):
    routed = []
    route = ShardSpec.route
    monkeypatch.setattr(
        ShardSpec, "route", lambda spec, block: routed.append(len(block)) or route(spec, block)
    )
    assignment = ShardPlanner(ShardSpec(shards=4)).plan()
    manager = OutputStreamManager("s.out", owner="split")
    shard_of_replica = {}
    for index, predicate in enumerate(assignment.predicates()):
        filt = SubscriptionFilter(predicate, name=f"shard{index + 1}.slice")
        for replica in (f"shard{index + 1}", f"shard{index + 1}'"):
            subscribe(manager, replica, filt=filt)
            shard_of_replica[replica] = index
    routed.clear()  # the (empty) subscribe replays
    fill(manager, count=40)
    batches = manager.pending_batches()
    # Four filter groups, one routing pass over the 40-row slice.
    assert routed == [40]
    slices = [[t.values["seq"] for t in items] for items, _ in batches]
    assert sorted(seq for rows in slices for seq in rows) == list(range(40))
    for items, subscribers in batches:
        shards = {assignment.shard_of(t.values) for t in items}
        assert shards == {shard_of_replica[subscriber] for subscriber in subscribers}


def test_all_foreign_slice_advances_cursor_without_a_send():
    manager = OutputStreamManager("s.out", owner="node")
    never = SubscriptionFilter(nothing, name="never")
    subscribe(manager, "nobody", filt=never)
    fill(manager)
    assert manager.pending_batches() == []
    # The cursor advanced past the slice: nothing accumulates for re-scan.
    assert manager.pending_for("nobody") == []


def test_control_tuples_reach_filtered_subscribers():
    manager = OutputStreamManager("s.out", owner="node")
    never = SubscriptionFilter(nothing, name="never")
    subscribe(manager, "nobody", filt=never)
    fill(manager, count=2)
    manager.append(StreamTuple.boundary(tuple_id=99, stime=5.0))
    [(items, subscribers)] = manager.pending_batches()
    assert subscribers == ["nobody"]
    assert [item.is_boundary for item in items] == [True]


def test_cursor_translation_on_resubscribe():
    """A filtered subscriber quotes the last stamp it saw; the producer
    translates it into a buffer position and replays the filtered suffix."""
    manager = OutputStreamManager("s.out", owner="node")
    fill(manager, count=10)
    filt = SubscriptionFilter(even, name="even.slice")
    # The subscriber last received stable_seq 4 (values 0, 2, 4 delivered).
    replay = subscribe(manager, filt=filt, last=4)
    assert [item.stable_seq for item in replay] == [6, 8]


def test_monitor_accepts_stamped_gaps_on_filtered_streams():
    monitor = InputStreamMonitor(
        stream="s.out", subscription_filter=SubscriptionFilter(even, name="even.slice")
    )
    first = StreamTuple.insertion(0, 0.0, {"seq": 0}).with_stable_seq(0)
    third = StreamTuple.insertion(2, 2.0, {"seq": 2}).with_stable_seq(2)
    assert monitor.record_tuple(first, now=0.0) == "accept"
    assert monitor.record_tuple(third, now=0.1) == "accept"
    assert monitor.stable_received == 3
    # Re-delivery from another replica is still recognized as duplicate.
    assert monitor.record_tuple(third, now=0.2) == "duplicate"


def test_empty_replay_response_is_sent_and_clears_awaiting_replay():
    """A recovering consumer whose quoted cursor is already at the producer's
    end gets an *empty* replay-flagged batch; the batch-level clear must
    disarm the stale-cursor defense, or a filtered subscriber would reject
    every later tuple as a stale-cursor race forever."""
    from repro.config import DPCConfig, SimulationConfig
    from repro.core.node import ProcessingNode
    from repro.core.protocol import DATA, SUBSCRIBE
    from repro.sim.cluster import merge_diagram
    from repro.sim.event_loop import Simulator
    from repro.sim.network import Network

    sim = Simulator()
    net = Network(sim, default_latency=0.001)
    filt = SubscriptionFilter(even, name="even.slice")
    producer = ProcessingNode(
        name="split",
        diagram=merge_diagram("split", ["s1"], "split.out", bucket_size=0.1),
        simulator=sim,
        network=net,
        config=DPCConfig(),
        sim_config=SimulationConfig(),
    )
    consumer = ProcessingNode(
        name="shard1",
        diagram=merge_diagram("shard1", ["split.out"], "shard1.out", bucket_size=0.1),
        simulator=sim,
        network=net,
        config=DPCConfig(),
        sim_config=SimulationConfig(),
    )
    consumer.register_input_stream(
        "split.out", producers=["split"], subscription_filter=filt
    )
    monitor = consumer.cm.monitor("split.out")
    monitor.awaiting_replay = True
    # The consumer resubscribes from its current position: nothing to replay.
    net.send(
        "shard1",
        "split",
        SUBSCRIBE,
        SubscribeRequest(
            stream="split.out", subscriber="shard1", last_stable_seq=-1, filter=filt
        ),
    )
    sim.run_for(0.1)
    # The producer answered with an (empty) replay-flagged batch...
    assert net.stats.by_kind.get(DATA, {}).get("delivered", 0) == 1
    # ...which disarmed the defense even though it carried no tuples.
    assert not monitor.awaiting_replay


def test_awaiting_replay_only_cleared_by_the_replay_batch():
    from repro.config import DPCConfig
    from repro.core.consistency_manager import ConsistencyManager
    from repro.sim.event_loop import Simulator
    from repro.sim.network import Network

    sim = Simulator()
    net = Network(sim)

    class Owner:
        endpoint = "consumer"

    net.register("consumer", lambda message, now: None)
    cm = ConsistencyManager(Owner(), sim, net, DPCConfig())
    monitor = cm.register_input("s.out", producers=["upstream"])
    monitor.awaiting_replay = True
    monitor.stable_received = 3
    ahead = StreamTuple.insertion(9, 9.0, {"seq": 9}).with_stable_seq(9)
    # A stale-cursor flush racing the replay is rejected...
    assert monitor.record_tuple(ahead, now=1.0) == "duplicate"
    assert monitor.awaiting_replay
    # ...until the replay-flagged batch disarms the defense (what the node
    # does for any batch with batch.replay set), after which the stamped gap
    # is accepted -- routine on filtered subscriptions.
    replay = TupleBatch.of("s.out", [], "upstream", replay=True)
    assert cm.receive_batch(replay, "upstream", now=1.05) == "primary"
    assert monitor.record_tuple(ahead, now=1.1) == "accept"
    assert monitor.stable_received == 10
