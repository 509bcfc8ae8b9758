"""Unit tests for the simulated network."""

import pytest

from repro.errors import NetworkError
from repro.sim.event_loop import Simulator
from repro.sim.network import Network


def setup():
    sim = Simulator()
    net = Network(sim, default_latency=0.01)
    inbox = {"a": [], "b": []}
    net.register("a", lambda msg, now: inbox["a"].append((msg, now)))
    net.register("b", lambda msg, now: inbox["b"].append((msg, now)))
    return sim, net, inbox


def test_message_delivery_with_latency():
    sim, net, inbox = setup()
    net.send("a", "b", "data", {"x": 1})
    sim.run_until(1.0)
    assert len(inbox["b"]) == 1
    message, delivered_at = inbox["b"][0]
    assert message.payload == {"x": 1}
    assert delivered_at == pytest.approx(0.01)


def test_unknown_receiver_raises():
    _sim, net, _ = setup()
    with pytest.raises(NetworkError):
        net.send("a", "ghost", "data", {})


def test_duplicate_registration_rejected():
    _sim, net, _ = setup()
    with pytest.raises(NetworkError):
        net.register("a", lambda m, t: None)


def test_in_order_delivery_per_link():
    sim, net, inbox = setup()
    for i in range(5):
        net.send("a", "b", "data", i)
    sim.run_until(1.0)
    assert [m.payload for m, _ in inbox["b"]] == [0, 1, 2, 3, 4]


def test_in_order_delivery_survives_latency_changes():
    sim, net, inbox = setup()
    net.set_link_latency("a", "b", 0.5)
    net.send("a", "b", "data", "slow")
    net.set_link_latency("a", "b", 0.01)
    net.send("a", "b", "data", "fast")
    sim.run_until(1.0)
    assert [m.payload for m, _ in inbox["b"]] == ["slow", "fast"]


def test_partition_drops_messages_both_ways():
    sim, net, inbox = setup()
    net.partition("a", "b")
    assert not net.send("a", "b", "data", 1)
    assert not net.send("b", "a", "data", 2)
    sim.run_until(1.0)
    assert inbox["a"] == [] and inbox["b"] == []
    net.heal_partition("a", "b")
    assert net.send("a", "b", "data", 3)
    sim.run_until(2.0)
    assert len(inbox["b"]) == 1


def test_crashed_endpoint_neither_sends_nor_receives():
    sim, net, inbox = setup()
    net.crash("b")
    assert not net.send("a", "b", "data", 1)
    assert not net.send("b", "a", "data", 2)
    net.recover("b")
    assert net.send("a", "b", "data", 3)
    sim.run_until(1.0)
    assert len(inbox["b"]) == 1


def test_in_flight_message_survives_partition_onset():
    """A message credited at send time is delivered even when a partition
    appears while it is in flight: the sender's cursor already advanced, so
    nothing would ever replay it -- dropping it would silently lose data on
    what is modelled as a reliable in-order link."""
    sim, net, inbox = setup()
    net.set_link_latency("a", "b", 0.5)
    assert net.send("a", "b", "data", 1)
    net.partition("a", "b")
    sim.run_until(1.0)
    assert [msg.payload for msg, _now in inbox["b"]] == [1]
    # New sends across the live partition are refused credit and dropped.
    assert not net.send("a", "b", "data", 2)
    assert net.stats.dropped >= 1


def test_in_flight_message_dropped_if_receiver_crashes():
    """A crash wipes the receiver's state and recovery resubscribes, so
    messages in flight at crash time are dropped, not delivered."""
    sim, net, inbox = setup()
    net.set_link_latency("a", "b", 0.5)
    net.send("a", "b", "data", 1)
    net.crash("b")
    sim.run_until(1.0)
    assert inbox["b"] == []
    assert net.stats.dropped >= 1


def test_send_many_and_stats():
    sim, net, inbox = setup()
    assert net.send_many("a", ["b"], "data", 1) == ["b"]
    sim.run_until(1.0)
    assert net.stats.sent == 1 and net.stats.delivered == 1
    assert net.stats.by_kind["data"]["delivered"] == 1


def test_negative_latency_rejected():
    sim = Simulator()
    with pytest.raises(NetworkError):
        Network(sim, default_latency=-1.0)
