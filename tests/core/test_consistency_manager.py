"""Unit tests for the ConsistencyManager (pushed heartbeats, switching, reconciliation protocol)."""

from repro.config import DPCConfig
from repro.core.consistency_manager import ConsistencyManager
from repro.core.protocol import (
    HEARTBEAT_RESPONSE,
    RECONCILE_REPLY,
    RECONCILE_REQUEST,
    HeartbeatResponse,
    ReconcileReply,
    ReconcileRequest,
    SOURCE_RESUBSCRIBE,
    SUBSCRIBE,
    SourceResubscribe,
    SubscribeRequest,
)
from repro.core.states import NodeState
from repro.deploy.filters import SubscriptionFilter
from repro.sharding import modulo_partition
from repro.sim.event_loop import Simulator
from repro.sim.network import Message, Network
from repro.spe.tuples import StreamTuple


class FakeOwner:
    """Minimal ConsistencyOwner capturing every callback."""

    def __init__(self, endpoint="owner"):
        self.endpoint = endpoint
        self.failures = []
        self.healed = 0
        self.undone = []
        self.reconciliations = 0
        self.wants = False

    def on_input_failure(self, stream, now):
        self.failures.append((stream, now))

    def on_inputs_healed(self, now):
        self.healed += 1

    def apply_local_undo(self, stream, now):
        self.undone.append(stream)

    def start_reconciliation(self, now):
        self.reconciliations += 1

    def wants_reconciliation(self):
        return self.wants


def setup(replica_partners=(), config=None):
    sim = Simulator()
    net = Network(sim, default_latency=0.001)
    sent = []
    # capture messages to upstream producers / partners
    for endpoint in ("up1", "up2", "partner"):
        net.register(endpoint, lambda msg, now, e=endpoint: sent.append((e, msg)))
    owner = FakeOwner()
    net.register(owner.endpoint, lambda msg, now: cm.handle_message(msg, now))
    config = config or DPCConfig(startup_grace=0.0)
    cm = ConsistencyManager(owner, sim, net, config, replica_partners=list(replica_partners))
    return sim, net, cm, owner, sent


def test_register_input_sets_primary_and_grace():
    sim, _net, cm, _owner, _sent = setup()
    monitor = cm.register_input("x", producers=["up1", "up2"])
    assert monitor.primary == "up1"
    assert cm.monitor("x") is monitor


def test_heartbeat_response_updates_producer_state():
    sim, _net, cm, owner, _sent = setup()
    cm.register_input("x", producers=["up1", "up2"])
    response = HeartbeatResponse(responder="up1", node_state=NodeState.UP_FAILURE)
    cm.handle_message(Message("up1", owner.endpoint, HEARTBEAT_RESPONSE, response, 0.0), now=0.5)
    info = cm.monitor("x").producers["up1"]
    assert info.advertised_state is NodeState.UP_FAILURE
    assert info.last_response_at == 0.5


def test_control_tick_detects_failure_and_notifies_owner():
    sim, _net, cm, owner, _sent = setup()
    cm.register_input("x", producers=["up1", "up2"])
    # Make both producers look failed (no responses, no boundaries).
    sim.run_until(1.0)
    cm.control_tick(now=1.0)
    assert owner.failures and owner.failures[0][0] == "x"
    assert cm.state is NodeState.UP_FAILURE


def test_switch_to_stable_replica_masks_failure():
    sim, _net, cm, owner, sent = setup()
    monitor = cm.register_input("x", producers=["up1", "up2"])
    # up2 recently advertised STABLE; up1 is silent.
    monitor.producers["up2"].advertised_state = NodeState.STABLE
    monitor.producers["up2"].last_response_at = 0.9
    monitor.producers["up1"].last_response_at = -10.0
    monitor.last_boundary_arrival = 0.0
    sim.run_until(1.0)
    cm.control_tick(now=1.0)
    sim.run_until(1.1)
    assert monitor.primary == "up2"
    subscriptions = [m for e, m in sent if m.kind == SUBSCRIBE and e == "up2"]
    assert len(subscriptions) == 1
    # The failure is masked by the switch, so the node does not go UP_FAILURE.
    assert cm.state is NodeState.STABLE
    assert owner.failures == []


def test_reconciliation_granted_without_partners():
    sim, _net, cm, owner, _sent = setup()
    monitor = cm.register_input("x", producers=["up1"], source_producers=["up1"])
    owner.wants = True
    cm.set_state(NodeState.UP_FAILURE)
    sim.run_until(1.0)
    # The previously failed stream has healed: boundaries flow again.
    monitor.failed = True
    monitor.record_tuple(StreamTuple.boundary(0, 1.0), now=1.0)
    cm.control_tick(now=1.0)
    assert owner.reconciliations == 1


def test_reconciliation_request_reply_cycle_with_partner():
    sim, net, cm, owner, sent = setup(replica_partners=["partner"])
    monitor = cm.register_input("x", producers=["up1"], source_producers=["up1"])
    owner.wants = True
    cm.set_state(NodeState.UP_FAILURE)
    sim.run_until(1.0)
    monitor.record_tuple(StreamTuple.boundary(0, 1.0), now=1.0)
    cm.control_tick(now=1.0)
    sim.run_until(1.1)
    requests = [m for e, m in sent if m.kind == RECONCILE_REQUEST and e == "partner"]
    assert len(requests) == 1
    # Partner grants: owner starts reconciliation.
    reply = ReconcileReply(responder="partner", request_id=requests[0].payload.request_id, granted=True)
    cm.handle_message(Message("partner", owner.endpoint, RECONCILE_REPLY, reply, 1.1), now=1.1)
    assert owner.reconciliations == 1


def test_reconcile_request_rejected_while_stabilizing():
    sim, _net, cm, owner, sent = setup()
    cm.set_state(NodeState.UP_FAILURE)
    cm.set_state(NodeState.STABILIZATION)
    request = ReconcileRequest(requester="up1", request_id=7)
    cm.handle_message(Message("up1", owner.endpoint, RECONCILE_REQUEST, request, 0.0), now=0.0)
    sim.run_until(0.1)
    replies = [m for e, m in sent if m.kind == RECONCILE_REPLY]
    assert len(replies) == 1 and replies[0].payload.granted is False


def test_reconcile_request_tie_break_by_identifier():
    sim, _net, cm, owner, sent = setup()
    owner.wants = True
    cm.set_state(NodeState.UP_FAILURE)
    #

    # Requester has a *larger* identifier than this node ("owner" < "up1"),
    # so this node keeps the right to reconcile first and rejects.
    request = ReconcileRequest(requester="up1", request_id=1)
    cm.handle_message(Message("up1", owner.endpoint, RECONCILE_REQUEST, request, 0.0), now=0.0)
    sim.run_until(0.1)
    assert [m.payload.granted for e, m in sent if m.kind == RECONCILE_REPLY] == [False]


def test_classify_producer_roles():
    sim, _net, cm, _owner, _sent = setup()
    monitor = cm.register_input("x", producers=["up1", "up2"])
    assert cm.classify_producer("x", "up1") == "primary"
    assert cm.classify_producer("x", "up2") == "ignore"
    monitor.correcting = "up2"
    assert cm.classify_producer("x", "up2") == "correcting"
    assert cm.classify_producer("unknown", "up1") == "ignore"


def test_monitor_records_an_arrival():
    sim, _net, cm, _owner, _sent = setup()
    cm.register_input("x", producers=["up1"])
    verdict = cm.monitor("x").record_tuple(StreamTuple.insertion(0, 0.0, {"seq": 0}), now=0.0)
    assert verdict == "accept"
    assert cm.monitor("x").stable_received == 1


def test_resubscribe_repositions_a_source_primary():
    sim, _net, cm, _owner, sent = setup()
    monitor = cm.register_input("x", producers=["up1"], source_producers=["up1"])
    monitor.source_position = 41
    cm.resubscribe(monitor)
    sim.run_until(0.1)
    assert [(e, m.kind, m.payload) for e, m in sent] == [
        ("up1", SOURCE_RESUBSCRIBE, SourceResubscribe(stream="x", subscriber="owner", after_tuple_id=41))
    ]


def test_resubscribe_quotes_the_cursor_and_filter_to_a_node_primary():
    sim, _net, cm, _owner, sent = setup()
    slice_filter = SubscriptionFilter(modulo_partition(0, 1), name="x.slice")
    monitor = cm.register_input("x", producers=["up1", "up2"], subscription_filter=slice_filter)
    monitor.stable_received = 7
    cm.resubscribe(monitor, had_tentative=True)
    sim.run_until(0.1)
    assert [(e, m.kind) for e, m in sent] == [("up1", SUBSCRIBE)]
    request = sent[0][1].payload
    assert request == SubscribeRequest(
        stream="x",
        subscriber="owner",
        last_stable_seq=6,
        had_tentative=True,
        replay_tentative=False,
        filter=slice_filter,
    )
    # Resubscribing arms no replay gate: callers decide that.
    assert not monitor.awaiting_replay


def test_resubscribe_without_primary_sends_nothing():
    sim, _net, cm, _owner, sent = setup()
    monitor = cm.register_input("x", producers=["up1"])
    monitor.primary = None
    cm.resubscribe(monitor)
    sim.run_until(0.1)
    assert sent == []


def test_invalid_state_transition_rejected():
    import pytest
    from repro.errors import ProtocolError

    _sim, _net, cm, _owner, _sent = setup()
    with pytest.raises(ProtocolError):
        cm.set_state(NodeState.STABILIZATION)
