"""The Consistency Manager (Figure 4(b) of the paper).

One :class:`ConsistencyManager` runs inside every DPC participant that
consumes streams (processing nodes and client proxies).  It carries out the
inter-node runtime communication and the intra-node state monitoring the paper
assigns to this component:

* it records the per-stream consistency states every producer of every input
  stream advertises, piggybacked on data batches or pushed as heartbeat
  responses once per keepalive period (consumers never probe);
* it detects input-stream failures (missing boundary tuples / heartbeats, or
  tentative tuples arriving) and applies the Table II condition-action rules
  to switch between upstream replicas;
* it tracks the node's own DPC state machine (Figure 5), which the node
  advertises to its downstream neighbors;
* it runs the inter-replica protocol that staggers state reconciliations so
  that at least one replica keeps processing recent input at all times
  (Figure 9).

The manager is deliberately mechanism-only: *what to do* when a failure is
detected or healed (checkpointing, delaying tuples, reconciling) is delegated
to its owner through the :class:`ConsistencyOwner` callback interface, which
:class:`repro.core.node.ProcessingNode` and
:class:`repro.sim.client.ClientApplication` implement.
"""

from __future__ import annotations

import random
import zlib
from typing import Mapping, Protocol, Sequence

from ..config import DPCConfig
from ..errors import ProtocolError
from .clock import Clock
from ..sim.network import Message, Network
from .input_streams import InputStreamMonitor, ProducerInfo
from .protocol import (
    HEARTBEAT_RESPONSE,
    RECONCILE_REPLY,
    RECONCILE_REQUEST,
    SOURCE_RESUBSCRIBE,
    SUBSCRIBE,
    UNSUBSCRIBE,
    CheckpointAck,
    HeartbeatResponse,
    ReconcileReply,
    ReconcileRequest,
    SourceResubscribe,
    SubscribeRequest,
    TupleBatch,
    UnsubscribeRequest,
)
from .states import NodeState, can_transition
from .switching import choose_upstream


class ConsistencyOwner(Protocol):
    """Callbacks a ConsistencyManager owner must provide."""

    endpoint: str

    def on_input_failure(self, stream: str, now: float) -> None:
        """Called when an input stream failure cannot be masked by switching."""

    def on_inputs_healed(self, now: float) -> None:
        """Called when every failed input stream has healed."""

    def apply_local_undo(self, stream: str, now: float) -> None:
        """Drop locally-held tentative data of ``stream`` (an UNDO arrived)."""

    def start_reconciliation(self, now: float) -> None:
        """Authorization to enter STABILIZATION was granted."""

    def wants_reconciliation(self) -> bool:
        """True when the owner has tentative state it needs to reconcile."""


class ConsistencyManager:
    """Per-participant DPC control plane."""

    def __init__(
        self,
        owner: ConsistencyOwner,
        simulator: Clock,
        network: Network,
        config: DPCConfig,
        replica_partners: Sequence[str] = (),
        rng_seed: int | None = None,
    ) -> None:
        self.owner = owner
        self.simulator = simulator
        self.network = network
        self.config = config
        self.replica_partners = list(replica_partners)
        self.monitors: dict[str, InputStreamMonitor] = {}
        self._state = NodeState.STABLE
        #: (time, state) history, for tests and experiment traces.
        self.state_history: list[tuple[float, NodeState]] = [(simulator.now, NodeState.STABLE)]
        # crc32 (unlike hash()) is stable across processes, so runs of the
        # same scenario are reproducible regardless of PYTHONHASHSEED.
        self._rng = random.Random(
            zlib.crc32(owner.endpoint.encode("utf-8")) ^ (0 if rng_seed is None else rng_seed)
        )
        self._reconcile_request_id = 0
        self._reconcile_pending = False
        self._reconcile_requested_at: float | None = None
        # Statistics
        self.switches_performed = 0

    # ------------------------------------------------------------------ state machine
    @property
    def state(self) -> NodeState:
        return self._state

    def set_state(self, new_state: NodeState) -> None:
        """Transition the DPC state machine, enforcing Figure 5's edges."""
        if new_state is self._state:
            return
        if not can_transition(self._state, new_state):
            raise ProtocolError(
                f"{self.owner.endpoint}: invalid state transition "
                f"{self._state.value} -> {new_state.value}"
            )
        self._state = new_state
        self.state_history.append((self.simulator.now, new_state))

    # ------------------------------------------------------------------ input registration
    def register_input(
        self,
        stream: str,
        producers: Sequence[str],
        source_producers: Sequence[str] = (),
        subscription_filter: object | None = None,
    ) -> InputStreamMonitor:
        """Declare an input stream and the endpoints that can produce it.

        ``subscription_filter`` optionally attaches the consumer's content
        predicate (a :class:`~repro.deploy.SubscriptionFilter`); it rides on
        every SubscribeRequest this manager sends for ``stream``.
        """
        if stream in self.monitors:
            raise ProtocolError(f"input stream {stream!r} already registered")
        monitor = InputStreamMonitor(stream=stream, subscription_filter=subscription_filter)
        for endpoint in producers:
            info = monitor.add_producer(endpoint, is_source=endpoint in set(source_producers))
            info.last_response_at = self.simulator.now + self.config.startup_grace
        # Grace period: do not declare a failure before the first boundaries
        # had a chance to propagate through the freshly deployed diagram.
        monitor.last_boundary_arrival = self.simulator.now + self.config.startup_grace
        self.monitors[stream] = monitor
        return monitor

    def monitor(self, stream: str) -> InputStreamMonitor:
        try:
            return self.monitors[stream]
        except KeyError as exc:
            raise ProtocolError(f"unknown input stream {stream!r}") from exc

    def acknowledge_inputs(self, registry) -> None:
        """Acknowledge every input stream's covered position to all its producers.

        Called when the owner's durable state covers what the monitors have
        received (a node right after a recovery capture or adoption, a client
        for its recorded ledger).  Every producer replica is told, subscribed
        or not: the backup must be able to truncate too.  ``registry`` is the
        deployment's :class:`~repro.statexfer.PeerRegistry`, the one seam
        acknowledgments travel through on both backends.
        """
        consumer = self.owner.endpoint
        for stream, monitor in self.monitors.items():
            through = (
                monitor.source_position
                if monitor.track_source_ids
                else monitor.stable_received - 1
            )
            ack = CheckpointAck(stream=stream, consumer=consumer, through=through)
            for producer in monitor.producers:
                registry.acknowledge(producer, ack)

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Run :meth:`control_tick` every keepalive period on a chain of its own.

        A client calls this; a processing node runs :meth:`control_tick` from
        its own tick instead.
        """
        self.simulator.schedule_periodic(self.config.keepalive_period, self.control_tick)

    # ------------------------------------------------------------------ control loop
    def control_tick(self, now: float) -> None:
        if getattr(self.owner, "is_adopting", False):
            # Mid-adoption of a shipped recovery checkpoint: detection and
            # switching would act on monitor state the adoption is about to
            # overwrite, and every outbound message would be wasted.
            return
        self._detect_and_switch(now)
        self._check_healing(now)
        self._maybe_request_reconciliation(now)

    def _detect_and_switch(self, now: float) -> None:
        for monitor in self.monitors.values():
            newly_failed = monitor.detect_failure(now, self.config.failure_detection_timeout)
            self._evaluate_switch(monitor, now)
            if newly_failed:
                # After attempting a switch, the failure is masked only if the
                # (possibly new) primary is a stable producer that will replay
                # the missing data.  Otherwise the owner must start its
                # UP_FAILURE handling (checkpoint, tentative processing).
                if not self._is_masked(monitor, now):
                    self.owner.on_input_failure(monitor.stream, now)
                    if self._state is NodeState.STABLE:
                        self.set_state(NodeState.UP_FAILURE)
            elif monitor.failed and self._state is NodeState.STABLE:
                # The failure was initially masked (or detected while another
                # one was being handled) but can no longer be: the owner must
                # start its UP_FAILURE handling now.
                if not self._is_masked(monitor, now):
                    self.owner.on_input_failure(monitor.stream, now)
                    self.set_state(NodeState.UP_FAILURE)

    def _is_masked(self, monitor: InputStreamMonitor, now: float) -> bool:
        """True when the stream's primary producer is STABLE (failure masked)."""
        if monitor.primary is None:
            return False
        info = monitor.producers[monitor.primary]
        if info.is_source:
            # Source streams have no replicas; the failure cannot be masked
            # unless boundaries are in fact still flowing.
            return monitor.boundary_silent_for(now) <= self.config.failure_detection_timeout
        state = info.effective_state(now, self._response_timeout())
        return state is NodeState.STABLE and monitor.tentative_since_stable == 0

    def _response_timeout(self) -> float:
        return max(2 * self.config.keepalive_period, self.config.failure_detection_timeout)

    def _evaluate_switch(self, monitor: InputStreamMonitor, now: float) -> None:
        """Apply Table II for one input stream."""
        producers = monitor.producers
        timeout = self._response_timeout()
        primary = producers.get(monitor.primary) if monitor.primary is not None else None
        if (
            monitor.correcting is None
            and primary is not None
            and primary.effective_state(now, timeout) is NodeState.STABLE
        ):
            return  # Rule 1, and no stabilizing ex-primary to keep track of
        if not producers or all(info.is_source for info in producers.values()):
            return
        states = monitor.producer_states(now, timeout)
        decision = choose_upstream(monitor.primary, states)
        if not decision.switch or decision.target is None:
            self._maybe_track_correcting(monitor, states)
            return
        self._perform_switch(monitor, decision.target, now)
        self._maybe_track_correcting(monitor, states)

    def _maybe_track_correcting(self, monitor: InputStreamMonitor, states: Mapping[str, NodeState]) -> None:
        """Keep a background connection to a stabilizing ex-primary (Section 4.4.3)."""
        if monitor.correcting is not None:
            if states.get(monitor.correcting) not in (NodeState.STABILIZATION,):
                # The correcting replica finished (or failed); it is either the
                # primary again by now or no longer useful.
                if monitor.correcting == monitor.primary:
                    monitor.correcting = None
                elif states.get(monitor.correcting) is NodeState.FAILURE:
                    monitor.correcting = None

    def _perform_switch(self, monitor: InputStreamMonitor, target: str, now: float) -> None:
        previous = monitor.primary
        if previous == target:
            return
        previous_info = monitor.producers.get(previous) if previous else None
        target_info = monitor.producers[target]
        previous_state = (
            previous_info.effective_state(now, self._response_timeout())
            if previous_info is not None
            else NodeState.FAILURE
        )
        target_state = target_info.effective_state(now, self._response_timeout())

        # Keep the old (stabilizing) primary connected in the background for
        # its corrections -- unless the new primary is already STABLE, in
        # which case it replays everything the consumer is missing itself.
        keep_previous_for_corrections = (
            previous_state is NodeState.STABILIZATION and target_state is not NodeState.STABLE
        )
        already_subscribed_to_target = monitor.correcting == target

        if previous is not None and not keep_previous_for_corrections and not previous_info.is_source:
            self.network.send(
                self.owner.endpoint,
                previous,
                UNSUBSCRIBE,
                UnsubscribeRequest(stream=monitor.stream, subscriber=self.owner.endpoint),
            )
        if keep_previous_for_corrections:
            monitor.correcting = previous

        monitor.primary = target
        self.switches_performed += 1

        if already_subscribed_to_target:
            # Switching back to the replica whose corrections we have been
            # receiving in the background: the connection already exists, we
            # only revoke the tentative tuples obtained from the other replica.
            monitor.correcting = None
            self.owner.apply_local_undo(monitor.stream, now)
            monitor.tentative_since_stable = 0
            return
        if target_info.is_source:
            return
        self.resubscribe(monitor, had_tentative=monitor.tentative_since_stable > 0)

    def resubscribe(self, monitor: InputStreamMonitor, had_tentative: bool = False) -> None:
        """Ask ``monitor``'s primary to send its stream from the monitor's cursor.

        A node primary gets a SUBSCRIBE quoting ``stable_received - 1`` and
        the monitor's subscription filter; ``had_tentative`` tells it the
        subscriber holds tentative tuples past that point.  A data source gets
        a SOURCE_RESUBSCRIBE repositioning its delivery cursor to
        ``source_position``.  Nothing is sent without a primary.  Callers that
        must ignore stale-cursor data until the replay arrives arm
        ``monitor.awaiting_replay`` themselves.
        """
        primary = monitor.primary
        if primary is None:
            return
        endpoint = self.owner.endpoint
        if monitor.producers[primary].is_source:
            request = SourceResubscribe(
                stream=monitor.stream, subscriber=endpoint, after_tuple_id=monitor.source_position
            )
            self.network.send(endpoint, primary, SOURCE_RESUBSCRIBE, request)
            return
        request = SubscribeRequest(
            stream=monitor.stream,
            subscriber=endpoint,
            last_stable_seq=monitor.stable_received - 1,
            had_tentative=had_tentative,
            replay_tentative=False,
            filter=monitor.subscription_filter,
        )
        self.network.send(endpoint, primary, SUBSCRIBE, request)

    def _check_healing(self, now: float) -> None:
        failed = [m for m in self.monitors.values() if m.failed]
        if failed and all(m.is_healed(now, self.config.failure_detection_timeout) for m in failed):
            self.owner.on_inputs_healed(now)

    # ------------------------------------------------------------------ reconciliation protocol
    def _maybe_request_reconciliation(self, now: float) -> None:
        if self._state is not NodeState.UP_FAILURE:
            return
        if not self.owner.wants_reconciliation():
            return
        if not self.all_failed_inputs_healed(now):
            return
        if self._reconcile_pending:
            # Retry if the previous request went unanswered for a while.
            if (
                self._reconcile_requested_at is not None
                and now - self._reconcile_requested_at < 2 * self.config.keepalive_period
            ):
                return
            self._reconcile_pending = False
        live_partners = [p for p in self.replica_partners if self.network.can_communicate(self.owner.endpoint, p)]
        if not live_partners:
            # No replica can take over; reconcile immediately (a single,
            # unreplicated node still guarantees eventual consistency, it just
            # cannot also guarantee availability during the reconciliation).
            self.owner.start_reconciliation(now)
            return
        partner = self._rng.choice(live_partners)
        self._reconcile_request_id += 1
        self._reconcile_pending = True
        self._reconcile_requested_at = now
        self.network.send(
            self.owner.endpoint,
            partner,
            RECONCILE_REQUEST,
            ReconcileRequest(requester=self.owner.endpoint, request_id=self._reconcile_request_id),
        )

    def _handle_reconcile_request(self, message: Message, now: float) -> None:
        request: ReconcileRequest = message.payload
        grant = True
        if self._state is NodeState.STABILIZATION:
            grant = False
        elif self.owner.wants_reconciliation() and self.owner.endpoint < request.requester:
            # Tie-breaker: the replica with the lower identifier reconciles
            # first when both need to (Figure 9).
            grant = False
        self.network.send(
            self.owner.endpoint,
            request.requester,
            RECONCILE_REPLY,
            ReconcileReply(responder=self.owner.endpoint, request_id=request.request_id, granted=grant),
        )

    def _handle_reconcile_reply(self, message: Message, now: float) -> None:
        reply: ReconcileReply = message.payload
        if not self._reconcile_pending or reply.request_id != self._reconcile_request_id:
            return
        self._reconcile_pending = False
        if reply.granted and self._state is NodeState.UP_FAILURE:
            self.owner.start_reconciliation(now)

    # ------------------------------------------------------------------ heartbeats
    def _handle_heartbeat_response(self, message: Message, now: float) -> None:
        response: HeartbeatResponse = message.payload
        for monitor in self.monitors.values():
            info = monitor.producers.get(response.responder)
            if info is None:
                continue
            info.last_response_at = now
            info.reachable = True
            info.advertised_state = response.state_of(monitor.stream)

    # ------------------------------------------------------------------ data-plane hooks
    def receive_batch(self, batch: TupleBatch, sender: str, now: float) -> str:
        """Take note of a data batch from ``sender``; returns how to treat its tuples.

        The DPC state a producer piggybacks on a batch counts as a heartbeat
        response for the batch's stream: freshness and the advertised state
        are updated, so a producer whose data is flowing need not push.  The
        returned role is ``"primary"``, ``"correcting"`` or ``"ignore"`` (see
        :meth:`classify_producer`).  A replay-flagged
        batch (possibly empty) from a primary or correcting producer disarms
        the monitor's stale-cursor defense at batch granularity: an *empty*
        replay carries no tuples for :meth:`InputStreamMonitor.record_block`
        to clear it tuple by tuple, yet still proves the producer has
        answered the resubscription from the quoted position.
        """
        monitor = self.monitors.get(batch.stream)
        if monitor is None:
            return "ignore"
        info = monitor.producers.get(sender)
        node_state = batch.producer_node_state
        if node_state is not None and info is not None and not info.is_source:
            info.last_response_at = now
            info.reachable = True
            stream_state = batch.producer_stream_state
            info.advertised_state = stream_state if stream_state is not None else node_state
        role = _role(monitor, sender, info)
        if batch.replay and role != "ignore":
            monitor.awaiting_replay = False
        return role

    def classify_producer(self, stream: str, producer: str) -> str:
        """How data from ``producer`` should be treated: primary / correcting / ignore."""
        monitor = self.monitors.get(stream)
        if monitor is None:
            return "ignore"
        return _role(monitor, producer, monitor.producers.get(producer))

    # ------------------------------------------------------------------ message dispatch
    def handle_message(self, message: Message, now: float) -> bool:
        """Dispatch control-plane messages; returns True when handled."""
        if message.kind == HEARTBEAT_RESPONSE:
            self._handle_heartbeat_response(message, now)
            return True
        if message.kind == RECONCILE_REQUEST:
            self._handle_reconcile_request(message, now)
            return True
        if message.kind == RECONCILE_REPLY:
            self._handle_reconcile_reply(message, now)
            return True
        return False

    # ------------------------------------------------------------------ introspection
    def failed_streams(self) -> list[str]:
        return [stream for stream, monitor in self.monitors.items() if monitor.failed]

    def first_failure_detected_at(self) -> float | None:
        times = [
            monitor.failure_detected_at
            for monitor in self.monitors.values()
            if monitor.failure_detected_at is not None
        ]
        return min(times) if times else None

    def all_failed_inputs_healed(self, now: float) -> bool:
        failed = [m for m in self.monitors.values() if m.failed]
        return all(m.is_healed(now, self.config.failure_detection_timeout) for m in failed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConsistencyManager {self.owner.endpoint!r} state={self._state.value}>"


def _role(monitor: InputStreamMonitor, producer: str, info: ProducerInfo | None) -> str:
    """The role of ``producer`` (its entry ``info``) on ``monitor``'s stream."""
    if producer == monitor.primary:
        return "primary"
    if producer == monitor.correcting:
        return "correcting"
    if info is not None and info.is_source:
        return "primary"
    return "ignore"
