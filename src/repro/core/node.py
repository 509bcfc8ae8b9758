"""DPC processing node.

A :class:`ProcessingNode` is one replica of one query-diagram fragment.  It
combines the three architectural pieces of Figure 4(b):

* the **query processor** -- a :class:`~repro.spe.engine.LocalEngine` running
  the (fault-tolerance-extended) fragment;
* the **data path** -- input handling plus per-output-stream buffering and
  replay (:class:`~repro.core.data_path.DataPath`);
* the **consistency manager** -- failure detection, upstream switching, state
  advertisement and the inter-replica reconciliation protocol
  (:class:`~repro.core.consistency_manager.ConsistencyManager`).

and implements the DPC behaviours the paper describes:

* in STABLE state, tuples flow through the fragment and are emitted stably as
  SUnion buckets stabilize;
* when an input-stream failure cannot be masked by switching upstream
  replicas, the node checkpoints its fragment, suspends processing for (a
  safety fraction of) its delay budget ``D``, and then processes available
  tuples tentatively according to the configured delay policy (Section 6);
* when every failed input has healed, the node asks a replica partner for
  authorization and reconciles with checkpoint/redo, streaming corrections to
  its downstream neighbors and finishing with a REC_DONE (Section 4.4).

This module keeps ingest, the periodic tick, output flushing, the SUnion
hold / fragment-dirty flags, the delay policy and the
:class:`~repro.core.consistency_manager.ConsistencyOwner` callbacks.  The
checkpoint/redo reconciliation is a :class:`~repro.core.reconcile.Reconciler`
and crash recovery a :class:`~repro.core.recovery.Recovery`, one of each per
node.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..config import DPCConfig, ProcessingPolicy, SimulationConfig
from ..errors import ProtocolError
from .clock import Clock
from ..sim.network import Message, Network
from ..spe.engine import LocalEngine
from ..spe.operators.sunion import SUnion
from ..spe.query_diagram import QueryDiagram
from ..spe.tuples import REC_DONE, TENTATIVE, UNDO, TupleBlock
from ..statexfer import PeerRegistry
# Recovery calls these two through this module: the e2e tracer patches them here.
from ..statexfer import adopt_checkpoint, capture_checkpoint  # noqa: F401
from .consistency_manager import ConsistencyManager
from .data_path import DataPath
from .protocol import (
    CHECKPOINT_ACK,
    CHECKPOINT_REQUEST,
    CHECKPOINT_RESPONSE,
    DATA,
    HEARTBEAT_RESPONSE,
    SUBSCRIBE,
    UNSUBSCRIBE,
    CheckpointAck,
    HeartbeatResponse,
    SubscribeRequest,
    TupleBatch,
    UnsubscribeRequest,
)
from .reconcile import Reconciler
from .recovery import Recovery
from .states import NodeState


class ProcessingNode:
    """One replica of a query-diagram fragment under DPC."""

    def __init__(
        self,
        name: str,
        diagram: QueryDiagram,
        simulator: Clock,
        network: Network,
        config: DPCConfig | None = None,
        sim_config: SimulationConfig | None = None,
        assigned_delay: float | None = None,
        replica_partners: Sequence[str] = (),
        rng_seed: int | None = None,
    ) -> None:
        self.name = name
        self.endpoint = name
        self.simulator = simulator
        self.network = network
        self.config = config or DPCConfig()
        self.sim_config = sim_config or SimulationConfig()
        self.config.validate()
        self.sim_config.validate()
        #: Delay budget D assigned to this node's SUnions (defaults to X).
        self.assigned_delay = (
            assigned_delay if assigned_delay is not None else self.config.max_incremental_latency
        )

        self.diagram = diagram
        self.engine = LocalEngine(diagram)
        self.data_path = DataPath(owner=name)
        for stream in diagram.output_streams:
            self.data_path.add_output(stream)
        #: Output stream -> its manager (the fragment's outputs are fixed).
        self._managers = {manager.stream: manager for manager in self.data_path.outputs()}
        self.cm = ConsistencyManager(
            owner=self,
            simulator=simulator,
            network=network,
            config=self.config,
            replica_partners=replica_partners,
            rng_seed=rng_seed,
        )

        #: The fragment's SUnions, in diagram order: the hold and the delay
        #: policy walk them every tick.
        self._sunions = [operator for operator in diagram if isinstance(operator, SUnion)]
        # Give every SUnion access to the node clock so buckets know how long
        # they have been buffered (drives the Section 6 delay policies).
        for operator in self._sunions:
            operator.arrival_clock = lambda: self.simulator.now

        # --- failure handling state ------------------------------------------------
        self._fragment_dirty = False
        self._crashed = False
        self._started = False
        self._retired = False
        self._next_control_at = 0.0
        #: The timer chain :meth:`start` arms; cancelled when the replica is
        #: retired by a scale-in so a decommissioned fragment stops consuming
        #: simulator events.
        self._tick_handle = None

        #: Peer registry wired by the deploy layer; ``None`` (hand-built
        #: nodes) rejoins through full subscription replay.
        self.statexfer_registry: PeerRegistry | None = None
        self.reconciler = Reconciler(self)
        self.recovery = Recovery(self)
        #: One record per rejoin (:attr:`Recovery.records`).
        self.recoveries = self.recovery.records
        # --- unsolicited state advertisement ---------------------------------------
        #: Endpoints that monitor this node's state (downstream consumers and
        #: the client proxy); they receive a pushed HeartbeatResponse every
        #: keepalive period unless a data batch already carried the state.
        #: Consumers never probe: this push is how a silent producer's state
        #: (and its death, as pushes stopping) reaches them.
        self._state_watchers: list[str] = []
        self._last_sent_to: dict[str, float] = {}
        self._next_push_at = 0.0

        # --- statistics -----------------------------------------------------------
        self.reconciliations_completed = 0
        self.reconciliations_aborted = 0
        self.checkpoints_taken = 0
        self.recovery_checkpoints_taken = 0
        #: Egress accounting: (batch, receiver) sends and per-receiver tuples
        #: put on the wire across every output stream.  Filtered subscriptions
        #: exist to shrink these (each subscriber only receives its slice).
        self.batches_sent = 0
        self.tuples_sent = 0

        network.register(self.endpoint, self._on_message)

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start the node's one timer chain, :meth:`_tick`, every ``batch_interval``.

        The tick does the data work (tentative emission, flushing, state
        pushes, buffer trimming, recovery captures) and, from the tick that
        comes due every ``keepalive_period``, the consistency manager's
        control loop.  :meth:`~repro.deploy.Placement.deploy` requires the
        keepalive period to be a whole multiple of the batch interval, so
        both periods are honoured exactly.
        """
        if self._started:
            return
        self._started = True
        self._next_push_at = self._next_control_at = (
            self.simulator.now + self.config.keepalive_period
        )
        self._tick_handle = self.simulator.schedule_periodic(
            self.sim_config.batch_interval, self._tick
        )

    def _tick(self, now: float) -> None:
        control_due = now + 1e-9 >= self._next_control_at
        if control_due:
            self._next_control_at = now + self.config.keepalive_period
        # Data work first: tentative emission must get a chance to mark the
        # fragment dirty before the control loop evaluates healing.
        if not self._crashed and not self.recovery.adopting:
            if self.cm.state is NodeState.UP_FAILURE and not self.reconciler.active:
                self._emit_tentative_if_due(now)
            self.flush_outputs(now)
            if self._state_watchers and now + 1e-9 >= self._next_push_at:
                self._push_state(now)
            self.reconciler.trim_idle_buffers()
            self.recovery.maybe_capture(now)
        if control_due:
            # The control loop keeps running while the node is crashed (its
            # messages are dropped by the network): failure flags raised while
            # the node is down drive the post-recovery healing path.
            self.cm.control_tick(now)

    @property
    def state(self) -> NodeState:
        return self.cm.state

    @property
    def is_adopting(self) -> bool:
        """True while waiting for a partner's checkpoint transfer."""
        return self.recovery.adopting

    @property
    def fragment_dirty(self) -> bool:
        """True while the fragment state reflects tentative processing."""
        return self._fragment_dirty

    # ------------------------------------------------------------------ wiring helpers
    def register_input_stream(
        self,
        stream: str,
        producers: Sequence[str],
        source_producers: Sequence[str] = (),
        subscription_filter=None,
    ) -> None:
        """Declare an input stream and who can produce it (build-time wiring)."""
        if stream not in self.diagram.input_streams:
            raise ProtocolError(f"fragment of {self.name!r} has no input stream {stream!r}")
        self.cm.register_input(
            stream, producers, source_producers, subscription_filter=subscription_filter
        )

    def deregister_input_stream(self, stream: str) -> None:
        """Forget an input stream whose producer fragment was decommissioned.

        Live scale-in rewiring: the monitor is dropped, so the control loop
        stops judging the retired producers and data still in flight from
        them is classified "ignore" and discarded at arrival.
        """
        self.cm.monitors.pop(stream, None)

    def add_state_watcher(self, endpoint: str) -> None:
        """Register ``endpoint`` to receive pushed state advertisements."""
        if endpoint not in self._state_watchers:
            self._state_watchers.append(endpoint)

    def remove_state_watcher(self, endpoint: str) -> None:
        """Stop advertising state to a retired endpoint."""
        if endpoint in self._state_watchers:
            self._state_watchers.remove(endpoint)
        self._last_sent_to.pop(endpoint, None)

    def register_subscriber(self, stream: str, subscriber: str, subscription_filter=None) -> None:
        """Attach a downstream subscriber at build time (no replay needed)."""
        self.data_path.output(stream).attach_subscriber(subscriber, subscription_filter)

    def register_consumer(self, stream: str, consumer: str) -> None:
        """Declare a downstream replica wired to ``stream`` (subscribed here or not).

        The output buffer keeps everything ``consumer`` has not acknowledged;
        see :meth:`~repro.core.data_path.OutputStreamManager.acknowledge`.
        """
        self.data_path.output(stream).add_consumer(consumer)

    def retire(self) -> None:
        """Gracefully and permanently remove this replica (scale-in).

        Unlike :meth:`crash`, retirement is final: the tick chain is
        cancelled so the fragment stops consuming simulator events, and
        the endpoint is unregistered from the network so late traffic is
        dropped at delivery.  The caller (the deployment) is responsible for
        unsubscribing this endpoint from its upstreams *before* retiring it.
        """
        self._retired = True
        self._halt()
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        self.network.unregister(self.endpoint)

    # ------------------------------------------------------------------ message handling
    def _on_message(self, message: Message, now: float) -> None:
        if self._crashed:
            return
        if message.kind == CHECKPOINT_ACK:
            # Only touches the output managers, so it is safe mid-adoption.
            self.on_checkpoint_ack(message.payload)
            return
        if message.kind == CHECKPOINT_RESPONSE:
            self.recovery.on_response(message.payload, now)
            return
        if self.recovery.adopting:
            # While adopting a partner checkpoint, data and control traffic is
            # dropped: stale-cursor flushes racing the adoption would
            # interleave with state the checkpoint already covers.
            # Subscription management still goes through (it only touches the
            # output managers, and stable-seq dedup makes any overlap with the
            # adopted buffer harmless) so a subscriber switching to this
            # replica mid-window is not left waiting for its replay.
            if message.kind == SUBSCRIBE:
                self._on_subscribe(message.payload, now)
            elif message.kind == UNSUBSCRIBE:
                self._on_unsubscribe(message.payload)
            return
        if message.kind == DATA:
            self._on_data(message.payload, message.sender, now)
        elif message.kind == CHECKPOINT_REQUEST:
            self.recovery.on_request(message.payload, now)
        elif self.cm.handle_message(message, now):
            return
        elif message.kind == SUBSCRIBE:
            self._on_subscribe(message.payload, now)
        elif message.kind == UNSUBSCRIBE:
            self._on_unsubscribe(message.payload)

    def _on_subscribe(self, request: SubscribeRequest, now: float) -> None:
        manager = self.data_path.output(request.stream)
        replay = manager.subscribe(request)
        # The response is sent even when the replay is empty: subscribers
        # recovering from a crash gate on the replay-flagged batch to leave
        # their awaiting_replay defense, and on a filtered subscription no
        # later tuple can substitute for it (stamped gaps are routine there,
        # so position equality never re-arms acceptance).
        kind, batch = self.data_path.make_batch(
            request.stream,
            replay,
            node_state=self.cm.state,
            stream_state=self.output_stream_states().get(request.stream),
            replay=True,
        )
        if self.network.send(self.endpoint, request.subscriber, kind, batch):
            self._last_sent_to[request.subscriber] = now
            self.batches_sent += 1
            self.tuples_sent += len(replay)
        manager.mark_delivered(request.subscriber)

    def _on_unsubscribe(self, request: UnsubscribeRequest) -> None:
        self.data_path.output(request.stream).unsubscribe(request.subscriber)

    def on_checkpoint_ack(self, ack: CheckpointAck) -> None:
        """A downstream replica's durable state covers ``ack.through``: truncate."""
        if not self._crashed:
            self.data_path.output(ack.stream).acknowledge(ack.consumer, ack.through)

    def _on_data(self, batch: TupleBatch, sender: str, now: float) -> None:
        role = self.cm.receive_batch(batch, sender, now)
        if role == "ignore":
            return
        stream = batch.stream
        monitor = self.cm.monitors[stream]
        if monitor.awaiting_replay and monitor.track_source_ids and not batch.replay:
            # A stale-cursor source flush racing the SOURCE_RESUBSCRIBE
            # replay: the link is FIFO, so everything arriving before the
            # replay-flagged batch predates the cursor reset and is covered
            # by the adopted checkpoint plus the replay.
            return
        accepted = monitor.record_block(batch.tuples, now)
        codes = accepted.codes
        if UNDO in codes:
            self.apply_local_undo(stream, now)
        if role != "primary" or self.reconciler.active:
            return
        if UNDO in codes or REC_DONE in codes:
            # Consumed above (UNDO) or by the monitor (REC_DONE); not fed.
            accepted = accepted.take(
                [i for i, code in enumerate(codes) if code != UNDO and code != REC_DONE]
            )
            codes = accepted.codes
        if codes:
            if TENTATIVE in codes:
                self.set_dirty(True)
            self.buffer_outputs(self.engine.push(stream, accepted))

    # ------------------------------------------------------------------ fragment outputs
    def set_dirty(self, dirty: bool) -> None:
        """Track whether the fragment state reflects tentative processing.

        While dirty, the fragment's SOutputs downgrade everything they forward
        to tentative: nothing the fragment emits can be trusted as stable
        until the node reconciles.  The transition into the dirty state is the
        moment the paper requires a checkpoint: "a node checkpoints the state
        of its query diagram ... before processing any tentative tuples".
        """
        reconciler = self.reconciler
        if dirty and not self._fragment_dirty and not reconciler.active and reconciler.checkpoint is None:
            reconciler.take_checkpoint(self.simulator.now)
        self._fragment_dirty = dirty
        if dirty:
            self.set_hold(True)
        for soutput in self.engine.soutputs():
            soutput.downgrade_to_tentative = dirty

    def set_hold(self, hold: bool) -> None:
        """Freeze (or release) watermark-driven emission of every SUnion.

        While the node is handling a failure, buckets must only leave SUnions
        through the delay-policy-driven force emissions; when the hold is
        released, whatever the watermark already stabilized is emitted.
        """
        released: list[tuple[str, TupleBlock]] = []
        for operator in self._sunions:
            if operator.hold_buckets and not hold:
                operator.hold_buckets = False
                produced = operator.release_held_buckets()
                if produced:
                    released.append((operator.name, produced))
            else:
                operator.hold_buckets = hold
        for operator_name, produced in released:
            self.buffer_outputs(self.engine.push_operator_outputs(operator_name, produced))

    def buffer_outputs(self, outputs: Mapping[str, TupleBlock]) -> None:
        """Append what a push produced to the output buffers (each block as it came)."""
        managers = self._managers
        for stream, block in outputs.items():
            if block.codes:
                managers[stream].append_all(block)

    # ------------------------------------------------------------------ periodic work
    def _push_state(self, now: float) -> None:
        """Advertise this node's state to watchers that saw no recent data.

        Stands in for the paper's keep-alive request/response round trip
        (Section 4.2.3): every keepalive period, watchers that did not
        receive a data batch (whose piggybacked state already serves as the
        advertisement) get one multicast HeartbeatResponse.  Watchers detect
        this node's death as pushes stopping.  Runs once the keepalive
        period is due, with watchers registered.
        """
        self._next_push_at = now + self.config.keepalive_period
        cutoff = now - self.config.keepalive_period
        stale = [
            watcher
            for watcher in self._state_watchers
            if self._last_sent_to.get(watcher, float("-inf")) <= cutoff
        ]
        if not stale:
            return
        response = HeartbeatResponse(
            responder=self.endpoint,
            node_state=self.cm.state,
            stream_states=dict(self.output_stream_states()),
        )
        self.network.send_many(self.endpoint, stale, HEARTBEAT_RESPONSE, response)

    def _emit_tentative_if_due(self, now: float) -> None:
        """Apply the delay policy to buffered SUnion buckets (Section 6): in UP_FAILURE, outside a redo."""
        first_detection = self.cm.first_failure_detected_at()
        if first_detection is None:
            return
        initial_hold = self.config.delay_safety_factor * self.assigned_delay
        if now < first_detection + initial_hold:
            return  # initial suspension: every policy first waits for D
        policy = self._current_policy(now)
        if policy is ProcessingPolicy.SUSPEND:
            return
        if policy is ProcessingPolicy.DELAY:
            min_hold = self.config.delay_safety_factor * self.assigned_delay
        else:
            min_hold = self.config.tentative_bucket_wait
        produced_any = False
        for operator in self._sunions:
            produced = operator.force_emit_held_longer_than(now, min_hold)
            if not produced:
                continue
            produced_any = True
            self.set_dirty(True)
            self.buffer_outputs(self.engine.push_operator_outputs(operator.name, produced))
        if produced_any:
            self.flush_outputs(now)

    def _current_policy(self, now: float) -> ProcessingPolicy:
        """Failure-time vs stabilization-time policy (Figure 13 variants)."""
        if self.cm.all_failed_inputs_healed(now):
            return self.config.delay_policy.during_stabilization
        return self.config.delay_policy.during_failure

    def flush_outputs(self, now: float) -> None:
        """Send every subscriber what was appended since its last batch.

        A buffer with nothing appended since its last flush is skipped
        without a look at its subscriptions.
        """
        states = None
        network, endpoint, last_sent_to = self.network, self.endpoint, self._last_sent_to
        for manager in self._managers.values():
            if manager.flushed:
                continue
            batches = manager.pending_batches()
            if not batches:
                continue
            if states is None:
                states = self.cm.state, self.output_stream_states()
            node_state, stream_states = states
            for pending, subscribers in batches:
                # Unreachable subscribers keep buffering (retry when the link
                # heals) without being counted as send attempts in the stats.
                reachable = [s for s in subscribers if network.can_communicate(endpoint, s)]
                if not reachable:
                    continue
                kind, batch = self.data_path.make_batch(
                    manager.stream, pending, node_state, stream_states.get(manager.stream)
                )
                sent = network.send_many(endpoint, reachable, kind, batch)
                if not sent:
                    continue
                manager.mark_delivered(*sent)
                for subscriber in sent:
                    last_sent_to[subscriber] = now
                self.batches_sent += len(sent)
                self.tuples_sent += len(pending.codes) * len(sent)

    # ------------------------------------------------------------------ ConsistencyOwner interface
    def on_input_failure(self, stream: str, now: float) -> None:
        """An input stream failed and could not be masked by switching."""
        reconciler = self.reconciler
        if reconciler.active:
            return  # handled by the abort check in the redo loop
        if reconciler.checkpoint is None:
            reconciler.take_checkpoint(now)
        self.set_hold(True)

    def on_inputs_healed(self, now: float) -> None:
        """Every failed input stream healed."""
        if self._fragment_dirty or self.reconciler.active:
            return  # reconciliation (requested via wants_reconciliation) will clean up
        # The failure was short enough that nothing tentative was processed:
        # the buckets buffered during the hold stabilize now that data and
        # boundaries flow again, so the node simply resumes STABLE operation.
        for monitor in self.cm.monitors.values():
            monitor.mark_healed()
        self.reconciler.checkpoint = None
        self.set_hold(False)
        self.flush_outputs(now)
        if self.cm.state is NodeState.UP_FAILURE:
            self.cm.set_state(NodeState.STABLE)

    def start_reconciliation(self, now: float) -> None:
        """Authorization granted: reconcile with checkpoint/redo (Section 4.4)."""
        self.reconciler.begin(now)

    def wants_reconciliation(self) -> bool:
        return self._fragment_dirty and not self.reconciler.active

    def apply_local_undo(self, stream: str, now: float) -> None:
        """Drop buffered tentative tuples of ``stream`` from the fragment's SUnions.

        The serializer is not necessarily the fragment's entry operator (a
        ``diagram_factory`` fragment may put operators in front of its
        SUnion), so the search walks downstream from each entry until it
        reaches the first SUnion.
        """
        diagram = self.diagram
        for operator_name, _port in self.engine.entry_operators(stream):
            for name in diagram.reachable_from([operator_name]):
                operator = diagram.operator(name)
                if isinstance(operator, SUnion):
                    operator.drop_tentative()
                    break

    def output_stream_states(self) -> dict[str, NodeState]:
        """Per-output-stream consistency states, advertised on batches and pushes."""
        state = self.cm.state
        if not self.config.per_stream_granularity or state is NodeState.STABLE:
            return dict.fromkeys(self._managers, state)
        # Outputs reachable from the entry operators of failed inputs.
        diagram = self.diagram
        failed = set(self.cm.failed_streams())
        reachable = set(
            diagram.reachable_from(b.operator for b in diagram.inputs if b.stream in failed)
        )
        affected = {b.stream for b in diagram.outputs if b.operator in reachable}
        if self._fragment_dirty and not affected:
            # Conservative: once the whole fragment was rolled into tentative
            # processing every output is affected.
            affected = set(self._managers)
        return {
            stream: (state if stream in affected else NodeState.STABLE)
            for stream in self._managers
        }

    # ------------------------------------------------------------------ crash / recovery
    def crash(self) -> None:
        """Fail-stop this replica: it stops sending, receiving, and processing."""
        self._halt()
        self.network.crash(self.endpoint)

    def _halt(self) -> None:
        self._crashed = True
        # Fail-stop loses everything in memory, including the recovery
        # checkpoint this replica held for *its* partners.
        self.recovery.forget()

    def recover(self) -> None:
        """Restart and rejoin the replica group (:meth:`Recovery.rejoin`)."""
        if self.reconciler.active:
            # Before the rejoin clears the redo buffers.  Still down, so the
            # corrections and REC_DONE stay buffered; inputs that went silent
            # meanwhile take finish() to UP_FAILURE, and healing leads to STABLE.
            self.reconciler.finish_after_crash(self.simulator.now)
        self.network.recover(self.endpoint)
        self._crashed = False
        self._fragment_dirty = False
        self.reconciler.checkpoint = None
        self.recovery.rejoin(self.simulator.now)

    # ------------------------------------------------------------------ introspection
    def statistics(self) -> dict:
        """Counters used by tests, examples, and the experiment harness."""
        outputs = {
            manager.stream: {
                "stable": manager.stable_produced,
                "tentative": manager.tentative_produced,
                "undos": manager.undos_produced,
                "buffered": manager.buffered_tuples,
                "acked_through": manager.acked_through,
                "truncated": manager.truncated_tuples,
            }
            for manager in self.data_path.outputs()
        }
        return {
            "name": self.name,
            "state": self.cm.state.value,
            "checkpoints": self.checkpoints_taken,
            "reconciliations": self.reconciliations_completed,
            "reconciliations_aborted": self.reconciliations_aborted,
            "switches": self.cm.switches_performed,
            "tuples_processed": self.engine.tuples_processed,
            "batches_sent": self.batches_sent,
            "tuples_sent": self.tuples_sent,
            "outputs": outputs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProcessingNode {self.name!r} state={self.cm.state.value}>"
