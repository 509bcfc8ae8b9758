"""Crash recovery of one node replica: periodic capture, rejoin, and the partner side.

A :class:`Recovery` belongs to one :class:`~repro.core.node.ProcessingNode`
and owns everything between a fail-stop crash and the replica's rejoin:

* **periodic capture** of a :class:`~repro.statexfer.RecoveryCheckpoint`
  while the node is clean and STABLE, acknowledged to every producer so
  output buffers and source logs drop what it covers;
* **rejoin** (:meth:`rejoin`): adopt a reachable partner's checkpoint
  (CHECKPOINT_REQUEST / RESPONSE) and replay only the suffix past its
  cursors, or -- when no partner's checkpoint beats it under the recovery-time
  model ``transfer + replayed / redo_rate``, or the transfer dies (the
  epoch-guarded fallback timer) -- resubscribe every input from this node's
  own positions and replay;
* the **partner side**: serving this replica's checkpoint after the modelled
  transfer delay;
* the :attr:`records` the runtime summary reports, one per rejoin.

``capture_checkpoint`` / ``adopt_checkpoint`` are called through
:mod:`repro.core.node`'s names, and timers are bound methods of objects whose
``owner`` is the node: the e2e tracer patches the former and charges the
latter to ``core.node``.  The module lives in ``core`` because it speaks the
protocol; :mod:`repro.statexfer` stays importable from the SPE layer alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from ..statexfer import RecoveryCheckpoint, StreamCursor, transfer_delay
from . import node as node_module
from .protocol import CHECKPOINT_REQUEST, CHECKPOINT_RESPONSE, CheckpointRequest, CheckpointResponse
from .states import NodeState

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from .node import ProcessingNode


class _Deferred:
    """A timer callback with bound arguments, charged to ``owner``."""

    __slots__ = ("owner", "_call", "_args")

    def __init__(self, owner: "ProcessingNode", call: Callable, *args) -> None:
        self.owner = owner
        self._call = call
        self._args = args

    def fire(self, now: float) -> None:
        self._call(now, *self._args)


class Recovery:
    """Checkpoint-shipped (or full-replay) rejoin of one node replica."""

    def __init__(self, owner: "ProcessingNode") -> None:
        self.owner = owner
        #: Latest periodic capture.  Held in memory only, so a crash loses it
        #: -- exactly the fail-stop model the paper assumes.
        self.checkpoint: RecoveryCheckpoint | None = None
        #: True between sending a CHECKPOINT_REQUEST to a partner and adopting
        #: (or giving up on) its response; the node drops other traffic.
        self.adopting = False
        #: One record per rejoin: mode ("checkpoint" / "replay" /
        #: "replay-fallback"), replay-suffix length, shipped item count, and
        #: the modeled recovery time.  Surfaced by the runtime summary.
        self.records: list[dict] = []
        self._epoch = 0
        self._next_capture_at = 0.0
        self._started_at = 0.0

    # ------------------------------------------------------------------ capture
    def maybe_capture(self, now: float) -> None:
        """Periodically capture the fragment for checkpoint-shipped recovery.

        Only while the node is clean and STABLE: a checkpoint taken during
        tentative processing or reconciliation would ship unstable state --
        which is also why a replica in UP_FAILURE pins its producers' buffers.
        The capture is a pure in-memory read (no simulated events); right
        after it the captured input positions are acknowledged to every
        producer replica, so output buffers and source logs drop the prefixes
        the checkpoint now covers.
        """
        owner = self.owner
        interval = owner.config.checkpoint_interval
        registry = owner.statexfer_registry
        if (
            now + 1e-9 < self._next_capture_at
            or interval is None
            or registry is None
            or owner._fragment_dirty
            or owner.reconciler.checkpoint is not None
            # Also excludes a redo in flight: that is STABILIZATION.
            or owner.cm.state is not NodeState.STABLE
            or owner.cm.failed_streams()
        ):
            return
        self._next_capture_at = now + interval
        self.checkpoint = node_module.capture_checkpoint(owner, now)
        owner.recovery_checkpoints_taken += 1
        owner.cm.acknowledge_inputs(registry)

    def invalidate(self) -> None:
        """Drop the held checkpoint after a live rewiring.

        Changing an operator's port layout (or extracting handoff state)
        makes previously captured state stale: adopting it would restore a
        ``port_boundaries`` list of the wrong length or resurrect state that
        was shipped away.  The next periodic capture replaces it.
        """
        self.checkpoint = None

    def forget(self) -> None:
        """Fail-stop: lose the held checkpoint and any adoption in flight."""
        self.checkpoint = None
        self.adopting = False

    # ------------------------------------------------------------------ rejoin
    def rejoin(self, now: float) -> None:
        """Rejoin after a crash: adopt a partner's checkpoint, else replay.

        Fast path: a reachable partner holds a checkpoint that is cheaper
        than replay from this node's frozen positions -- fetch it and replay
        only the suffix past its cursors, O(suffix since last capture)
        instead of O(retained window).
        """
        owner = self.owner
        registry = owner.statexfer_registry
        if registry is not None and owner.config.checkpoint_interval is not None:
            # Tell the producers what this incarnation actually holds before
            # asking them for anything: the frozen pre-crash positions here,
            # nothing at all in a respawned live worker -- whose predecessor's
            # acknowledgments must not vouch for state it no longer has.
            owner.cm.acknowledge_inputs(registry)
            if self._request_checkpoint(now):
                return
        self._replay_rejoin(now, "replay")

    def _replay_rejoin(self, now: float, mode: str) -> None:
        """Resubscribe every input from this node's own positions and replay."""
        owner = self.owner
        replayed = self.replay_estimate()
        for monitor in owner.cm.monitors.values():
            monitor.clear_stable_buffer()
            # Failure flags raised while the node was down are deliberately
            # kept: the normal healing path (boundaries flowing again on every
            # failed input) is what moves the node back to STABLE once it has
            # caught up with the replayed input.
            monitor.last_boundary_arrival = now
            primary = monitor.primary
            # Sources replay by themselves from their frozen delivery cursor,
            # so no replay-flagged response comes and the gate stays open.
            # Nodes: until the replay arrives, reject stable data beyond the
            # expected position -- the upstream's pre-crash cursor may have
            # counted in-flight (crash-dropped) tuples as delivered.
            monitor.awaiting_replay = primary is not None and not monitor.producers[primary].is_source
            if monitor.awaiting_replay:
                owner.cm.resubscribe(monitor)
        self._record(mode, now, replayed, 0, 0.0)

    def _choose_partner(self) -> tuple[str | None, int]:
        """The partner to ask, and the item count of its checkpoint.

        Discovery is a zero-message registry peek (no simulated events are
        spent finding out that nothing is available -- crucial for keeping
        checkpoint-less runs byte-identical).
        """
        owner = self.owner
        registry = owner.statexfer_registry
        remote = getattr(registry, "remote", False)
        for candidate in owner.cm.replica_partners:
            if not owner.network.can_communicate(owner.endpoint, candidate):
                continue
            if remote:
                # Live backend: partners run in other processes, so there is
                # nothing to peek at.  Ask the first reachable partner blind;
                # an empty CHECKPOINT_RESPONSE (or a dead partner, via the
                # fallback timer) degrades to full subscription replay.
                return candidate, 0
            peer = registry.node_of(candidate)
            checkpoint = peer.recovery.checkpoint if peer is not None else None
            if checkpoint is None:
                continue
            # "Usable" means cheaper than full replay from this node's own
            # frozen positions.  A partner that stopped capturing before we
            # crashed (e.g. it spent the failure window in UP_FAILURE) can
            # hold a checkpoint *older* than our own state.
            redo_rate = owner.config.redo_rate
            own_s = self.replay_estimate() / redo_rate
            ckpt_s = (
                transfer_delay(owner.config, checkpoint.item_count)
                + self.replay_estimate(checkpoint.input_cursors) / redo_rate
            )
            if ckpt_s < own_s:
                return candidate, checkpoint.item_count
        return None, 0

    def _request_checkpoint(self, now: float) -> bool:
        """Ask a partner for its checkpoint; False when none is usable."""
        owner = self.owner
        partner, expected_items = self._choose_partner()
        if partner is None:
            return False
        self.adopting = True
        self._epoch += 1
        self._started_at = now
        owner.network.send(
            owner.endpoint, partner, CHECKPOINT_REQUEST, CheckpointRequest(requester=owner.endpoint)
        )
        # Safety net: if the partner (or its response) dies mid-transfer, give
        # up on adoption and fall back to full subscription replay.
        deadline = (
            transfer_delay(owner.config, expected_items)
            + 2 * owner.sim_config.network_latency
            + 3 * owner.config.keepalive_period
        )
        owner.simulator.schedule_in(deadline, _Deferred(owner, self._fallback, self._epoch).fire)
        return True

    def _fallback(self, now: float, epoch: int) -> None:
        if epoch != self._epoch or not self.adopting or self.owner._crashed:
            return
        self.adopting = False
        self._replay_rejoin(now, "replay-fallback")

    def on_response(self, response: CheckpointResponse, now: float) -> None:
        """Adopt the partner's checkpoint and resubscribe from its cursors."""
        if not self.adopting:
            return  # late response; the fallback already took over
        self.adopting = False
        self._epoch += 1  # disarm the pending fallback timer
        checkpoint = response.checkpoint
        if checkpoint is None:
            self._replay_rejoin(now, "replay-fallback")
            return
        owner = self.owner
        node_module.adopt_checkpoint(owner, checkpoint, now)
        # The adopted cursors may lie below this replica's own last
        # acknowledgment; re-acknowledge them *before* resubscribing so no
        # producer truncates past the position the replay starts from.
        owner.cm.acknowledge_inputs(owner.statexfer_registry)
        for monitor in owner.cm.monitors.values():
            monitor.last_boundary_arrival = now
            if monitor.primary is not None:
                # The replay gate stays armed until the replay-flagged
                # response arrives (FIFO links: everything before it predates
                # the cursor reset).
                monitor.awaiting_replay = True
                owner.cm.resubscribe(monitor)
        self._record("checkpoint", now, self.replay_estimate(), checkpoint.item_count, now - self._started_at)
        # Captures resume on the normal cadence relative to the rejoin.
        self._next_capture_at = now + (owner.config.checkpoint_interval or 0.0)

    def _record(self, mode: str, now: float, replayed: int, shipped: int, transfer: float) -> None:
        self.records.append(
            {
                "mode": mode,
                "at": now,
                "replayed": replayed,
                "shipped_items": shipped,
                "transfer_delay": transfer,
                "recovery_s": transfer + replayed / self.owner.config.redo_rate,
            }
        )

    def replay_estimate(self, cursors: Mapping[str, StreamCursor] | None = None) -> int:
        """Tuples upstream neighbors would replay past ``cursors``.

        Streams without a cursor (all of them by default) count from this
        node's own positions.  A zero-cost read through the peer registry (0
        when the node was wired by hand without one).
        """
        owner = self.owner
        registry = owner.statexfer_registry
        if registry is None:
            return 0
        cursors = cursors or {}
        total = 0
        for stream, monitor in owner.cm.monitors.items():
            primary = monitor.primary
            if primary is None:
                continue
            # A monitor carries the same two positions as a StreamCursor.
            position = cursors.get(stream, monitor)
            if monitor.producers[primary].is_source:
                source = registry.source_of(stream)
                if source is not None:
                    total += len(source.log.replay_after(position.source_position))
            else:
                peer = registry.node_of(primary)
                if peer is not None:
                    produced = peer.data_path.output(stream).stable_seq
                    total += max(0, produced - position.stable_received + 1)
        return total

    # ------------------------------------------------------------------ partner side
    def on_request(self, request: CheckpointRequest, now: float) -> None:
        """Serve this replica's checkpoint to a partner after the transfer delay.

        Shipping a large checkpoint genuinely races the replay it replaces.
        """
        owner = self.owner
        checkpoint = self.checkpoint
        owner.simulator.schedule_in(
            transfer_delay(owner.config, checkpoint.item_count if checkpoint else 0),
            _Deferred(owner, self._respond, request.requester, checkpoint).fire,
        )

    def _respond(self, now: float, requester: str, checkpoint: RecoveryCheckpoint | None) -> None:
        owner = self.owner
        if owner._crashed:
            return
        owner.network.send(
            owner.endpoint,
            requester,
            CHECKPOINT_RESPONSE,
            CheckpointResponse(responder=owner.endpoint, checkpoint=checkpoint),
        )
