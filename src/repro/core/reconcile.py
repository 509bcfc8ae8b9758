"""Checkpoint/redo reconciliation (Section 4.4): the STABILIZATION side of Fig. 5.

A :class:`Reconciler` belongs to one :class:`~repro.core.node.ProcessingNode`.
It snapshots the fragment before the first tentative tuple is processed
(:meth:`take_checkpoint`), and once the node's replica partner authorizes it,
rolls the fragment back to that snapshot and redoes the buffered stable input
in rate-limited chunks, streaming corrections downstream (:meth:`begin`,
:meth:`step`).  The burst ends in STABLE (:meth:`finish`) or, when a new
failure arrives mid-redo, back in UP_FAILURE with the not-yet-redone input
kept for the next attempt (:meth:`abort`).  Every state change goes through
:meth:`ConsistencyManager.set_state <repro.core.consistency_manager.ConsistencyManager.set_state>`.

Redo chunks are bound methods of the reconciler, whose ``owner`` is the node:
the e2e tracer charges them to ``core.node`` through that attribute.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from ..spe.checkpoint import DiagramCheckpoint
from .states import NodeState

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from .node import ProcessingNode


class Reconciler:
    """Checkpoint/redo for one node replica: begin / step / finish / abort."""

    def __init__(self, owner: "ProcessingNode") -> None:
        self.owner = owner
        #: The fragment as it was before any tentative tuple was processed;
        #: ``None`` while the fragment is clean.
        self.checkpoint: DiagramCheckpoint | None = None
        #: True in STABILIZATION, between :meth:`begin` and finish / abort.
        self.active = False
        #: Per input stream, how much of the monitor's redo buffer was redone.
        self.positions: dict[str, int] = {}
        self._chunk_interval = max(owner.sim_config.batch_interval, 0.05)

    def take_checkpoint(self, now: float, clear_buffers: bool = True) -> None:
        """Snapshot the fragment before any tentative tuple is processed.

        ``clear_buffers`` is False when the redo buffers already hold exactly
        the input *not* reflected in the snapshot (an aborted redo's suffix).
        """
        owner = self.owner
        self.checkpoint = owner.engine.checkpoint(created_at=now)
        owner.engine.note_checkpoint_on_outputs()
        if clear_buffers:
            for monitor in owner.cm.monitors.values():
                monitor.clear_stable_buffer()
        owner.checkpoints_taken += 1

    def begin(self, now: float) -> None:
        """Authorization granted: roll back and schedule the first redo chunk."""
        if self.active:
            return
        owner = self.owner
        if self.checkpoint is None:
            # Nothing to roll back to (e.g. the failure produced no tentative
            # processing); just clean up.
            owner.on_inputs_healed(now)
            return
        owner.cm.set_state(NodeState.STABILIZATION)
        self.active = True
        owner.set_dirty(False)
        for soutput in owner.engine.soutputs():
            soutput.begin_reconciliation()
        owner.engine.restore(self.checkpoint)
        # The redo reprocesses stable input only; its buckets stabilize and
        # must be emitted as corrections, so the hold is lifted.
        for operator in owner._sunions:
            operator.hold_buckets = False
        self.positions = dict.fromkeys(owner.cm.monitors, 0)
        self._schedule(owner.config.checkpoint_cost)

    def trim_idle_buffers(self) -> None:
        """Keep the redo buffers bounded while the node is fully stable."""
        owner = self.owner
        cm = owner.cm
        if (
            self.checkpoint is None
            and not owner._fragment_dirty
            and cm.state is NodeState.STABLE
            and not cm.failed_streams()
        ):
            for monitor in cm.monitors.values():
                monitor.clear_stable_buffer()

    def _schedule(self, delay: float) -> None:
        self.owner.simulator.schedule_in(delay, self.step)

    def step(self, now: float) -> None:
        """Redo one budgeted slice of the buffered stable input."""
        owner = self.owner
        if not self.active or owner._crashed:
            # A down replica processes nothing: the chain ends here, and the
            # redo stays active (suspended) until finish_after_crash.
            return
        if not owner.cm.all_failed_inputs_healed(now):
            self.abort(now)
            return
        done = self._redo(max(int(owner.config.redo_rate * self._chunk_interval), 1))
        owner.flush_outputs(now)
        if done:
            self.finish(now)
        else:
            self._schedule(self._chunk_interval)

    def _redo(self, budget: int) -> bool:
        """Push up to ``budget`` buffered rows; True once every redo buffer is redone."""
        owner = self.owner
        engine = owner.engine
        done = True
        for stream, monitor in owner.cm.monitors.items():
            if budget <= 0:
                done = False
                break
            position = self.positions.get(stream, 0)
            buffer = monitor.stable_buffer
            if position >= len(buffer):
                continue
            take = buffer[position: position + budget]
            budget -= max(take.data_rows, 1)
            self.positions[stream] = position + len(take)
            for operator_name, port in engine.entry_operators(stream):
                owner.buffer_outputs(engine.push_operator(operator_name, port, take))
            if self.positions[stream] < len(buffer):
                done = False
        return done

    def finish_after_crash(self, now: float) -> None:
        """A crash cut the redo short: redo the rest at once, then :meth:`finish`."""
        self._redo(sys.maxsize)
        self.finish(now)

    def finish(self, now: float) -> None:
        """The redo caught up: STABLE, or UP_FAILURE if an input is still failed."""
        owner = self.owner
        self._close(now, keep_unredone=False)
        owner.set_dirty(False)
        owner.reconciliations_completed += 1
        timeout = owner.config.failure_detection_timeout
        # A list, not any(): detection must run on every monitor.
        still_failed = [
            m for m in owner.cm.monitors.values() if m.detect_failure(now, timeout) or m.failed
        ]
        if still_failed:
            self._reenter_up_failure(now)
        else:
            owner.cm.set_state(NodeState.STABLE)

    def abort(self, now: float) -> None:
        """A new failure arrived mid-redo: close the burst and resume UP_FAILURE."""
        self._close(now, keep_unredone=True)
        self.owner.reconciliations_aborted += 1
        self._reenter_up_failure(now)

    def _close(self, now: float, keep_unredone: bool) -> None:
        """End the correction burst: SOutput tails, flush, then the redo buffers."""
        owner = self.owner
        for binding in owner.diagram.outputs:
            tail = owner.engine.soutput_for(binding.stream).end_reconciliation(stime=now)
            owner.data_path.output(binding.stream).append_all(tail)
        owner.flush_outputs(now)
        for stream, monitor in owner.cm.monitors.items():
            if keep_unredone:
                # The input not reprocessed yet belongs to the next checkpoint
                # interval: it is the next reconciliation's redo input.
                del monitor.stable_buffer[: self.positions.get(stream, 0)]
            else:
                monitor.clear_stable_buffer()
                monitor.mark_healed()
        self.positions = {}
        self.checkpoint = None
        self.active = False

    def _reenter_up_failure(self, now: float) -> None:
        self.owner.cm.set_state(NodeState.UP_FAILURE)
        # The buffers hold exactly what the new snapshot does not reflect.
        self.take_checkpoint(now, clear_buffers=False)
        self.owner.set_hold(True)
