"""SOutput: output-stream stabilizer.

SOutput (Sections 3 and 4.4.2) sits on every output stream that crosses a node
boundary.  At runtime it is a pass-through filter that remembers the last
stable tuple it forwarded.  During state reconciliation it:

* drops the stable tuples regenerated by the redo that were already forwarded
  stably before the failure,
* emits a single UNDO tuple (identifying the last stable tuple not to be
  undone) before the first correction, and
* emits a REC_DONE tuple when the node signals the end of reconciliation.

The *physical* identity of the node's output stream (tuple ids seen by
downstream neighbors) must survive checkpoint/redo, so the query-diagram
engine never rolls SOutput back: its internal bookkeeping spans the
reconciliation instead of being reset by it.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..schema import ANY_SCHEMA, Schema
from ..tuples import BOUNDARY, REC_DONE, STABLE, TENTATIVE, UNDO, TupleBlock
from .base import Operator


class SOutput(Operator):
    """Pass-through filter with duplicate suppression and undo generation."""

    #: Flag consulted by the engine: never restore this operator from a checkpoint.
    survives_restore = True

    def __init__(self, name: str, output_schema: Schema = ANY_SCHEMA) -> None:
        super().__init__(name, arity=1, output_schema=output_schema)
        #: While True, every data tuple is forwarded as tentative regardless of
        #: its label: the processing node sets this while its fragment state is
        #: dirty (it processed tentative or partial input), because nothing the
        #: fragment emits can be trusted as stable until it reconciles.
        self.downgrade_to_tentative = False
        #: id (on *this* operator's output stream) of the last stable tuple forwarded.
        self._last_stable_out_id: int = -1
        #: stable tuples forwarded since the node's last checkpoint.
        self._stable_since_checkpoint: int = 0
        #: tentative tuples forwarded since the last stable tuple.
        self._tentative_since_stable: int = 0
        # --- reconciliation mode ---
        self._reconciling = False
        self._duplicates_to_drop = 0
        self._undo_pending = False
        # --- statistics ---
        self.stable_forwarded = 0
        self.tentative_forwarded = 0
        self.undos_emitted = 0

    # ------------------------------------------------------------------ node hooks
    def note_checkpoint(self) -> None:
        """Called by the node right after it checkpoints the query diagram."""
        self._stable_since_checkpoint = 0

    def begin_reconciliation(self) -> None:
        """Enter reconciliation: expect the redo to regenerate recent output.

        Stable tuples that were already forwarded after the checkpoint are
        duplicates and will be dropped; the first genuinely new tuple is
        preceded by an UNDO revoking the tentative suffix (if any).
        """
        self._reconciling = True
        self._duplicates_to_drop = self._stable_since_checkpoint
        self._undo_pending = self._tentative_since_stable > 0

    def end_reconciliation(self, stime: float) -> TupleBlock:
        """Exit reconciliation and emit the REC_DONE marker."""
        out: list[TupleBlock] = []
        if self._undo_pending:
            # Nothing corrected the tentative suffix (e.g. it turned out to be
            # correct as-is is impossible under redo, but the failure may have
            # produced no stable replacements); still revoke it so downstream
            # state converges.
            out.append(self._make_undo(stime))
        out.append(self.writer.control(REC_DONE, stime))
        self._reconciling = False
        self._duplicates_to_drop = 0
        self._stable_since_checkpoint = 0
        self._tentative_since_stable = 0
        return TupleBlock.concat(out)

    @property
    def is_reconciling(self) -> bool:
        return self._reconciling

    @property
    def last_stable_out_id(self) -> int:
        """Output-stream id of the last stable tuple forwarded downstream."""
        return self._last_stable_out_id

    # ------------------------------------------------------------------ data path
    def _make_undo(self, stime: float) -> TupleBlock:
        self._undo_pending = False
        self._tentative_since_stable = 0
        self.undos_emitted += 1
        return self.writer.control(UNDO, stime, self._last_stable_out_id)

    def _process_segment(self, port: int, segment: TupleBlock) -> list[TupleBlock]:
        """Forward a run and the boundary closing it as one relabeled block (one id take).

        Only with no redo duplicate left to drop and no UNDO pending, the
        output not downgraded and the boundary forwarded as it is; anything
        else takes the general path.
        """
        codes, stime = segment.codes, segment.stimes[-1]
        if (
            self._duplicates_to_drop
            or self._undo_pending
            or self.downgrade_to_tentative
            or codes[-1] != BOUNDARY
            or not self._forwards_boundary(stime)
        ):
            return super()._process_segment(port, segment)
        if TENTATIVE in codes:
            self._seen_tentative_input = True
        self._port_boundaries[0] = self._emitted_watermark = stime
        writer = self.writer
        writer.advance_boundary(stime)
        forwarded = segment.relabeled(writer.take(len(codes)))
        self._count_forwarded(codes, forwarded.ids, len(codes) - 1)
        return [forwarded]

    def _process_run(self, port: int, run: TupleBlock) -> list[TupleBlock]:
        """Forward a data run: one relabel, counters read off the type column.

        While reconciling, the stable duplicates the redo regenerates are cut
        out first and the pending UNDO precedes whatever is left.
        """
        codes = run.codes
        if self.downgrade_to_tentative:
            codes = bytes([TENTATIVE]) * len(codes)
        out = []
        if self._reconciling:
            if self._duplicates_to_drop and STABLE in codes:
                run = self._drop_duplicates(run)
                if not run:
                    return []
                codes = run.codes  # not downgraded: a downgraded run has no stable row
            if self._undo_pending:
                out.append(self._make_undo(run.stimes[0]))
        forwarded = run.relabeled(self.writer.take(len(codes)), codes)
        self._count_forwarded(codes, forwarded.ids, len(codes))
        out.append(forwarded)
        return out

    def _drop_duplicates(self, run: TupleBlock) -> TupleBlock:
        """``run`` without its first ``_duplicates_to_drop`` stable rows (the redo's repeats)."""
        codes = run.codes
        stable = codes.count(STABLE)
        drop = min(self._duplicates_to_drop, stable)
        self._duplicates_to_drop -= drop
        if drop == stable:
            cut = codes.rfind(STABLE) + 1
        elif stable == len(codes):
            cut = drop
        else:
            cut = -1
            for _ in range(drop):
                cut = codes.find(STABLE, cut + 1)
            cut += 1
        if codes.count(STABLE, 0, cut) == cut:
            return run[cut:]
        kept = [position for position in range(cut) if codes[position] != STABLE]
        return run.take(kept + list(range(cut, len(codes))))

    def _count_forwarded(self, codes: bytes, ids, rows: int) -> None:
        """Update the forwarding counters for the first ``rows`` rows (data) of ``codes``."""
        stable = codes.count(STABLE, 0, rows)
        if stable:
            last = codes.rfind(STABLE, 0, rows)
            self._last_stable_out_id = ids[last]
            self._stable_since_checkpoint += stable
            self._tentative_since_stable = rows - 1 - last
            self.stable_forwarded += stable
        else:
            self._tentative_since_stable += rows
        self.tentative_forwarded += rows - stable

    def _accept_boundary(self, port: int, stime: float, out: list[TupleBlock]) -> None:
        """Swallow punctuation while the fragment's output is downgraded.

        Tentative output carries no boundaries (Section 6): while the node is
        dirty, everything it forwards is tentative, and emitting a boundary
        would promise stability for stimes whose *stable* versions have not
        been sent yet -- they arrive later, as reconciliation corrections.  A
        downstream consumer that recorded such a boundary in its redo buffer
        would stabilize (and then late-drop) the corrections' stimes before
        their data is replayed.  The boundary is not even recorded locally:
        SOutput survives checkpoint restore, so its punctuation bookkeeping
        must stay at the position the corrections will regenerate from.
        """
        if not self.downgrade_to_tentative:
            super()._accept_boundary(port, stime, out)

    def reset_recovery_flags(self) -> None:
        """Clear transient failure-handling flags after a checkpoint adoption.

        These are deliberately *not* part of the checkpointed state (the
        partner captured while STABLE and clean), but the crashed node's own
        SOutput may still carry pre-crash downgrade/reconciliation markers.
        """
        self.downgrade_to_tentative = False
        self._reconciling = False
        self._duplicates_to_drop = 0
        self._undo_pending = False

    # ------------------------------------------------------------------ checkpointing
    def _checkpoint_state(self) -> dict:
        # SOutput is never restored by the engine, but its state is still
        # captured so that diagnostics and persistence see a complete picture.
        return {
            "last_stable_out_id": self._last_stable_out_id,
            "stable_since_checkpoint": self._stable_since_checkpoint,
            "tentative_since_stable": self._tentative_since_stable,
        }

    def _restore_state(self, state: Mapping[str, Any]) -> None:
        self._last_stable_out_id = int(state.get("last_stable_out_id", -1))
        self._stable_since_checkpoint = int(state.get("stable_since_checkpoint", 0))
        self._tentative_since_stable = int(state.get("tentative_since_stable", 0))
