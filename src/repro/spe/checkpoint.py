"""Checkpoint containers.

DPC reconciles node state with *checkpoint/redo* (Section 4.4.1): when a node
enters UP_FAILURE it snapshots the state of its query-diagram fragment before
processing any tentative tuple; during STABILIZATION it restores that snapshot
and reprocesses the stable input buffered since.  The containers here are thin
but give checkpoints an identity (id + creation time) and verify on restore
that they are applied to the diagram they came from.

Operator state is opaque plain data supplied by ``_checkpoint_state``.  Since
the pane-based Aggregate rewrite, windowed aggregates contribute per-(pane,
group) accumulator snapshots -- O(groups x panes) scalars -- rather than the
raw value buffers they used to hold, which shrinks both crash-recovery
checkpoints and the state containers live rebalance ships between shards.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping

_checkpoint_ids = itertools.count()


@dataclass(frozen=True)
class OperatorCheckpoint:
    """Deep-copied state of a single operator."""

    operator_name: str
    state: Mapping[str, Any]

    @classmethod
    def capture(cls, operator_name: str, state: Mapping[str, Any]) -> "OperatorCheckpoint":
        return cls(operator_name=operator_name, state=copy.deepcopy(dict(state)))

    def state_copy(self) -> dict:
        """A fresh deep copy, safe for the operator to mutate after restore."""
        return copy.deepcopy(dict(self.state))


@dataclass(frozen=True)
class DiagramCheckpoint:
    """Snapshot of every operator (and queue) in a diagram fragment."""

    checkpoint_id: int
    created_at: float
    operators: Mapping[str, OperatorCheckpoint]
    extra: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def capture(
        cls,
        created_at: float,
        operators: Mapping[str, OperatorCheckpoint],
        extra: Mapping[str, Any] | None = None,
    ) -> "DiagramCheckpoint":
        """Collect already-captured operator checkpoints (each one is its own
        deep copy, and every reader goes through ``state_copy()``)."""
        return cls(
            checkpoint_id=next(_checkpoint_ids),
            created_at=created_at,
            operators=dict(operators),
            extra=copy.deepcopy(dict(extra or {})),
        )

    def matches(self, operator_names: set[str]) -> bool:
        """True when this checkpoint covers exactly ``operator_names``."""
        return set(self.operators) == set(operator_names)
