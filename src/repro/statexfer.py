"""Unified state-transfer layer.

Every path that moves operator or node state between replicas goes through
this module, so the shipping logic exists exactly once:

* **Crash recovery** (checkpoint-shipped): a STABLE replica periodically
  captures a :class:`RecoveryCheckpoint` of its whole fragment -- operator
  states, input-stream cursors, and output buffers -- and a recovering
  partner adopts it, then replays only the short suffix past the
  checkpoint's cursors instead of the entire retained window
  (:meth:`repro.core.recovery.Recovery.rejoin`).
* **Rebalance bucket handoff**: live reconfiguration ships the moved
  buckets' SJoin tuples old owner -> new owner through
  :func:`extract_sjoin_state` / :func:`merge_sjoin_state`
  (:meth:`repro.deploy.Deployment.apply`).
* **Scale-out seeding**: attaching a new replica group to a running
  deployment seeds its input cursors from the same
  :class:`RecoveryCheckpoint` containers (:func:`seed_cursors`), so the
  fresh fragment subscribes from the donor's stable position instead of
  replaying the whole retained log
  (:meth:`repro.deploy.Deployment.scale_out`).
* **Checkpoint acknowledgments**: what a capture (or adoption) covers is
  acknowledged to every producer of the captured input cursors through
  :meth:`PeerRegistry.acknowledge`, which is what bounds output buffers and
  source logs by the checkpoint cadence instead of the run length.

Transfers are modelled as non-instantaneous: :func:`transfer_delay` prices a
checkpoint by its item count (``checkpoint_cost`` fixed part plus
``checkpoint_transfer_cost`` per state item), so shipping state genuinely
races the subscription replay it replaces.

The module deliberately imports only the SPE layer (checkpoint containers and
operators); the node and deploy layers import *it*, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import not_
from typing import TYPE_CHECKING, Any, Mapping

from .errors import CheckpointError
from .spe.checkpoint import OperatorCheckpoint
from .spe.operators import SJoin, SOutput, SUnion
from .spe.tuples import TupleBlock

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from .config import DPCConfig
    from .core.protocol import CheckpointAck
    from .core.node import ProcessingNode
    from .sim.sources import DataSource


# --------------------------------------------------------------------------- containers
@dataclass(frozen=True)
class StreamCursor:
    """Replayable position on one input stream at capture time.

    ``stable_received`` is the replica-independent stable count (used to
    resubscribe to upstream *nodes*); ``source_position`` is the last
    source-log tuple id processed (used to resubscribe to *data sources*,
    whose tuples carry no stable sequence numbers).
    """

    stable_received: int
    source_position: int


@dataclass(frozen=True)
class RecoveryCheckpoint:
    """Everything a recovering replica needs to rejoin from shipped state.

    Operator states are stored *positionally* (in the fragment's topological
    order): replica fragments are structurally identical but their operator
    names carry the replica's own name, so name-keyed restore would never
    match across replicas.
    """

    created_at: float
    owner: str
    operator_order: tuple[str, ...]
    operator_states: tuple[OperatorCheckpoint, ...]
    input_cursors: Mapping[str, StreamCursor]
    output_states: Mapping[str, Mapping[str, Any]]
    #: Number of shippable state items (buffered output tuples plus operator
    #: state entries); drives :func:`transfer_delay`.
    item_count: int


def transfer_delay(config: "DPCConfig", item_count: int) -> float:
    """Simulated seconds to ship a checkpoint of ``item_count`` state items."""
    return config.checkpoint_cost + item_count * config.checkpoint_transfer_cost


def _custom_items(state: Mapping[str, Any]) -> int:
    """Shippable item count of one operator's captured state (one level deep)."""
    custom = state.get("custom") or {}
    total = 0
    for value in custom.values():
        if isinstance(value, (list, tuple, set, dict, TupleBlock)):
            total += len(value)
    return total


# --------------------------------------------------------------------------- capture / adopt
def capture_checkpoint(node: "ProcessingNode", now: float) -> RecoveryCheckpoint:
    """Capture a recovery checkpoint of ``node``'s entire fragment.

    Side-effect free: uses :meth:`Operator.checkpoint_state` (which, unlike
    ``Operator.checkpoint``, does not install a per-operator undo point), so
    periodic capture cannot perturb the reconciliation machinery.
    """
    order = tuple(node.diagram.topological_order())
    states = tuple(
        OperatorCheckpoint.capture(name, node.diagram.operator(name).checkpoint_state())
        for name in order
    )
    cursors = {
        stream: StreamCursor(
            stable_received=monitor.stable_received,
            source_position=monitor.source_position,
        )
        for stream, monitor in node.cm.monitors.items()
    }
    outputs = {
        manager.stream: manager.snapshot_state() for manager in node.data_path.outputs()
    }
    item_count = sum(len(state["buffer"]) for state in outputs.values()) + sum(
        _custom_items(checkpoint.state) for checkpoint in states
    )
    return RecoveryCheckpoint(
        created_at=now,
        owner=node.endpoint,
        operator_order=order,
        operator_states=states,
        input_cursors=cursors,
        output_states=outputs,
        item_count=item_count,
    )


def adopt_checkpoint(node: "ProcessingNode", checkpoint: RecoveryCheckpoint, now: float) -> None:
    """Reinitialize ``node`` from a partner replica's recovery checkpoint.

    Operators are restored positionally (see :class:`RecoveryCheckpoint`),
    including SOutputs: unlike checkpoint/redo reconciliation -- where the
    physical output stream must survive the rollback -- a recovering replica
    has no downstream continuity to preserve, so its whole output identity
    is adopted from the partner.  Transient failure-handling flags are then
    normalized: the partner captured while STABLE and clean, but the crashed
    node's operators may still carry pre-crash hold/downgrade state.
    """
    local_order = node.diagram.topological_order()
    if len(local_order) != len(checkpoint.operator_states):
        raise CheckpointError(
            f"recovery checkpoint of {checkpoint.owner!r} has "
            f"{len(checkpoint.operator_states)} operator states but the fragment "
            f"of {node.endpoint!r} has {len(local_order)} operators"
        )
    for name, partner_state in zip(local_order, checkpoint.operator_states):
        operator = node.diagram.operator(name)
        operator.restore(OperatorCheckpoint(operator_name=name, state=partner_state.state))
        if isinstance(operator, SOutput):
            operator.reset_recovery_flags()
        elif isinstance(operator, SUnion):
            operator.hold_buckets = False
    for stream, cursor in checkpoint.input_cursors.items():
        monitor = node.cm.monitors.get(stream)
        if monitor is None:
            continue
        monitor.stable_received = cursor.stable_received
        monitor.source_position = cursor.source_position
        monitor.clear_stable_buffer()
        monitor.tentative_since_stable = 0
        monitor.last_boundary_arrival = now
    for stream, state in checkpoint.output_states.items():
        node.data_path.output(stream).restore_state(state)


def seed_cursors(node: "ProcessingNode", checkpoint: RecoveryCheckpoint, now: float) -> None:
    """Seed a freshly attached node's input cursors from a donor's checkpoint.

    Scale-out's half of the adoption path: the new fragment has no state or
    downstream continuity to restore, it only needs to *subscribe from the
    donor's stable position* instead of replaying the whole retained log.
    Only streams the node actually consumes are touched; the boundary clock
    starts now so the startup grace applies from attach time.
    """
    for stream, cursor in checkpoint.input_cursors.items():
        monitor = node.cm.monitors.get(stream)
        if monitor is None:
            continue
        monitor.stable_received = cursor.stable_received
        monitor.source_position = cursor.source_position
        monitor.last_boundary_arrival = now


# --------------------------------------------------------------------------- peer discovery
class PeerRegistry:
    """Zero-message lookup of the live peers a transfer can involve.

    The deploy layer registers every node replica and every data source of a
    deployment; a recovering node uses the registry to *discover* whether a
    partner holds a usable checkpoint (and to price the replay suffix)
    without spending simulated network events on discovery.  The transfer
    itself still travels as messages with a size-proportional delay.  It is
    also the seam checkpoint acknowledgments travel through: a direct call
    here (zero simulated messages), a wire message on the live backend.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, "ProcessingNode"] = {}
        self._sources: dict[str, "DataSource"] = {}  # by stream

    def register_node(self, node: "ProcessingNode") -> None:
        self._nodes[node.endpoint] = node

    def unregister_node(self, endpoint: str) -> None:
        """Forget a decommissioned replica (scale-in retires its fragment)."""
        self._nodes.pop(endpoint, None)

    def register_source(self, source: "DataSource") -> None:
        self._sources[source.stream] = source

    def node_of(self, endpoint: str) -> "ProcessingNode | None":
        return self._nodes.get(endpoint)

    def source_of(self, stream: str) -> "DataSource | None":
        return self._sources.get(stream)

    def acknowledge(self, producer: str, ack: "CheckpointAck") -> None:
        """Deliver ``ack`` to the node replica or data source named ``producer``.

        Producers the registry does not know (decommissioned, hand-wired) are
        skipped: an acknowledgment only ever permits dropping data.
        """
        peer = self._nodes.get(producer) or self._sources.get(ack.stream)
        if peer is not None:
            peer.on_checkpoint_ack(ack)


# --------------------------------------------------------------------------- SJoin bucket handoff
def extract_sjoin_state(
    node: "ProcessingNode", spec, buckets: set[int], cut_stime: float
) -> dict[int, TupleBlock]:
    """Remove and return the moved buckets' tuples from each SJoin of ``node``.

    Keyed by the join's position within the fragment (replica names differ,
    positions align across replicas of one logical node).
    """
    extracted: dict[int, TupleBlock] = {}
    joins = [op for op in node.diagram if isinstance(op, SJoin)]
    for position, join in enumerate(joins):
        state = join.checkpoint().state_copy()
        held = TupleBlock.of(state["custom"].get("state", ()))
        routes = zip(held.stimes, spec.route(held))
        owned = [stime < cut_stime and bucket in buckets for stime, bucket in routes]
        moved = held.take(list(compress(range(len(owned)), owned)))
        extracted[position] = moved
        if moved:
            state["custom"]["state"] = held.take(list(compress(range(len(owned)), map(not_, owned))))
            join.restore(OperatorCheckpoint.capture(join.name, state))
    return extracted


def merge_sjoin_state(node: "ProcessingNode", canonical: dict[int, TupleBlock]) -> int:
    """Merge the canonical moved-bucket tuples into each SJoin of ``node``.

    Returns the number of merged tuples the join's bounded state window
    trimmed away (oldest first).  Callers surface the count -- silent
    truncation of shipped bucket state is otherwise invisible.
    """
    joins = [op for op in node.diagram if isinstance(op, SJoin)]
    trimmed = 0
    for position, join in enumerate(joins):
        moved = canonical.get(position, [])
        if not moved:
            continue
        state = join.checkpoint().state_copy()
        held = TupleBlock.concat((state["custom"].get("state", ()), moved))
        ranks = [
            (stime, tuple_id if seq is None else seq)
            for stime, seq, tuple_id in zip(held.stimes, held.column("seq"), held.ids)
        ]
        merged = held.take(sorted(range(len(ranks)), key=ranks.__getitem__))
        if len(merged) > join.state_size:
            trimmed += len(merged) - join.state_size
            merged = merged[len(merged) - join.state_size:]
        state["custom"]["state"] = merged
        join.restore(OperatorCheckpoint.capture(join.name, state))
    return trimmed
