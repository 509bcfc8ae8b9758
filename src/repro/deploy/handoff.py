"""The bucket handoff of a live reconfiguration, as one state machine.

:meth:`Deployment.apply <repro.deploy.Deployment.apply>` *cuts* a
:class:`~repro.sharding.RebalancePlan` over: every shard fragment's
subscription filter routes tuples serialized at or beyond the next bucket
boundary by the plan's new assignment.  The moved buckets' SJoin state still
sits at the old owners; a :class:`Handoff` carries it to the new ones:

* :attr:`Phase.DRAIN` -- the cut drains through the data path
  (:func:`drain_time`: one bucket plus transport slack).  At the drain's end
  the quiesce assumption is re-checked: while some replica is not cleanly
  STABLE, a crashed-and-recovered old owner could rebuild the shipped state
  from its subscription replay, so the drain is extended by one
  :func:`retry_interval` (the record's ``handoff_retries``).
* :attr:`Phase.TRANSFER` -- the moved buckets' state is extracted from every
  live old-owner replica and priced through
  :func:`~repro.statexfer.transfer_delay`; the merge waits out that simulated
  transfer.
* :attr:`Phase.DONE` -- the state is merged into every live new-owner
  replica, the record reads ``completed`` and a deferred scale-in
  :attr:`~Handoff.decommission` runs.

A crash landing mid-transfer -- an old or new owner left without a live
replica, or any replica not STABLE when the transfer ends -- aborts instead:
the extracted state is restored to the old owner's live replicas, the abort
is appended to the record's ``aborts`` and the handoff drains again for one
retry interval.  Without the abort the moved buckets' state would sit in
limbo, extracted from the old owner and never merged into the new one.

The handoff reports through its record, one of :attr:`Deployment.rebalances`
(a plain dict the caller may poll): each phase writes its keys as it runs.
"""

from __future__ import annotations

import warnings
from enum import Enum
from typing import TYPE_CHECKING

from ..sharding import RebalancePlan
from ..statexfer import extract_sjoin_state, merge_sjoin_state, transfer_delay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .deployment import Deployment

#: One old owner -> new owner shipment: (source shard, target shard, the
#: canonical state by bucket).
Transfer = tuple[int, int, dict[int, list]]


class Phase(str, Enum):
    """Where an in-flight handoff is."""

    DRAIN = "drain"
    TRANSFER = "transfer"
    DONE = "done"


def drain_time(config, sim_config, lead: float = 0.0) -> float:
    """Time for a cut ``lead`` seconds ahead of now to drain through the data
    path: one bucket, two batch intervals and two network hops after it."""
    return (
        lead
        + config.bucket_size
        + 2 * sim_config.batch_interval
        + 2 * sim_config.network_latency
    )


def retry_interval(config, sim_config) -> float:
    """How long a handoff drains again after a retry or an abort."""
    return max(config.bucket_size, sim_config.batch_interval)


class Handoff:
    """The moved buckets' state on its way from the old owners to the new ones."""

    def __init__(
        self, deployment: "Deployment", plan: RebalancePlan, record: dict, cut_stime: float
    ) -> None:
        self.deployment = deployment
        self.plan = plan
        self.record = record
        self.cut_stime = cut_stime
        #: Shard index a scale-in retires once the handoff is done.
        self.decommission: int | None = None
        self.phase = Phase.DRAIN
        self._transfers: list[Transfer] = []
        self._shipped = 0
        now = deployment.simulator.now
        settle = drain_time(deployment.config, deployment.sim_config, max(cut_stime - now, 0.0))
        record.update({"cut_stime": cut_stime, "state_handoff_at": now + settle, "completed": False})
        self._drain(settle)

    def defer_decommission(self, shard: int) -> None:
        self.decommission = shard
        self.record["decommission"] = shard

    # ------------------------------------------------------------------ phases
    def _drain(self, delay: float) -> None:
        """Enter DRAIN; the transfer starts ``delay`` seconds later."""
        self.phase = Phase.DRAIN
        self.deployment.simulator.schedule_in(delay, self._start_transfer)

    def _start_transfer(self, now: float) -> None:
        deployment = self.deployment
        if deployment.unstable_replicas():
            self.record["handoff_retries"] = self.record.get("handoff_retries", 0) + 1
            self._drain(retry_interval(deployment.config, deployment.sim_config))
            return
        self._extract()
        delay = transfer_delay(deployment.config, self._shipped)
        self.record["transfer_started_at"] = now
        self.record["transfer_delay"] = delay
        self.phase = Phase.TRANSFER
        deployment.simulator.schedule_in(delay, self._end_transfer)

    def _extract(self) -> None:
        """Take the moved buckets' state from every live old-owner replica.

        Replica counts may differ per node, so the first replica's copy is
        the canonical one merged into *every* target replica (index pairing
        would duplicate state into one target replica or leave another
        without it).  The extraction invalidates the source replicas'
        recovery checkpoints: one captured before it would resurrect the
        shipped buckets if a partner adopted it later.
        """
        spec = self.plan.before.spec
        moves_by_pair: dict[tuple[int, int], set[int]] = {}
        for move in self.plan.moves:
            moves_by_pair.setdefault((move.source, move.target), set()).add(move.bucket)
        self._transfers, self._shipped = [], 0
        for (source, target), buckets in sorted(moves_by_pair.items()):
            canonical: dict[int, list] = {}
            for index, node in enumerate(self.deployment.live_replicas(source)):
                extracted = extract_sjoin_state(node, spec, buckets, self.cut_stime)
                node.recovery.invalidate()
                if index == 0:
                    canonical = extracted
            self._transfers.append((source, target, canonical))
            self._shipped += sum(len(items) for items in canonical.values())

    def _end_transfer(self, now: float) -> None:
        """Merge into the new owners -- or abort if a crash landed."""
        deployment = self.deployment
        names = deployment.placement.shard_fragments
        crashed = [
            names[shard]
            for pair in self._transfers
            for shard in pair[:2]
            if not deployment.live_replicas(shard)
        ]
        unstable = deployment.unstable_replicas()
        if unstable or crashed:
            restored = 0
            for source, _target, canonical in self._transfers:
                self._merge(source, canonical)
                restored += sum(len(items) for items in canonical.values())
            reason = (
                f"target crashed mid-transfer: {sorted(set(crashed))}"
                if crashed
                else f"deployment unstable: {unstable}"
            )
            self.record.setdefault("aborts", []).append(
                {"at": now, "reason": reason, "restored_tuples": restored}
            )
            self._drain(retry_interval(deployment.config, deployment.sim_config))
            return
        trimmed = sum(self._merge(target, canonical) for _s, target, canonical in self._transfers)
        if trimmed:
            # Shipped-state tuples the bounded join windows dropped: surfaced
            # in the record and warned about instead of vanishing.
            warnings.warn(
                f"bucket handoff at t={self.record['applied_at']:.3f}: the target "
                f"join's bounded state window trimmed {trimmed} shipped "
                f"tuple(s) (oldest first)",
                RuntimeWarning,
                stacklevel=2,
            )
        self.record["state_tuples_trimmed"] = trimmed
        self.record["completed"] = True
        self.record["completed_at"] = now
        self.record["state_tuples_shipped"] = self._shipped
        self.phase = Phase.DONE
        self._transfers = []
        deployment.handoff_done(self)

    def _merge(self, shard: int, canonical: dict[int, list]) -> int:
        """Merge ``canonical`` into every live replica of ``shard``; the
        count of tuples their bounded join windows trimmed."""
        trimmed = 0
        for node in self.deployment.live_replicas(shard):
            trimmed += merge_sjoin_state(node, canonical)
            node.recovery.invalidate()
        return trimmed
