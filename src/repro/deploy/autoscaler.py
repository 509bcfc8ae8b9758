"""Autoscaler: the policy loop that closes the elasticity control plane.

:class:`Autoscaler` is a periodic simulator task watching the per-shard
processing rate of a sharded :class:`~repro.deploy.Deployment` and driving
its :meth:`~repro.deploy.Deployment.scale_out` / :meth:`scale_in` entry
points from a watermark policy:

* when the mean rate per active shard exceeds ``high_watermark`` tuples per
  simulated second, enough shards are attached to bring the mean back under
  the watermark (bounded by ``max_shards``);
* when it falls below ``low_watermark``, the lowest-loaded shard is drained
  and decommissioned (bounded by ``min_shards``);
* every action starts a ``cooldown`` during which the loop only measures
  (reconfigurations need time to show in the rates), and ``plan_budget``
  bounds the total number of reconfigurations one run may issue.

The loop never acts while the deployment is handling a failure or while a
prior bucket handoff is still in flight -- elasticity yields to fault
tolerance, not the other way around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .deployment import Deployment


@dataclass(frozen=True)
class AutoscalePolicy:
    """Watermark policy of one autoscaler loop (rates in tuples/sim-second)."""

    period: float = 2.0
    high_watermark: float = 90.0
    low_watermark: float = 45.0
    min_shards: int = 2
    max_shards: int = 8
    cooldown: float = 6.0
    plan_budget: int = 8
    tolerance: float = 0.10

    def validate(self) -> None:
        if self.period <= 0:
            raise ConfigurationError("autoscale period must be positive")
        if self.low_watermark < 0 or self.high_watermark <= self.low_watermark:
            raise ConfigurationError(
                "autoscale watermarks need 0 <= low < high "
                f"(got low={self.low_watermark}, high={self.high_watermark})"
            )
        if self.min_shards < 1 or self.max_shards < self.min_shards:
            raise ConfigurationError(
                "autoscale shard bounds need 1 <= min_shards <= max_shards"
            )
        if self.cooldown < 0:
            raise ConfigurationError("autoscale cooldown cannot be negative")
        if self.plan_budget < 0:
            raise ConfigurationError("autoscale plan_budget cannot be negative")


class Autoscaler:
    """Periodic watermark loop driving a deployment's elastic entry points."""

    def __init__(self, deployment: "Deployment", policy: AutoscalePolicy) -> None:
        policy.validate()
        self.deployment = deployment
        self.policy = policy
        #: Scale decisions taken (and the measurements behind them).
        self.actions: list[dict] = []
        #: Ticks where a wanted action was skipped, with the reason.
        self.skipped: list[dict] = []
        self._last_counts: dict[str, int] = {}
        self._last_tick_at: float | None = None
        self._cooldown_until = float("-inf")
        self._plans_used = 0
        self._handle = None

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Arm the periodic policy tick on the deployment's simulator."""
        self._handle = self.deployment.simulator.schedule_periodic(self.policy.period, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # ------------------------------------------------------------------ measurement
    def _active_shard_names(self) -> list[str]:
        deployment = self.deployment
        names = deployment.placement.shard_fragments
        return [
            name
            for index, name in enumerate(names)
            if index not in deployment.decommissioned
        ]

    def shard_rates(self, now: float) -> dict[str, float]:
        """Per-shard processing rate since the previous tick (tuples/second).

        Measured as the delta of the first replica's engine counter.  Shards
        attached since the last tick have no baseline yet and are omitted --
        they enter the mean one period later, once a full window elapsed.
        """
        rates: dict[str, float] = {}
        elapsed = None if self._last_tick_at is None else now - self._last_tick_at
        counts: dict[str, int] = {}
        for name in self._active_shard_names():
            group = self.deployment.cluster.node_groups.get(name)
            if not group:
                continue
            counts[name] = group[0].engine.tuples_processed
            previous = self._last_counts.get(name)
            if previous is not None and elapsed and elapsed > 0:
                rates[name] = max(0.0, (counts[name] - previous) / elapsed)
        self._last_counts = counts
        self._last_tick_at = now
        return rates

    # ------------------------------------------------------------------ policy
    def _tick(self, now: float) -> None:
        deployment = self.deployment
        policy = self.policy
        rates = self.shard_rates(now)  # always refresh baselines, even when skipping
        if not rates:
            return
        if deployment.current_assignment is None:
            return
        active = deployment.active_shards()
        mean = sum(rates.values()) / active
        wants_out = mean > policy.high_watermark and active < policy.max_shards
        wants_in = mean < policy.low_watermark and active > policy.min_shards
        if not wants_out and not wants_in:
            return
        blocked = self._blocked(now)
        if blocked:
            self.skipped.append(
                {"at": now, "reason": blocked, "rate_per_shard": mean}
            )
            return
        if wants_out:
            total = sum(rates.values())
            needed = max(1, math.ceil(total / policy.high_watermark) - active)
            count = min(policy.max_shards - active, needed)
            record = deployment.scale_out(count=count, tolerance=policy.tolerance)
            self.actions.append(
                {
                    "at": now,
                    "action": "scale-out",
                    "count": count,
                    "shards": deployment.active_shards(),
                    "rate_per_shard": mean,
                }
            )
        else:
            victim = self._lowest_loaded_shard(rates)
            record = deployment.scale_in(victim, tolerance=policy.tolerance)
            self.actions.append(
                {
                    "at": now,
                    "action": "scale-in",
                    "retired": record["scale_in"]["retired"],
                    "shards": record["scale_in"]["shards"],
                    "rate_per_shard": mean,
                }
            )
        self._plans_used += 1
        self._cooldown_until = now + policy.cooldown
        # Reconfiguration shifts load between shards; drop the baselines so
        # the first post-action window is measured fresh.
        self._last_counts = {}

    def _blocked(self, now: float) -> str | None:
        if now < self._cooldown_until:
            return "cooldown"
        if self._plans_used >= self.policy.plan_budget:
            return "plan budget exhausted"
        return self.deployment.reconfiguration_blocker()

    def _lowest_loaded_shard(self, rates: dict[str, float]) -> int:
        names = self.deployment.placement.shard_fragments
        candidates = [
            (rates.get(name, 0.0), index)
            for index, name in enumerate(names)
            if index not in self.deployment.decommissioned
        ]
        return min(candidates)[1]

    # ------------------------------------------------------------------ reporting
    def summary(self) -> dict:
        return {
            "policy": {
                "period": self.policy.period,
                "high_watermark": self.policy.high_watermark,
                "low_watermark": self.policy.low_watermark,
                "min_shards": self.policy.min_shards,
                "max_shards": self.policy.max_shards,
                "cooldown": self.policy.cooldown,
                "plan_budget": self.policy.plan_budget,
            },
            "actions": self.actions,
            "skipped": len(self.skipped),
            "plans_used": self._plans_used,
        }
