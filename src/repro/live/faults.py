"""Deterministic wire-level fault injection for the live backend.

The simulator injects failures by editing an oracle (``Network.partition``,
``crash``); the live backend has no oracle, only sockets.  This module closes
that gap with a :class:`FaultPlan`: a frozen, seeded schedule of per-link
rules that ``live/transport.py`` enforces on every outbound frame.

:class:`WireFaults` is the enforcement: one per transport, it consumes the
plan's decisions for that transport's outbound frames and keeps the account
of every fault injected.

Two properties make the plan a *reproducible experiment* rather than chaos:

* **Deterministic decisions.**  Probabilistic rules (drop/duplicate/reorder)
  never consult a wall-clock RNG.  Each decision is a pure function of
  ``(plan seed, rule index, link, attempt counter)`` hashed through CRC-32 --
  the same pattern :func:`repro.sharding.stable_key_hash` uses for routing --
  so the same plan produces the same injected-fault trace on every run.
* **Shared vocabulary.**  :func:`compile_failures` maps the *same*
  :class:`~repro.workloads.scenarios.FailureSpec` schedule the simulator
  consumes (``ScenarioSpec.with_failure``/``with_branch_crash``) onto link
  rules + SIGKILL directives, so one spec drives both backends and the sim
  remains the consistency oracle for the live run.

Window rules (disconnect/partition) are *credit-denying*: the transport
refuses to credit delivery for a blocked receiver, which holds source cursors
and node output buffers exactly like the simulator's crashed-endpoint path,
giving replay-on-heal for free.  Wire rules (drop/delay/duplicate/reorder/
throttle) exercise the hardened transport underneath DPC: drops consume
bounded retries, duplicates are shed by receiver-side sequence numbers,
reorder happens before sequence stamping so FIFO delivery is restored at the
receiver, and delay/throttle only stretch wall time.
"""

from __future__ import annotations

import asyncio
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence
from zlib import crc32

from ..errors import ConfigurationError
from ..sim.failures import FailureType
from ..workloads.scenarios import FailureSpec, resolve_failures

if TYPE_CHECKING:  # pragma: no cover - import cycle (supervisor imports us)
    from ..deploy.placement import Placement
    from .supervisor import LiveKill

# Fault kinds.  The two *window* kinds reuse the simulator's FailureType
# values so a fault trace and a sim FailureRecord speak the same vocabulary;
# the *wire* kinds have no sim counterpart (the sim's network is ideal).
DISCONNECT = FailureType.STREAM_DISCONNECT.value
PARTITION = FailureType.PARTITION.value
DROP = "drop"
DELAY = "delay"
DUPLICATE = "duplicate"
REORDER = "reorder"
THROTTLE = "throttle"

WINDOW_KINDS = frozenset({DISCONNECT, PARTITION})
WIRE_KINDS = frozenset({DROP, DELAY, DUPLICATE, REORDER, THROTTLE})

#: Denominator turning a CRC-32 into a uniform [0, 1) decision.
_HASH_SPACE = float(1 << 32)

#: Cap on the retained injected-fault event list (counts are unbounded).
_MAX_FAULT_EVENTS = 4000


@dataclass(frozen=True)
class LinkRule:
    """One fault rule over a (sender endpoint, receiver endpoint) link.

    ``sender``/``receiver`` name endpoints (``"*"`` matches any).  Window
    kinds block the link for ``[start, end)``; wire kinds apply per frame
    with ``probability`` while active.  ``bidirectional`` also matches the
    reversed direction (full partitions; one-way rules leave it False).
    """

    kind: str
    sender: str = "*"
    receiver: str = "*"
    start: float = 0.0
    end: float = math.inf
    bidirectional: bool = False
    #: Per-frame activation chance for wire kinds (window kinds ignore it).
    probability: float = 1.0
    #: Fixed extra latency (DELAY) in seconds.
    delay: float = 0.0
    #: Extra uniform-[0, jitter) latency, drawn from the decision hash.
    jitter: float = 0.0
    #: Minimum spacing between frames (THROTTLE), seconds/frame.
    min_interval: float = 0.0

    def matches(self, sender: str, receiver: str) -> bool:
        if self._matches_one_way(sender, receiver):
            return True
        return self.bidirectional and self._matches_one_way(receiver, sender)

    def _matches_one_way(self, sender: str, receiver: str) -> bool:
        return self.sender in ("*", sender) and self.receiver in ("*", receiver)

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def validate(self) -> None:
        if self.kind not in WINDOW_KINDS | WIRE_KINDS:
            raise ConfigurationError(f"unknown fault kind {self.kind!r}")
        if not self.end > self.start:
            raise ConfigurationError(
                f"fault rule {self.kind!r} window [{self.start:g}, {self.end:g}) is empty"
            )
        if self.start < 0:
            raise ConfigurationError(f"fault rule {self.kind!r} starts before t=0")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault rule {self.kind!r} probability {self.probability!r} not in [0, 1]"
            )
        if self.delay < 0 or self.jitter < 0 or self.min_interval < 0:
            raise ConfigurationError(
                f"fault rule {self.kind!r} has a negative delay/jitter/interval"
            )

    def describe(self) -> dict:
        data = {
            "kind": self.kind,
            "link": f"{self.sender}->{self.receiver}",
            "start": self.start,
            "end": None if math.isinf(self.end) else self.end,
        }
        if self.bidirectional:
            data["bidirectional"] = True
        if self.kind in WIRE_KINDS:
            data["probability"] = self.probability
        if self.kind == DELAY:
            data["delay"] = self.delay
            data["jitter"] = self.jitter
        if self.kind == THROTTLE:
            data["min_interval"] = self.min_interval
        return data


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable schedule of link faults for one live run."""

    seed: int = 0
    rules: tuple[LinkRule, ...] = ()

    def validate(self) -> None:
        for rule in self.rules:
            rule.validate()

    @property
    def is_empty(self) -> bool:
        return not self.rules

    # ------------------------------------------------------------------ queries
    def blocked(self, sender: str, receiver: str, now: float) -> LinkRule | None:
        """The first window rule blocking ``sender -> receiver`` at ``now``."""
        for rule in self.rules:
            if rule.kind in WINDOW_KINDS and rule.active(now) and rule.matches(sender, receiver):
                return rule
        return None

    def blocked_worker(
        self, sender_endpoints: Iterable[str], receiver_endpoints: Iterable[str], now: float
    ) -> bool:
        """True when *every* endpoint pair between two workers is blocked.

        Used for heartbeat frames (which travel worker-to-worker, not
        endpoint-to-endpoint): a partition isolating all of a worker's
        endpoints silences its heartbeats, while a single-stream disconnect
        through a multi-endpoint worker does not.
        """
        receivers = list(receiver_endpoints)
        pairs = [(s, r) for s in sender_endpoints for r in receivers]
        if not pairs:
            return False
        return all(self.blocked(s, r, now) is not None for s, r in pairs)

    def wire_rules(self, sender: str, receiver: str, now: float) -> tuple[LinkRule, ...]:
        """Active wire-fault rules for one frame on ``sender -> receiver``."""
        return tuple(
            rule
            for rule in self.rules
            if rule.kind in WIRE_KINDS and rule.active(now) and rule.matches(sender, receiver)
        )

    def decision(self, rule: LinkRule, link: str, counter: int) -> float:
        """Uniform [0, 1) decision: pure function of (seed, rule, link, counter)."""
        try:
            index = self.rules.index(rule)
        except ValueError:  # pragma: no cover - foreign rule; still deterministic
            index = -1
        token = f"{self.seed}|{index}|{rule.kind}|{link}|{counter}"
        return crc32(token.encode("utf-8")) / _HASH_SPACE

    def horizon(self) -> float:
        """Latest finite window end (0.0 when the plan has no finite windows)."""
        ends = [r.end for r in self.rules if not math.isinf(r.end)]
        return max(ends, default=0.0)

    def describe(self) -> list[dict]:
        """A stable, JSON-able digest (the determinism test compares these)."""
        return [rule.describe() for rule in self.rules]


class WireFaults:
    """One transport's enforcement of a :class:`FaultPlan` and its fault account.

    A decision draws the next counter of its fault kind; the counters are
    shared by all of the transport's links, so the injected faults are a
    pure function of the plan and the order the frames depart in.  With an
    empty plan (``active`` False) the link consults nothing but that flag.
    """

    def __init__(self, plan: FaultPlan, clock) -> None:
        plan.validate()
        self.plan = plan
        self.clock = clock
        self.active = not plan.is_empty
        self.injected: Counter = Counter()
        #: ``{"at", "kind", "sender", "receiver"}`` per injection, capped.
        self.events: list[dict] = []
        self.events_dropped = 0
        self._counters: Counter = Counter()

    def denies(self, sender: str, receiver: str, now: float) -> bool:
        """Whether a window rule denies delivery credit on ``sender -> receiver``
        at ``now`` (recorded if so)."""
        rule = self.plan.blocked(sender, receiver, now)
        if rule is not None:
            self.record(rule.kind, sender, receiver)
        return rule is not None

    def rules(self, sender: str, receiver: str) -> tuple[LinkRule, ...]:
        """The wire rules active on ``sender -> receiver`` now."""
        return self.plan.wire_rules(sender, receiver, self.clock.now)

    def fires(self, kind: str, rules: Sequence[LinkRule], sender: str, receiver: str) -> bool:
        """Whether one of ``rules`` of ``kind`` fires on this frame (recorded if so).

        Reorder is decided before the frame is stamped, drop once per write
        attempt and duplicate after the write.
        """
        link = f"{sender}>{receiver}"
        for rule in rules:
            if rule.kind == kind and self._draw(rule, link) < rule.probability:
                self.record(kind, sender, receiver)
                return True
        return False

    async def stretch(
        self, rules: Sequence[LinkRule], sender: str, receiver: str, last_write: float
    ) -> None:
        """Injected latency, then throttling against the link's ``last_write``
        (loop time): both only stretch wall time before the frame departs."""
        link = f"{sender}>{receiver}"
        for rule in rules:
            if rule.kind == DELAY:
                if self._draw(rule, link) < rule.probability:
                    extra = rule.delay + rule.jitter * self._draw(rule, link)
                    self.record(DELAY, sender, receiver)
                    await asyncio.sleep(extra)
            elif rule.kind == THROTTLE and rule.min_interval > 0:
                wait = last_write + rule.min_interval - asyncio.get_running_loop().time()
                if wait > 0:
                    self.record(THROTTLE, sender, receiver)
                    await asyncio.sleep(wait)

    def record(self, kind: str, sender: str, receiver: str) -> None:
        self.injected[kind] += 1
        if len(self.events) < _MAX_FAULT_EVENTS:
            self.events.append(
                {"at": self.clock.now, "kind": kind, "sender": sender, "receiver": receiver}
            )
        else:
            self.events_dropped += 1

    def _draw(self, rule: LinkRule, link: str) -> float:
        counter = self._counters[rule.kind]
        self._counters[rule.kind] = counter + 1
        return self.plan.decision(rule, link, counter)


def backoff_delay(
    attempt: int,
    *,
    base: float = 0.05,
    cap: float = 2.0,
    seed: int = 0,
    link: str = "",
) -> float:
    """Capped exponential backoff with seeded, deterministic jitter.

    ``attempt`` counts from 0.  The jitter factor is drawn from the same
    CRC-32 hash space as fault decisions -- in [0.5, 1.0) of the capped
    exponential -- so reconnect timing is reproducible for a given seed
    while still de-synchronising concurrent links.
    """
    if attempt < 0:
        attempt = 0
    raw = min(cap, base * (2.0**attempt))
    token = f"backoff|{seed}|{link}|{attempt}"
    factor = 0.5 + crc32(token.encode("utf-8")) / _HASH_SPACE / 2.0
    return raw * factor


# ---------------------------------------------------------------------- compile
def compile_failures(
    placement: "Placement",
    failures: Sequence[FailureSpec],
    *,
    seed: int = 0,
) -> "tuple[FaultPlan, tuple[LiveKill, ...]]":
    """Map a sim failure schedule onto (link rules, SIGKILL directives).

    The schedule is resolved by the same
    :func:`~repro.workloads.scenarios.resolve_failures` walk the simulator's
    ``FailureInjector.inject`` consumes; each resolved action compiles to its
    live equivalent:

    * ``disconnect`` -- a one-way window rule from the source endpoint to the
      consumer replica (the sim severs exactly this subscription);
    * ``partition`` -- a bidirectional window rule isolating the replica
      endpoint from every other endpoint;
    * ``crash`` -- a :class:`~repro.live.supervisor.LiveKill` of the replica
      (real SIGKILL + respawn);
    * ``silence`` -- rejected: boundary silence mutes a *simulated* node's
      boundary timer, which has no wire-level analogue.
    """
    from .supervisor import LiveKill

    rules: list[LinkRule] = []
    kills: list[LiveKill] = []
    for action in resolve_failures(placement, failures):
        end = action.start + action.duration
        if action.kind == "disconnect":
            rules.append(LinkRule(kind=DISCONNECT, sender=action.source,
                                  receiver=action.endpoint, start=action.start, end=end))
        elif action.kind == "partition":
            rules.append(LinkRule(kind=PARTITION, sender=action.endpoint, receiver="*",
                                  start=action.start, end=end, bidirectional=True))
        elif action.kind == "crash":
            kills.append(LiveKill(node=action.node, replica=action.replica,
                                  at=action.start, downtime=action.duration))
        else:
            raise ConfigurationError(
                "failure kind 'silence' is simulator-only (it mutes a simulated "
                "boundary timer); the live backend injects crash (SIGKILL), "
                "disconnect, and partition failures"
            )
    return FaultPlan(seed=seed, rules=tuple(rules)), tuple(kills)


# ---------------------------------------------------------------------- chaos
def chaos_plan(
    seed: int,
    *,
    start: float = 0.0,
    end: float = math.inf,
    drop: float = 0.03,
    delay: float = 0.01,
    jitter: float = 0.01,
    duplicate: float = 0.02,
    reorder: float = 0.03,
    links: Sequence[tuple[str, str]] = (("*", "*"),),
) -> FaultPlan:
    """A seed-deterministic wire-chaos plan for soak tests.

    Pure function of its arguments: the per-link intensities are drawn from
    ``random.Random(seed)`` over the *sorted* link list, and every runtime
    decision then flows through :meth:`FaultPlan.decision`.  No window rules
    are emitted -- chaos stresses the hardened transport, not DPC's failure
    handling -- so a chaos run must stay failure-free at the protocol level.
    """
    rng = random.Random(seed)
    rules: list[LinkRule] = []
    for sender, receiver in sorted(links):
        scale = 0.5 + rng.random()  # [0.5, 1.5): vary intensity per link + seed
        rules.append(LinkRule(kind=DROP, sender=sender, receiver=receiver,
                              start=start, end=end, probability=min(1.0, drop * scale)))
        rules.append(LinkRule(kind=DELAY, sender=sender, receiver=receiver,
                              start=start, end=end, probability=0.5,
                              delay=delay * scale, jitter=jitter))
        rules.append(LinkRule(kind=DUPLICATE, sender=sender, receiver=receiver,
                              start=start, end=end, probability=min(1.0, duplicate * scale)))
        rules.append(LinkRule(kind=REORDER, sender=sender, receiver=receiver,
                              start=start, end=end, probability=min(1.0, reorder * scale)))
    return FaultPlan(seed=seed, rules=tuple(rules))
