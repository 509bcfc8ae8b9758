"""Simulated network: reliable, in-order links with partitions and crashes.

The paper assumes replicas communicate over a reliable in-order protocol like
TCP (Section 2.2).  The :class:`Network` honors that assumption for every
message it *delivers*: messages between a pair of endpoints are delivered in
the order they were sent.  Failures are modelled the way they appear to DPC:

* a **network partition** between two endpoints silently discards messages in
  both directions until it heals (what a peer observes is missing heartbeats
  and missing data -- exactly what it would observe with a long TCP outage);
* a **crashed endpoint** receives nothing and sends nothing until it recovers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import NetworkError
from .event_loop import Simulator

#: Endpoint handlers receive (message, delivery_time).
MessageHandler = Callable[["Message", float], None]


class Message:
    """One message in flight between two endpoints (treated as immutable)."""

    __slots__ = ("sender", "receiver", "kind", "payload", "sent_at")

    def __init__(self, sender: str, receiver: str, kind: str, payload: Any, sent_at: float) -> None:
        self.sender = sender
        self.receiver = receiver
        self.kind = kind
        self.payload = payload
        self.sent_at = sent_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Message {self.sender}->{self.receiver}:{self.kind} sent_at={self.sent_at:.3f}>"


@dataclass
class NetworkStats:
    """Counters exposed for tests and overhead experiments."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    by_kind: dict = field(default_factory=dict)

    def record(self, kind: str, outcome: str) -> None:
        self.of_kind(kind)[outcome] += 1

    def of_kind(self, kind: str) -> dict:
        """The ``sent`` / ``delivered`` / ``dropped`` counts of one message kind."""
        counts = self.by_kind.get(kind)
        if counts is None:
            counts = self.by_kind[kind] = {"sent": 0, "delivered": 0, "dropped": 0}
        return counts


class Network:
    """Message fabric connecting every simulated component."""

    def __init__(self, simulator: Simulator, default_latency: float = 0.005) -> None:
        if default_latency < 0:
            raise NetworkError("latency cannot be negative")
        self.simulator = simulator
        self.default_latency = default_latency
        self._handlers: dict[str, MessageHandler] = {}
        self._link_latency: dict[tuple[str, str], float] = {}
        self._partitioned: set[frozenset[str]] = set()
        self._down: set[str] = set()
        self._last_delivery: dict[tuple[str, str], float] = {}
        self.stats = NetworkStats()

    # ------------------------------------------------------------------ topology
    def register(self, name: str, handler: MessageHandler) -> None:
        """Attach an endpoint; messages to ``name`` invoke ``handler``."""
        if name in self._handlers:
            raise NetworkError(f"endpoint {name!r} already registered")
        self._handlers[name] = handler

    def unregister(self, name: str) -> None:
        self._handlers.pop(name, None)

    def endpoints(self) -> list[str]:
        return sorted(self._handlers)

    def set_link_latency(self, sender: str, receiver: str, latency: float) -> None:
        """Override the latency of the directed link ``sender -> receiver``."""
        if latency < 0:
            raise NetworkError("latency cannot be negative")
        self._link_latency[(sender, receiver)] = latency

    def latency(self, sender: str, receiver: str) -> float:
        return self._link_latency.get((sender, receiver), self.default_latency)

    # ------------------------------------------------------------------ failures
    def partition(self, a: str, b: str) -> None:
        """Disconnect ``a`` and ``b`` in both directions."""
        self._partitioned.add(frozenset((a, b)))

    def heal_partition(self, a: str, b: str) -> None:
        self._partitioned.discard(frozenset((a, b)))

    def crash(self, name: str) -> None:
        """Take ``name`` down: it neither sends nor receives until recovery."""
        self._down.add(name)

    def recover(self, name: str) -> None:
        self._down.discard(name)

    def is_partitioned(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self._partitioned

    def is_down(self, name: str) -> bool:
        return name in self._down

    def can_communicate(self, sender: str, receiver: str) -> bool:
        """True when a message sent now from ``sender`` would reach ``receiver``."""
        if sender in self._down or receiver in self._down:
            return False
        partitioned = self._partitioned
        return not (partitioned and frozenset((sender, receiver)) in partitioned)

    # ------------------------------------------------------------------ messaging
    def send(self, sender: str, receiver: str, kind: str, payload: Any) -> bool:
        """Send a message; returns True when it was put on the wire.

        Messages to unknown endpoints raise; messages across a partition or
        involving a crashed endpoint are silently dropped (that is what the
        receiver observes), though they are counted in :attr:`stats`.
        """
        return bool(self.send_many(sender, (receiver,), kind, payload))

    def send_many(self, sender: str, receivers: Sequence[str], kind: str, payload: Any) -> list[str]:
        """Multicast ``payload`` to several receivers with coalesced delivery.

        All deliveries that come due at the same instant share a single
        scheduled event (the batched tuple transport: one event carries the
        payload to every receiver of that instant), while per-link FIFO order
        and per-receiver failure semantics are identical to point-to-point
        :meth:`send`.  Returns the receivers whose message was put on the
        wire (a receiver is missing from the result when it was unreachable
        at send time).
        """
        handlers = self._handlers
        for receiver in receivers:
            if receiver not in handlers:
                raise NetworkError(f"unknown endpoint {receiver!r}")
        if not receivers:
            return []
        now = self.simulator.now
        down, partitioned = self._down, self._partitioned
        link_latency, last_delivery = self._link_latency, self._last_delivery
        default_latency = self.default_latency
        on_the_wire: list[str] = []
        by_instant: dict[float, list[Message]] = {}
        for receiver in receivers:
            if (
                sender in down
                or receiver in down
                or (partitioned and frozenset((sender, receiver)) in partitioned)
            ):
                continue
            link = (sender, receiver)
            # Preserve per-link FIFO order even if latencies were reconfigured.
            deliver_at = now + link_latency.get(link, default_latency)
            last = last_delivery.get(link, 0.0)
            if last > deliver_at:
                deliver_at = last
            last_delivery[link] = deliver_at
            message = Message(sender, receiver, kind, payload, now)
            messages = by_instant.get(deliver_at)
            if messages is None:
                by_instant[deliver_at] = [message]
            else:
                messages.append(message)
            on_the_wire.append(receiver)
        stats = self.stats
        counts = stats.of_kind(kind)
        dropped = len(receivers) - len(on_the_wire)
        stats.sent += len(receivers)
        counts["sent"] += len(receivers)
        if dropped:
            stats.dropped += dropped
            counts["dropped"] += dropped
        for deliver_at, messages in by_instant.items():
            self.simulator.schedule_at(deliver_at, lambda t, batch=messages: self._deliver(batch, t))
        return on_the_wire

    def _deliver(self, messages: list[Message], now: float) -> None:
        # Every message of a delivery event comes from one send_many: one kind.
        counts = self.stats.of_kind(messages[0].kind)
        handlers, down = self._handlers, self._down
        for message in messages:
            # An endpoint may have crashed while the message was in flight; a
            # crash drops the message (the crashed node's state is wiped and
            # recovery resubscribes/replays, so delivering would be wrong).  A
            # partition that appeared mid-flight does NOT drop it: the message
            # was credited to the sender at send time, and on a reliable
            # in-order link a credited message is delivered -- dropping it
            # here would silently lose data that nothing ever replays.
            handler = handlers.get(message.receiver)
            if message.sender in down or message.receiver in down or handler is None:
                self.stats.dropped += 1
                counts["dropped"] += 1
                continue
            self.stats.delivered += 1
            counts["delivered"] += 1
            handler(message, now)
