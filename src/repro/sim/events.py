"""Event primitives for the discrete-event simulator."""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Callable

#: Callback signature: receives the simulation time at which the event fires.
EventCallback = Callable[[float], None]

_event_ids = itertools.count()


class EventKind(str, Enum):
    """Coarse classification used for tracing and statistics."""

    TIMER = "timer"
    MESSAGE = "message"
    FAILURE = "failure"
    RECOVERY = "recovery"
    SOURCE = "source"
    INTERNAL = "internal"


class Event:
    """One scheduled callback.

    The simulator queues ``(time, sequence, event)`` entries, so events
    scheduled for the same instant fire in scheduling order (which keeps runs
    deterministic) and the heap orders plain tuples, never events.
    """

    __slots__ = (
        "time", "sequence", "callback", "kind", "description", "cancelled", "fired", "counted"
    )

    def __init__(
        self,
        time: float,
        callback: EventCallback,
        kind: EventKind = EventKind.INTERNAL,
        description: str = "",
    ) -> None:
        self.time = time
        self.sequence = next(_event_ids)
        self.callback = callback
        self.kind = kind
        self.description = description
        self.cancelled = False
        self.fired = False
        #: True when Simulator.cancel counted this event toward heap compaction
        #: (distinguishes it from events cancelled directly via Event.cancel).
        self.counted = False

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when it comes due."""
        self.cancelled = True

    def fire(self) -> None:
        self.fired = True
        if not self.cancelled:
            self.callback(self.time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.3f} {self.kind.value} {self.description!r}{flag}>"
