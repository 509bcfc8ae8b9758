"""Event primitives for the discrete-event simulator."""

from __future__ import annotations

import itertools
from typing import Callable

#: Callback signature: receives the simulation time at which the event fires.
EventCallback = Callable[[float], None]

_event_ids = itertools.count()


class Event:
    """One scheduled callback.

    The simulator queues ``(time, sequence, event)`` entries, so events
    scheduled for the same instant fire in scheduling order (which keeps runs
    deterministic) and the heap orders plain tuples, never events.
    """

    __slots__ = ("time", "sequence", "callback", "cancelled")

    def __init__(self, time: float, callback: EventCallback) -> None:
        self.time = time
        self.sequence = next(_event_ids)
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when it comes due."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.3f} {self.callback!r}{flag}>"
