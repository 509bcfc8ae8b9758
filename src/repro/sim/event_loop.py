"""Deterministic discrete-event simulator.

The paper evaluates DPC on a cluster of real machines; this reproduction
substitutes a virtual-time simulator (see DESIGN.md, Substitutions).  The
simulator owns a priority queue of ``(time, sequence, event)`` entries (plain
tuples, so the heap compares in C; see :class:`~repro.sim.events.Event`)
and advances a virtual clock from event to event.  All protocol components --
nodes, data sources, clients, the failure injector -- schedule their work
through it, so a whole distributed scenario is a single-threaded, perfectly
reproducible program.
"""

from __future__ import annotations

import heapq

from ..errors import SimulationError
from .events import Event, EventCallback


class PeriodicHandle:
    """Handle for a periodic event chain; cancelling it stops the chain."""

    def __init__(self) -> None:
        self._current: Event | None = None
        self.cancelled = False

    def cancel(self) -> None:
        """Stop the chain.  The pending occurrence stays queued, marked
        cancelled, and leaves the heap within one period."""
        self.cancelled = True
        self._current.cancel()


class Simulator:
    """Virtual clock plus event queue."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._queue: list[tuple[float, int, Event]] = []
        self._running = False
        #: Number of callbacks executed so far (cancelled events not counted).
        self.events_fired = 0

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current simulation time in (virtual) seconds."""
        return self._now

    # ------------------------------------------------------------------ scheduling
    def schedule_at(self, time: float, callback: EventCallback) -> Event:
        """Schedule ``callback`` to fire at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f}, current time is {self._now:.6f}"
            )
        event = Event(time, callback)
        heapq.heappush(self._queue, (time, event.sequence, event))
        return event

    def schedule_in(self, delay: float, callback: EventCallback) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_periodic(self, period: float, callback: EventCallback) -> PeriodicHandle:
        """Schedule ``callback`` every ``period`` seconds, first one period from now.

        The chain re-arms after the callback runs, so a callback cancelling
        the returned :class:`PeriodicHandle` stops it at once.
        """
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        handle = PeriodicHandle()

        def wrapper(now: float) -> None:
            callback(now)
            if not handle.cancelled:
                handle._current = self.schedule_at(now + period, wrapper)

        handle._current = self.schedule_in(period, wrapper)
        return handle

    # ------------------------------------------------------------------ running
    def run_until(self, end_time: float) -> float:
        """Run events until the queue is empty or the clock reaches ``end_time``.

        Returns the simulation time at which execution stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        try:
            while self._queue:
                if self._queue[0][0] > end_time:
                    break
                event = heapq.heappop(self._queue)[2]
                if event.cancelled:
                    continue
                self._now = time = event.time
                event.callback(time)
                self.events_fired += 1
            self._now = max(self._now, end_time)
        finally:
            self._running = False
        return self._now

    def run_for(self, duration: float) -> float:
        """Run for ``duration`` simulated seconds from the current time."""
        return self.run_until(self._now + duration)

    @property
    def pending_events(self) -> int:
        """Number of events still queued and not cancelled."""
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self._now:.3f} pending={self.pending_events}>"
