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
from typing import Callable

from ..errors import SimulationError
from .events import Event, EventCallback, EventKind


class PeriodicHandle:
    """Handle for a periodic event chain; cancelling it stops the chain."""

    def __init__(self, simulator: "Simulator") -> None:
        self._simulator = simulator
        self._current: Event | None = None
        self.cancelled = False

    def _advance(self, event: Event) -> None:
        self._current = event

    def cancel(self) -> None:
        """Stop the chain; the pending occurrence is removed from the queue."""
        self.cancelled = True
        if self._current is not None:
            self._simulator.cancel(self._current)
            self._current = None


class Simulator:
    """Virtual clock plus event queue."""

    #: Compact the heap when more than this many cancelled events linger and
    #: they outnumber the live ones (keeps cancellation amortized O(log n)).
    _COMPACT_THRESHOLD = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._queue: list[tuple[float, int, Event]] = []
        self._running = False
        self._cancelled_pending = 0
        #: Number of events executed so far (for diagnostics and tests).
        self.events_fired = 0

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current simulation time in (virtual) seconds."""
        return self._now

    # ------------------------------------------------------------------ scheduling
    def schedule_at(
        self,
        time: float,
        callback: EventCallback,
        kind: EventKind = EventKind.INTERNAL,
        description: str = "",
    ) -> Event:
        """Schedule ``callback`` to fire at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f}, current time is {self._now:.6f}"
            )
        event = Event(time, callback, kind, description)
        heapq.heappush(self._queue, (time, event.sequence, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (lazy heap deletion, amortized O(log n)).

        The event is marked and skipped when it comes due; when cancelled
        events accumulate, the queue is compacted so that failure-injection
        and timer-reset paths never leave the heap full of dead entries.
        """
        if event.cancelled or event.fired:
            return  # already skipped, or already executed and left the queue
        event.cancel()
        event.counted = True
        self._cancelled_pending += 1
        if (
            self._cancelled_pending > self._COMPACT_THRESHOLD
            and self._cancelled_pending * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0

    def schedule_in(
        self,
        delay: float,
        callback: EventCallback,
        kind: EventKind = EventKind.INTERNAL,
        description: str = "",
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, kind, description)

    def schedule_periodic(
        self,
        period: float,
        callback: EventCallback,
        kind: EventKind = EventKind.TIMER,
        description: str = "",
        start_delay: float | None = None,
        stop_condition: Callable[[], bool] | None = None,
    ) -> PeriodicHandle:
        """Schedule ``callback`` every ``period`` seconds until ``stop_condition``.

        Returns a :class:`PeriodicHandle`; cancelling it removes the pending
        occurrence from the queue and stops the chain.
        """
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        first_delay = period if start_delay is None else start_delay
        handle = PeriodicHandle(self)

        def wrapper(now: float) -> None:
            if handle.cancelled:
                return
            if stop_condition is not None and stop_condition():
                return
            callback(now)
            if not handle.cancelled:
                handle._advance(self.schedule_at(now + period, wrapper, kind, description))

        handle._advance(self.schedule_in(first_delay, wrapper, kind, description))
        return handle

    # ------------------------------------------------------------------ running
    def run_until(self, end_time: float, max_events: int | None = None) -> float:
        """Run events until the queue is empty or the clock reaches ``end_time``.

        Returns the simulation time at which execution stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        fired = 0
        try:
            while self._queue:
                if self._queue[0][0] > end_time:
                    break
                event = heapq.heappop(self._queue)[2]
                if event.cancelled:
                    if event.counted:
                        self._cancelled_pending -= 1
                    continue
                self._now = time = event.time
                event.fired = True  # Event.fire, inlined: one call less per event
                event.callback(time)
                self.events_fired += 1
                fired += 1
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible event storm"
                    )
            self._now = max(self._now, end_time)
        finally:
            self._running = False
        return self._now

    def run_for(self, duration: float, max_events: int | None = None) -> float:
        """Run for ``duration`` simulated seconds from the current time."""
        return self.run_until(self._now + duration, max_events=max_events)

    def step(self) -> bool:
        """Fire the single next event; returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                if event.counted:
                    self._cancelled_pending -= 1
                continue
            self._now = event.time
            event.fire()
            self.events_fired += 1
            return True
        return False

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self._now:.3f} pending={self.pending_events}>"
