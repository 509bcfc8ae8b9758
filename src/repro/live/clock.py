"""Wall-clock implementation of the :class:`~repro.core.clock.Clock` seam.

:class:`LiveClock` drives the exact timer surface the discrete-event
:class:`~repro.sim.event_loop.Simulator` exposes -- ``now``,
``schedule_at``/``schedule_in``, ``schedule_periodic`` -- but over a running
asyncio event loop and ``time.monotonic()``.  All live workers of one
deployment share a monotonic *epoch* chosen by the supervisor, so ``now``
reads the same deployment-time axis in every process (``CLOCK_MONOTONIC`` is
system-wide on Linux, and it is the asyncio loop's clock).  A worker builds
its clock before it knows the epoch -- the supervisor sends it once every
worker is ready -- and hands it over with :meth:`LiveClock.start` before
anything is scheduled on it.

Semantics mirrored from the simulator, pinned by the clock-seam tests:

* callbacks receive the firing time (``self.now`` at dispatch) as their
  single positional argument;
* periodic chains first fire one period from now and re-arm after the
  callback, so a callback cancelling its own handle stops the chain;
* every ``schedule_*`` call returns a :class:`LiveTimer` that cancels itself.

Timers sit on their schedule, not on their firing: ``schedule_at`` arms the
absolute deadline ``epoch + time`` (``loop.call_at``), and a periodic chain
re-arms at its previous deadline plus the period, skipping every deadline it
has already missed, so a late or slow callback neither drifts the chain nor
fires it twice to catch up.  A data source re-arms its ``schedule_at``
tick from its previous scheduled tick, so the edge worker's sources stay on
their start grid for the whole run and wake the worker together: a worker
wakes about once per tick, not once per source.  Timers due at one deadline
share one asyncio timer and run in the order they were armed, as the
simulator orders the events of one instant by sequence; a source therefore
never sends two ticks' batches back to back on a link.
The transport's heartbeat loop stays off this grid on its own cadence
(DESIGN.md, "Clock seam", has the measurement that kept it there).

Deviation (documented in DESIGN.md): wall-clock timers have jitter, so
unlike the simulator there is no guarantee that a callback fires at exactly
its scheduled instant -- only at-or-after.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable

from ..core.clock import ClockCallback


class LiveTimer:
    """Handle of a one-shot timer or a periodic chain; mirrors the simulator's
    ``Event`` / ``PeriodicHandle`` (a ``cancelled`` flag and ``cancel()``)."""

    __slots__ = ("cancelled", "deadline")

    def __init__(self, deadline: float) -> None:
        self.cancelled = False
        #: Loop time the timer fires at next.
        self.deadline = deadline

    def cancel(self) -> None:
        self.cancelled = True


class LiveClock:
    """Clock over ``time.monotonic()`` and a running asyncio loop.

    Must be constructed (and its timers scheduled) from within the worker's
    event loop thread; the protocol stack is single-threaded per worker.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        #: Loop time that is deployment t=0; None until :meth:`start`.
        self._epoch: float | None = None
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self.events_fired = 0
        #: deadline (loop time) -> the callbacks due then, in arming order.
        self._due: dict[float, list[Callable[[], None]]] = {}

    def start(self, epoch: float) -> None:
        """Make loop time ``epoch`` deployment time 0."""
        self._epoch = epoch

    @property
    def now(self) -> float:
        # Clamp: workers build their stack before the shared epoch; protocol
        # code assumes time never goes negative.
        if self._epoch is None:
            return 0.0
        return max(0.0, time.monotonic() - self._epoch)

    # ------------------------------------------------------------------ one-shot
    def schedule_at(self, time_: float, callback: ClockCallback) -> LiveTimer:
        return self._once(self._epoch + time_, callback)

    def schedule_in(self, delay: float, callback: ClockCallback) -> LiveTimer:
        return self._once(self._loop.time() + max(0.0, delay), callback)

    def _once(self, deadline: float, callback: ClockCallback) -> LiveTimer:
        handle = LiveTimer(deadline)

        def fire() -> None:
            if handle.cancelled:
                return
            self.events_fired += 1
            callback(self.now)

        self._arm(deadline, fire)
        return handle

    # ------------------------------------------------------------------ periodic
    def schedule_periodic(self, period: float, callback: ClockCallback) -> LiveTimer:
        loop = self._loop
        handle = LiveTimer(loop.time() + period)

        def fire() -> None:
            if handle.cancelled:
                return
            self.events_fired += 1
            callback(self.now)
            if not handle.cancelled:
                deadline = handle.deadline + period
                late = loop.time() - deadline
                if late >= 0:
                    # Missed deadlines are skipped, not caught up.
                    deadline += (late // period + 1) * period
                handle.deadline = deadline
                self._arm(deadline, fire)

        self._arm(handle.deadline, fire)
        return handle

    # ------------------------------------------------------------------ dispatch
    def _arm(self, deadline: float, fire: Callable[[], None]) -> None:
        """Run ``fire`` at loop time ``deadline``: one asyncio timer per
        distinct deadline, whose callbacks run in the order they were armed
        (the simulator's ``(time, sequence)`` order).  asyncio's own timer
        heap does not order equal deadlines, so sources ticking on one grid
        would otherwise send in a different order each tick."""
        due = self._due.get(deadline)
        if due is None:
            due = self._due[deadline] = []
            self._loop.call_at(deadline, self._run_due, deadline)
        due.append(fire)

    def _run_due(self, deadline: float) -> None:
        for fire in self._due.pop(deadline):
            try:
                fire()
            except Exception as exc:  # the other callbacks due now still run
                self._loop.call_exception_handler(
                    {"message": "LiveClock timer callback failed", "exception": exc}
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LiveClock now={self.now:.3f} events_fired={self.events_fired}>"
