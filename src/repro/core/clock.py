"""Clock seam shared by the simulated and live execution backends.

Every protocol component (nodes, consistency managers, data sources, client
proxies) drives its timers and reads "now" through :class:`Clock`.  The
discrete-event :class:`~repro.sim.event_loop.Simulator` implements it in
virtual time; the live backend's :class:`~repro.live.clock.LiveClock`
implements it over an asyncio event loop and ``time.monotonic()`` (see
DESIGN.md, "Clock seam").

Contract notes, shared by both implementations:

* ``now`` is in seconds from the deployment's time origin (virtual time zero
  for the simulator, the supervisor-chosen epoch for the live clock).
* Callbacks receive the firing time as their single positional argument.
* Every ``schedule_*`` call returns a :class:`TimerHandle`; ``cancel()`` on it
  stops the timer.
* ``schedule_periodic`` first fires one period from now and re-arms *after*
  the callback runs, so a callback cancelling its own handle stops the chain
  immediately.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

#: Timer callback signature: receives the firing time.
ClockCallback = Callable[[float], None]


@runtime_checkable
class TimerHandle(Protocol):
    """Handle for a one-shot timer or a periodic chain; cancelling it stops it."""

    cancelled: bool

    def cancel(self) -> None: ...


@runtime_checkable
class Clock(Protocol):
    """What protocol components require from their execution backend."""

    @property
    def now(self) -> float: ...

    def schedule_at(self, time: float, callback: ClockCallback) -> TimerHandle: ...

    def schedule_in(self, delay: float, callback: ClockCallback) -> TimerHandle: ...

    def schedule_periodic(self, period: float, callback: ClockCallback) -> TimerHandle: ...
