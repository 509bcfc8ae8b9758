"""Regression tests for the Clock seam extraction.

The :class:`~repro.core.clock.Clock` protocol is a typing-only seam: the
discrete-event :class:`~repro.sim.event_loop.Simulator` must satisfy it
structurally (no adapter, no wrapper), and extracting the seam must leave
the sim backend's behavior byte-identical -- same event counts, same golden
summary digests.  These tests pin both halves, and the live clock's own
timing contract: chains re-arm on their deadline grid, skip the deadlines a
slow callback missed, and ticks sharing a grid fire in one loop turn.
"""

from __future__ import annotations

import inspect
import json

from repro.core.clock import Clock, TimerHandle
from repro.runtime import ScenarioSpec
from repro.sim.event_loop import PeriodicHandle, Simulator


def test_simulator_satisfies_clock_protocol():
    simulator = Simulator()
    assert isinstance(simulator, Clock)
    handle = simulator.schedule_periodic(1.0, lambda now: None)
    assert isinstance(handle, PeriodicHandle)
    assert isinstance(handle, TimerHandle)
    assert handle.cancelled is False
    handle.cancel()
    assert handle.cancelled is True


def clock_members() -> dict[str, object]:
    """The members the Clock protocol declares, by name."""
    return {name: member for name, member in vars(Clock).items() if not name.startswith("_")}


def test_clock_protocol_is_now_and_three_schedulers():
    assert set(clock_members()) == {"now", "schedule_at", "schedule_in", "schedule_periodic"}


def test_live_clock_satisfies_clock_protocol():
    from repro.live.clock import LiveClock

    # Structural conformance is checked without an event loop: the protocol
    # is satisfied by the class surface, instances need a running loop.
    for name, member in clock_members().items():
        implemented = getattr(LiveClock, name)
        if isinstance(member, property):
            assert isinstance(implemented, property), name
        else:
            assert callable(implemented), name
            wanted = inspect.signature(member).parameters
            assert len(inspect.signature(implemented).parameters) == len(wanted), name


def test_sim_event_counts_identical_across_runs():
    """The seam must not introduce any nondeterminism into the simulator."""

    def run():
        spec = ScenarioSpec.chain(
            2, name="seam-chain", aggregate_rate=90.0, settle=10.0, seed=3
        ).with_failure("disconnect", start=4.0, duration=3.0)
        runtime = spec.run()
        summary = runtime.summary()
        return summary["events_fired"], json.dumps(summary, sort_keys=True, default=str)

    first_events, first_summary = run()
    second_events, second_summary = run()
    assert first_events == second_events
    assert first_summary == second_summary
    assert first_events > 0


def test_golden_summaries_unchanged_by_seam():
    """Byte-identical golden digest for one representative scenario.

    The full integration suite re-checks every scenario; this test keeps the
    seam-specific evidence local so a future clock change that breaks the sim
    backend fails *here* with a pointed message.
    """
    import importlib.util
    from pathlib import Path

    golden_module_path = (
        Path(__file__).resolve().parents[1] / "integration" / "test_golden_summaries.py"
    )
    spec = importlib.util.spec_from_file_location("_golden_summaries", golden_module_path)
    goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(goldens)

    name = "chain2-disconnect"
    golden = goldens.load_goldens()[name]["1"]
    current = goldens.scenario_digest(goldens.SCENARIOS[name](1).run())
    assert current["events_fired"] == golden["events_fired"], (
        "clock seam changed the simulator's event schedule"
    )
    assert current["summary_sha256"] == golden["summary_sha256"], (
        "clock seam changed simulated behavior byte-identically pinned by goldens"
    )


# ---------------------------------------------------------------------- live chains on their grid
class TurnCounter:
    """Numbers the event loop's turns: a ``call_soon`` chain runs once per turn."""

    def __init__(self, loop) -> None:
        self.turn = 0
        self._loop = loop
        loop.call_soon(self._advance)

    def _advance(self) -> None:
        self.turn += 1
        self._loop.call_soon(self._advance)


def test_live_chain_re_arms_on_its_deadline_and_skips_missed_ones():
    import asyncio
    import time

    from repro.live.clock import LiveClock

    period = 0.02

    async def scenario():
        loop = asyncio.get_running_loop()
        clock = LiveClock(loop=loop)
        clock.start(time.monotonic())
        turns = TurnCounter(loop)
        fired = []  # (deadline, firing loop time, turn, loop time the callback returned)

        def tick(now: float) -> None:
            deadline, time_, turn = handle.deadline, loop.time(), turns.turn
            if len(fired) == 2:
                time.sleep(3.5 * period)  # overrun three and a half periods
            fired.append((deadline, time_, turn, loop.time()))
            if len(fired) == 8:
                handle.cancel()

        before = loop.time()
        handle = clock.schedule_periodic(period, tick)
        after = loop.time()
        while not handle.cancelled:
            await asyncio.sleep(period)
        return before, after, fired

    before, after, fired = asyncio.run(asyncio.wait_for(scenario(), timeout=10.0))
    start = fired[0][0] - period
    assert before <= start <= after
    steps = [round((deadline - start) / period, 6) for deadline, *_ in fired]
    assert all(step == int(step) for step in steps)  # every deadline on the grid
    assert steps[0] == 1
    for (deadline, *_, returned), following in zip(fired, fired[1:]):
        # Re-armed at the first grid deadline after the callback returned:
        # later than it (missed ones skipped), but no later than it needs.
        assert returned < following[0] <= max(deadline, returned) + period + 1e-3
    assert steps[3] - steps[2] >= 4  # the overrun skipped at least three deadlines
    assert all(time_ >= deadline for deadline, time_, *_ in fired)  # never early
    assert len({turn for _, _, turn, _ in fired}) == len(fired)  # never twice in one turn


def test_live_ticks_on_one_grid_fire_in_one_turn():
    import asyncio
    import time

    from repro.live.clock import LiveClock

    async def scenario():
        loop = asyncio.get_running_loop()
        clock = LiveClock(loop=loop)
        clock.start(time.monotonic())
        turns = TurnCounter(loop)
        fired = {"x": [], "y": []}
        # One-shot ticks at the same deployment time (sources on one grid),
        # armed 2 ms apart within one turn.
        at = clock.now + 0.02
        for name in ("x", "y"):
            clock.schedule_at(at, lambda now, name=name: fired[name].append(turns.turn))
            time.sleep(0.002)
        while not fired["y"]:
            await asyncio.sleep(0.02)
        return fired

    fired = asyncio.run(asyncio.wait_for(scenario(), timeout=10.0))
    assert fired["x"] == fired["y"] and len(fired["x"]) == 1


def test_live_timers_due_together_run_in_arming_order():
    import asyncio
    import time

    from repro.live.clock import LiveClock

    async def scenario():
        loop = asyncio.get_running_loop()
        failures = []
        loop.set_exception_handler(lambda loop, context: failures.append(context["exception"]))
        clock = LiveClock(loop=loop)
        clock.start(time.monotonic())
        order = []

        def tick(index: int):
            def fire(now: float) -> None:
                order.append(index)
                if index == 2:
                    raise RuntimeError("boom")
            return fire

        at = clock.now + 0.02
        handles = [clock.schedule_at(at, tick(index)) for index in range(10)]
        handles[5].cancel()
        await asyncio.sleep(0.1)
        return order, failures

    order, failures = asyncio.run(asyncio.wait_for(scenario(), timeout=10.0))
    # The simulator's (time, sequence) order; a raising callback is reported
    # and the others due with it still run.
    assert order == [0, 1, 2, 3, 4, 6, 7, 8, 9]
    assert [str(error) for error in failures] == ["boom"]
