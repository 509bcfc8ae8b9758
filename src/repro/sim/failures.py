"""Failure injection.

The experiments in the paper exercise three kinds of failures:

* **stream disconnection** -- an input stream stops reaching a node (the
  single-node experiments of Sections 5 and 6.1 temporarily disconnect one
  input stream without stopping the data source, which then replays the
  missing tuples when the failure heals);
* **boundary silence** -- a data source keeps sending data tuples but stops
  producing boundary tuples, so downstream SUnions cannot stabilize buckets
  (used in the chain experiments of Section 6.2 so the output rate stays
  constant across the failure);
* **node crash / network partition** -- a processing node becomes unreachable
  (handled via :class:`~repro.sim.network.Network` crash/partition hooks).

The :class:`FailureInjector` schedules these on the simulator and records a
timeline that experiments and tests can assert against;
:meth:`FailureInjector.inject` schedules a whole resolved failure schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from ..errors import SimulationError
from .event_loop import Simulator
from .network import Network

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.node import ProcessingNode
    from ..workloads.scenarios import FailureAction
    from .sources import DataSource


class FailureType(str, Enum):
    STREAM_DISCONNECT = "stream_disconnect"
    BOUNDARY_SILENCE = "boundary_silence"
    NODE_CRASH = "node_crash"
    PARTITION = "partition"


@dataclass(frozen=True)
class FailureRecord:
    """One injected failure, for reporting and assertions."""

    failure_type: FailureType
    target: str
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class FailureInjector:
    """Schedules failures and their healing on the simulator."""

    simulator: Simulator
    network: Network
    history: list[FailureRecord] = field(default_factory=list)

    # ------------------------------------------------------------------ stream-level failures
    def disconnect_stream(self, source: "DataSource", target: str, start: float, duration: float) -> FailureRecord:
        """Stop ``source``'s stream from reaching ``target`` between start and start+duration.

        The source keeps producing (and logging) tuples; when the failure
        heals, the normal subscription replay delivers everything that was
        missed, exactly like the paper's "after the failure heals, the data
        source replays all missing tuples while continuing to produce new
        tuples" (Section 5.2).
        """
        self._check_times(start, duration)
        record = FailureRecord(FailureType.STREAM_DISCONNECT, f"{source.name}->{target}", start, duration)
        self.history.append(record)
        self.simulator.schedule_at(start, lambda now: source.disconnect(target))
        self.simulator.schedule_at(start + duration, lambda now: source.reconnect(target))
        return record

    def silence_boundaries(self, source: "DataSource", start: float, duration: float) -> FailureRecord:
        """Stop ``source`` from producing boundary tuples for ``duration`` seconds."""
        self._check_times(start, duration)
        record = FailureRecord(FailureType.BOUNDARY_SILENCE, source.name, start, duration)
        self.history.append(record)
        self.simulator.schedule_at(start, lambda now: source.set_boundaries_enabled(False))
        self.simulator.schedule_at(
            start + duration,
            lambda now: source.set_boundaries_enabled(True),
        )
        return record

    # ------------------------------------------------------------------ node / network failures
    def crash_processing_node(
        self, node, start: float, duration: float, guard=None
    ) -> FailureRecord:
        """Fail-stop ``node`` (a :class:`~repro.core.node.ProcessingNode`).

        Unlike :meth:`crash_node` this goes through the node's own
        crash/recover hooks, so on recovery it resubscribes to its upstream
        neighbors instead of merely rejoining the network.

        ``guard`` is an optional callable invoked at *fire time*, immediately
        before the crash: schedules validated against the compile-time
        topology use it to re-validate the target against the live deployment
        (a mid-run reconfiguration may have drained the node since the
        schedule was built).
        """
        self._check_times(start, duration)
        record = FailureRecord(FailureType.NODE_CRASH, node.name, start, duration)
        self.history.append(record)

        def crash(now, n=node, check=guard):
            if check is not None:
                check()
            n.crash()

        self.simulator.schedule_at(start, crash)
        self.simulator.schedule_at(start + duration, lambda now, n=node: n.recover())
        return record

    def crash_node(self, endpoint: str, start: float, duration: float) -> FailureRecord:
        """Crash ``endpoint`` at ``start`` and recover it ``duration`` later."""
        self._check_times(start, duration)
        record = FailureRecord(FailureType.NODE_CRASH, endpoint, start, duration)
        self.history.append(record)
        self.simulator.schedule_at(start, lambda now: self.network.crash(endpoint))
        self.simulator.schedule_at(start + duration, lambda now: self.network.recover(endpoint))
        return record

    def partition(self, a: str, b: str, start: float, duration: float) -> FailureRecord:
        """Partition endpoints ``a`` and ``b`` for ``duration`` seconds."""
        self._check_times(start, duration)
        record = FailureRecord(FailureType.PARTITION, f"{a}<->{b}", start, duration)
        self.history.append(record)
        self.simulator.schedule_at(start, lambda now: self.network.partition(a, b))
        self.simulator.schedule_at(start + duration, lambda now: self.network.heal_partition(a, b))
        return record

    def isolate_endpoint(self, endpoint: str, start: float, duration: float) -> FailureRecord:
        """Partition ``endpoint`` from every other endpoint for ``duration`` seconds.

        This is the network-split analogue of a branch crash: the endpoint
        keeps running but nothing reaches it and nothing it sends arrives, so
        downstream consumers go tentative and reconcile on heal.  The peer
        set is captured at *fire* time (a mid-run reconfiguration may have
        added or removed endpoints since scheduling), and exactly the
        captured pairs are healed.
        """
        self._check_times(start, duration)
        record = FailureRecord(FailureType.PARTITION, f"{endpoint}<->*", start, duration)
        self.history.append(record)
        isolated: list[str] = []

        def cut(now: float) -> None:
            for other in self.network.endpoints():
                if other != endpoint:
                    self.network.partition(endpoint, other)
                    isolated.append(other)

        def heal(now: float) -> None:
            for other in isolated:
                self.network.heal_partition(endpoint, other)

        self.simulator.schedule_at(start, cut)
        self.simulator.schedule_at(start + duration, heal)
        return record

    # ------------------------------------------------------------------ schedules
    def inject(
        self,
        actions: Iterable["FailureAction"],
        sources: Mapping[str, "DataSource"],
        nodes: Mapping[str, "ProcessingNode"],
        check_target: Callable[[str], None] | None = None,
    ) -> list[FailureRecord]:
        """Schedule a resolved failure schedule: one primitive per action.

        ``actions`` come from :func:`repro.workloads.scenarios.resolve_failures`,
        the one interpreter of failure targets; ``sources`` and ``nodes`` map
        the endpoints they name to the deployed objects.  ``check_target`` is
        called with a crash's logical node at *fire* time: the schedule was
        resolved against the placement as compiled, and a mid-run rebalance
        may have drained the target since
        (``Deployment.assert_kill_target_live``).
        """
        records: list[FailureRecord] = []
        for action in actions:
            when = (action.start, action.duration)
            if action.kind == "disconnect":
                record = self.disconnect_stream(sources[action.source], action.endpoint, *when)
            elif action.kind == "silence":
                record = self.silence_boundaries(sources[action.source], *when)
            elif action.kind == "partition":
                record = self.isolate_endpoint(action.endpoint, *when)
            else:
                guard = None if check_target is None else partial(check_target, action.node)
                record = self.crash_processing_node(nodes[action.endpoint], *when, guard=guard)
            records.append(record)
        return records

    # ------------------------------------------------------------------ helpers
    def _check_times(self, start: float, duration: float) -> None:
        if start < self.simulator.now:
            raise SimulationError(f"failure start {start} is in the past (now={self.simulator.now})")
        if duration <= 0:
            raise SimulationError(f"failure duration must be positive, got {duration}")

    def overlapping(self) -> bool:
        """True when any two injected failures overlap in time."""
        intervals = sorted((r.start, r.end) for r in self.history)
        for (start_a, end_a), (start_b, _end_b) in zip(intervals, intervals[1:]):
            if start_b < end_a:
                return True
        return False
