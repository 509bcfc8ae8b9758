"""Data sources.

A :class:`DataSource` stands in for the paper's instrumented data sources
(network monitors, sensors, ...).  Per the DPC assumptions (Section 2.2) a
source:

* timestamps every tuple it produces (``stime`` = production time on the
  simulator clock);
* logs every tuple persistently *before* transmitting it, so that after any
  failure the missing suffix can be replayed;
* sends its stream to **all replicas** of the processing node(s) that consume
  it;
* emits periodic boundary tuples that act as punctuation and heartbeat.

Failures used by the experiments map onto two switches: ``disconnect(target)``
(the stream stops reaching one consumer; production and logging continue) and
``set_boundaries_enabled(False)`` (data flows but buckets can no longer
stabilize downstream).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Sequence

from ..core.protocol import (
    CHECKPOINT_ACK,
    DATA,
    SOURCE_RESUBSCRIBE,
    CheckpointAck,
    SourceResubscribe,
    TupleBatch,
)
from ..errors import SimulationError
from ..spe.streams import StreamLog, StreamWriter
from ..spe.payload import interleaved
from ..spe.tuples import BOUNDARY, TupleBlock
from ..workloads.generators import PayloadGenerator
from ..core.clock import Clock
from .network import Network

#: Network message kind used for stream data (alias of the DPC protocol kind).
DATA_MESSAGE = DATA


def sequential_payload(sequences: range, stimes: Sequence[float]) -> dict[str, list]:
    """Default workload: monotonically increasing sequence numbers."""
    return {"seq": list(sequences), "value": list(map(float, sequences))}


class DataSource:
    """A source producing one stream at a fixed rate."""

    def __init__(
        self,
        name: str,
        stream: str,
        simulator: Clock,
        network: Network,
        rate: float = 100.0,
        boundary_interval: float = 0.1,
        batch_interval: float = 0.05,
        payload: PayloadGenerator = sequential_payload,
        start_time: float = 0.0,
        stop_time: float | None = None,
        rate_profile: Callable[[float], float] | None = None,
    ) -> None:
        if rate <= 0:
            raise SimulationError(f"source rate must be positive, got {rate}")
        if boundary_interval <= 0 or batch_interval <= 0:
            raise SimulationError("boundary_interval and batch_interval must be positive")
        self.name = name
        self.stream = stream
        self.simulator = simulator
        self.network = network
        self.rate = rate
        self.boundary_interval = boundary_interval
        self.batch_interval = batch_interval
        self.payload = payload
        self.start_time = start_time
        self.stop_time = stop_time
        #: Optional multiplier of ``rate`` as a pure function of the emission
        #: stime (see :data:`repro.workloads.generators.RateProfile`).  Being
        #: a function of the stime -- not of wall progress -- keeps sources
        #: sharing a profile aligned, so stime tie groups are preserved.
        self.rate_profile = rate_profile
        #: Persistent log of everything ever produced on this stream.
        self.log = StreamLog(stream_name=stream)
        self._writer = StreamWriter(stream_name=stream)
        self._sequence = 0
        self._next_tuple_time = start_time
        self._next_boundary_time = start_time + boundary_interval
        self._boundaries_enabled = True
        #: subscriber endpoint -> last tuple_id delivered (on this source's log).
        self._subscribers: dict[str, int] = {}
        self._connected: dict[str, bool] = {}
        #: subscriber endpoint -> last tuple_id covered by a durable recovery
        #: checkpoint at that subscriber; the log prefix every subscriber has
        #: checkpointed is truncated (bounded retention).
        self._checkpoint_acks: dict[str, int] = {}
        #: Subscribers owed a replay-flagged batch once their link heals
        #: (their cursor was repositioned while they were disconnected).
        self._pending_replay: set[str] = set()
        self._started = False
        #: Rows sliced from the log for flush batches that reached no subscriber.
        self.unreached_rows = 0
        #: Time the next production tick is scheduled for.
        self._tick_at = start_time
        # Addressable for cursor-repositioning requests from recovering nodes
        # and for checkpoint acknowledgments.
        network.register(self.name, self._on_message)

    # ------------------------------------------------------------------ messages
    def _on_message(self, message, now: float) -> None:
        if message.kind == SOURCE_RESUBSCRIBE:
            self._on_resubscribe(message.payload)
        elif message.kind == CHECKPOINT_ACK:
            self.on_checkpoint_ack(message.payload)

    def _on_resubscribe(self, request: SourceResubscribe) -> None:
        """Reposition one subscriber's cursor and replay the suffix after it.

        Used by checkpoint-shipped recovery: the adopted checkpoint's input
        cursor supersedes whatever delivery position this source froze when
        the subscriber crashed.  The response batch is flagged ``replay`` --
        and sent even when empty -- so the subscriber can discard any
        stale-cursor flushes racing it (the link is FIFO, so everything sent
        before this reply predates the cursor reset).  While the subscriber's
        stream is disconnected (an injected failure), only the cursor is
        repositioned; the reply is owed -- and sent -- when the link heals,
        so recovery cannot smuggle data through a failure window.
        """
        if request.subscriber not in self._subscribers:
            return
        self._subscribers[request.subscriber] = request.after_tuple_id
        if not self._connected.get(request.subscriber, False):
            self._pending_replay.add(request.subscriber)
            return
        self._send_replay(request.subscriber)

    def _send_replay(self, endpoint: str) -> None:
        pending = self.log.replay_after(self._subscribers[endpoint])
        sent = self.network.send(
            self.name,
            endpoint,
            DATA_MESSAGE,
            TupleBatch.of(self.stream, pending, producer=self.name, replay=True),
        )
        if sent and pending:
            self._subscribers[endpoint] = pending.ids[-1]

    # ------------------------------------------------------------------ subscriptions
    def subscribe(self, endpoint: str) -> None:
        """Register a consumer; it receives every tuple from the log start."""
        if endpoint in self._subscribers:
            return
        self._subscribers[endpoint] = -1
        self._connected[endpoint] = True

    def disconnect(self, endpoint: str) -> None:
        """Stop delivering to ``endpoint``; production and logging continue."""
        if endpoint not in self._subscribers:
            raise SimulationError(f"{endpoint!r} is not subscribed to {self.name!r}")
        self._connected[endpoint] = False

    def reconnect(self, endpoint: str) -> None:
        """Resume delivery; the missed suffix is replayed on the next flush."""
        if endpoint not in self._subscribers:
            raise SimulationError(f"{endpoint!r} is not subscribed to {self.name!r}")
        self._connected[endpoint] = True
        self._flush_pending_replay(endpoint)

    def _flush_pending_replay(self, endpoint: str) -> None:
        """Send the replay-flagged batch owed from a resubscribe made mid-failure."""
        if endpoint in self._pending_replay:
            self._pending_replay.discard(endpoint)
            self._send_replay(endpoint)

    def is_connected(self, endpoint: str) -> bool:
        return self._connected.get(endpoint, False)

    # ------------------------------------------------------------------ boundary control
    def set_boundaries_enabled(self, enabled: bool) -> None:
        """Enable or disable boundary-tuple production (failure injection hook)."""
        self._boundaries_enabled = enabled
        if enabled:
            # Never emit a boundary for a time window we were silent about in
            # the past; resume from "now".
            self._next_boundary_time = max(self._next_boundary_time, self.simulator.now)

    @property
    def boundaries_enabled(self) -> bool:
        return self._boundaries_enabled

    # ------------------------------------------------------------------ production
    def start(self) -> None:
        """Begin producing tuples on the simulator."""
        if self._started:
            return
        self._started = True
        self._tick_at = max(self.start_time, self.simulator.now)
        self.simulator.schedule_at(self._tick_at, self._tick)

    def _stopped(self, now: float) -> bool:
        return self.stop_time is not None and now >= self.stop_time

    def _tick(self, now: float) -> None:
        # Clamp production at stop_time: the set of tuples ever produced is
        # then a pure function of (start_time, rate, stop_time), independent
        # of where the final tick lands.  The simulator's grid-aligned ticks
        # and the live backend's jittered wall-clock ticks produce the exact
        # same finite log, which the live/sim parity harness relies on.
        horizon = now if self.stop_time is None else min(now, self.stop_time)
        self._produce_until(horizon)
        self._flush()
        if not self._stopped(now):
            # Re-arm from the scheduled tick, not from ``now``: the simulator
            # fires exactly on it, so the two are equal there; a live clock
            # fires late, and sources sharing a grid then tick together.  A
            # tick already missed is skipped (never on the simulator).
            tick_at = self._tick_at + self.batch_interval
            while tick_at <= now:
                tick_at += self.batch_interval
            self._tick_at = tick_at
            self.simulator.schedule_at(tick_at, self._tick)

    def _produce_until(self, now: float) -> None:
        """Generate data and boundary tuples with stimes up to ``now``.

        The tick is produced straight into columns and logged as one block:
        its data stimes by repeated addition of the period, its payload by one
        generator call, and its boundaries inserted where they fall, ``None``
        in each payload column (a boundary precedes the data at its stime).
        """
        period, rate_profile = 1.0 / self.rate, self.rate_profile
        stimes, stime = [], self._next_tuple_time
        while stime <= now:
            stimes += (stime,)
            if rate_profile is None:
                stime += period
                continue
            factor = rate_profile(stime)
            if factor <= 0:
                raise SimulationError(
                    f"rate profile of source {self.name!r} returned "
                    f"{factor!r} at stime {stime}; factors must be positive"
                )
            stime += period / factor
        self._next_tuple_time = stime
        bounds = []
        while self._boundaries_enabled and self._next_boundary_time <= now:
            bounds += (self._next_boundary_time,)
            self._next_boundary_time += self.boundary_interval
        keys, values, width, codes = None, [], 0, bytearray(len(stimes))
        if stimes:
            first = self._sequence
            self._sequence = first + len(stimes)
            generated = self.payload(range(first, self._sequence), stimes)
            keys, values = tuple(generated), interleaved(tuple(generated.values()))
            width = len(keys)
        for stime in bounds:
            # A boundary goes before the data at its own stime; its values are None.
            self._writer.advance_boundary(stime)
            at = bisect_left(stimes, stime)
            stimes.insert(at, stime)
            codes.insert(at, BOUNDARY)
            values[at * width : at * width] = (None,) * width
        if codes:
            payload = ((len(codes), keys, values),)
            ids = self._writer.take(len(codes))
            self.log.extend(TupleBlock(bytes(codes), ids, stimes, payload))

    def _flush(self) -> None:
        """Deliver the pending suffix of the log to every connected subscriber.

        Subscribers that are caught up to the same log position share a single
        multicast batch, so the steady-state cost is one simulator event per
        tick regardless of how many replicas consume the stream.  A subscriber the
        network reports down is left out: its cursor holds, its backlog unsliced.
        """
        groups: dict[int, list[str]] = {}
        is_down = self.network.is_down
        for endpoint, last_id in self._subscribers.items():
            if self._connected[endpoint] and not is_down(endpoint):
                groups.setdefault(last_id, []).append(endpoint)
        for last_id, endpoints in sorted(groups.items()):
            pending = self.log.replay_after(last_id)
            if not pending:
                continue
            sent = self.network.send_many(
                self.name,
                endpoints,
                DATA_MESSAGE,
                TupleBatch.of(self.stream, pending, producer=self.name),
            )
            if not sent:
                self.unreached_rows += len(pending)
            for endpoint in sent:
                self._subscribers[endpoint] = pending.ids[-1]

    # ------------------------------------------------------------------ checkpoint retention
    def on_checkpoint_ack(self, ack: CheckpointAck) -> int:
        """Record that ``ack.consumer`` durably checkpointed through ``ack.through``.

        The log prefix that *every* subscriber has acknowledged is truncated
        (subscribers that never acknowledged pin the log at its start), so
        retained-log memory is bounded by the checkpoint cadence instead of
        growing for the whole run.  The latest acknowledgment wins even when
        it is lower (a replica that adopted an older partner checkpoint
        re-acknowledges the adopted cursor).  Returns the number of entries
        truncated.
        """
        if ack.consumer not in self._subscribers:
            return 0
        acks = self._checkpoint_acks
        acks[ack.consumer] = ack.through
        safe = min(acks.get(endpoint, -1) for endpoint in self._subscribers)
        if safe < 0:
            return 0
        return self.log.truncate_through(safe)

    # ------------------------------------------------------------------ introspection
    @property
    def tuples_produced(self) -> int:
        """Number of data tuples generated so far."""
        return self._sequence

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DataSource {self.name!r} stream={self.stream!r} rate={self.rate}>"
