"""Asyncio transport presenting the simulated ``Network`` surface.

Each live worker owns one :class:`LiveTransport`.  Protocol components call
the same API the simulated :class:`~repro.sim.network.Network` exposes
(``register``/``send``/``send_many``/``can_communicate``/...), and the
transport routes each message either

* **locally** -- the receiver's handler lives in this process; delivery is
  deferred through ``loop.call_soon`` so a send never re-enters the protocol
  stack synchronously (the simulator likewise never delivers inside
  ``send``), or
* **remotely** -- the message is framed by :mod:`repro.live.wire`, wrapped in
  a transport header ``(frame type, sender generation, link sequence)`` and a
  4-byte big-endian length prefix, then queued on the outbound link to the
  worker hosting the receiver.  One Unix-domain-socket connection per worker
  pair keeps every link FIFO, matching the paper's reliable in-order
  assumption (TCP, Section 2.2).  A fan-out encodes the payload once: every
  remote receiver's frame is its own small addressed prefix plus the shared
  payload bytes, joined into one buffer when the frame departs.

**Fault injection**: *window* rules of the run's
:class:`~repro.live.faults.FaultPlan` (disconnect/partition) deny delivery
credit in :meth:`send_many` -- the blocked receiver is left out of the
returned list, so source cursors and node output buffers hold exactly as
they do for a crashed simulated endpoint, and replay-on-heal falls out of
the existing protocol.  *Wire* rules act on the outbound link, as
:class:`~repro.live.faults.WireFaults` decides.

**Hardening.** Reconnects use capped exponential backoff with seeded jitter
(:func:`~repro.live.faults.backoff_delay`) instead of a fixed delay; a
write the socket cannot take at once drains under a timeout, and every
frame has a bounded retry budget, with frames that exhaust it counted as
*dead letters* (frames shed while a peer's socket is plainly down are
``dropped_frames`` -- the expected, replay-healed case).
Frames carry the sender's *generation* (bumped by the supervisor on every
respawn) and a per-link sequence number: receivers reject stale-generation
frames (a predecessor's zombie writes) and non-monotonic sequences
(injected duplicates).  Every admitted frame feeds
:class:`~repro.live.liveness.PeerLiveness`, whose DOWN verdict feeds
``can_communicate``; a worker-to-worker heartbeat frame, which rides the
same fault pipeline, goes only to a peer whose link carried no data within
the last heartbeat interval.
"""

from __future__ import annotations

import asyncio
import os
import struct
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

from ..errors import NetworkError
from ..sim.network import Message, NetworkStats
from . import wire
from .faults import DROP, DUPLICATE, REORDER, FaultPlan, LinkRule, WireFaults, backoff_delay
from .liveness import HEARTBEAT_INTERVAL, PeerLiveness, PeerState

MessageHandler = Callable[[Message, float], None]

_LENGTH = struct.Struct(">I")
#: Transport frame header: frame type, sender generation, link sequence.
_HEADER = struct.Struct(">BIQ")
#: Length prefix and header of an outbound frame, packed in one go.
_FRAME_HEAD = struct.Struct(">IBIQ")
_FT_ENVELOPE = 0
_FT_HEARTBEAT = 1

#: Largest frame a reader accepts.  The largest legitimate frames are
#: checkpoint responses (pickled operator state plus output buffers, about
#: 86 bytes per buffered tuple): 6.2 MB for a shard(4) node holding 72k
#: tuples and 4.9 MB for a chain(2) node after 14 s at 4000 tuples/s, the
#: largest the benchmark workloads produce.  256 MiB is 40x that -- three
#: million buffered tuples -- while a corrupt length prefix, which can claim
#: 4 GiB, no longer decides how much a reader allocates.
_MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Cap per-link buffered frames; beyond it the oldest frames are dropped.
#: Live mode has real backpressure on sockets; this bound only matters while
#: a peer is down, where dropping mirrors the simulator's crashed-endpoint
#: semantics.
_MAX_QUEUED_FRAMES = 20000

#: Most bytes one reader wakeup takes off its connection.
_READ_BYTES = 1 << 18

#: Reconnect backoff: first retry after ~_BACKOFF_BASE, doubling to _BACKOFF_CAP.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0

#: Per-send write timeout and bounded retry budget before dead-lettering.
_SEND_TIMEOUT = 5.0
_SEND_RETRIES = 4


class _Entry(NamedTuple):
    """One queued outbound frame, pre-stamping (see reorder semantics)."""

    ftype: int
    sender: str
    receiver: str
    kind: str
    #: Frame body in pieces (envelope prefix + shared payload), joined once.
    parts: tuple[bytes, ...]


@dataclass(slots=True)
class _Stamped:
    """One stamped frame gathered for the link's next socket write."""

    payload: bytes
    rules: tuple[LinkRule, ...]
    sender: str
    receiver: str
    #: An envelope (data) frame, not a heartbeat.
    data: bool
    #: Write attempts used so far, injected drops included.
    attempts: int = 0


class PeerLink:
    """Outbound FIFO link to one peer worker (one socket, one writer task).

    The writer wakes once per loop turn that queued frames, takes every
    queued frame in order -- fault decisions, size refusal and sequence
    stamping per frame -- and writes the stamped frames as one socket write
    with one drain.  A frame with active wire rules leaves on its own write,
    after the frames gathered ahead of it, so its fault decisions are drawn
    in the same order as when every frame had its own write.
    """

    def __init__(self, peer: str, path: str, transport: "LiveTransport") -> None:
        self.peer = peer
        self.path = path
        self._transport = transport
        self._loop = transport._loop
        self._queue: deque[_Entry] = deque()
        self._queued = asyncio.Event()
        #: Stamped frames of the next socket write.
        self._gathered: list[_Stamped] = []
        self._task: asyncio.Task | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._closed = False
        #: Next sequence number stamped on this link's frames.
        self._seq = 0
        self._connect_failures = 0
        self._next_connect_at = 0.0
        self._last_write = 0.0
        #: Loop time of the last write that carried an envelope frame.
        self.data_written_at = float("-inf")
        # ---- counters surfaced in worker stats -------------------------------
        self.frames_sent = 0
        self.dropped_frames = 0  # shed while the peer's socket was down
        self.dead_letters = 0  # exhausted the bounded retry budget
        self.retries = 0
        self.reconnect_attempts = 0
        self.reconnects = 0
        #: Optimistic until a connect/write fails; once False, senders treat
        #: the peer like a crashed simulated endpoint (outputs stay buffered,
        #: source cursors stop advancing) until a connect succeeds again.
        self.connected = True

    # ------------------------------------------------------------------ producer
    def enqueue(
        self, ftype: int, sender: str, receiver: str, kind: str, *parts: bytes
    ) -> None:
        if self._closed:
            return
        if len(self._queue) >= _MAX_QUEUED_FRAMES:
            self._queue.popleft()
            self.dropped_frames += 1
        self._queue.append(_Entry(ftype, sender, receiver, kind, parts))
        self._queued.set()
        if self._task is None or self._task.done():
            self._task = self._loop.create_task(self._drain())

    # ------------------------------------------------------------------ writer task
    async def _drain(self) -> None:
        faults = self._transport.faults
        queue = self._queue
        try:
            while not self._closed:
                if not queue:
                    self._queued.clear()
                    await self._queued.wait()
                while queue and not self._closed:
                    entry = queue.popleft()
                    # Reorder swaps with the next queued frame *before*
                    # sequence stamping: on-wire sequences stay monotonic,
                    # so the receiver's duplicate check never misfires on an
                    # injected reorder -- a later-submitted frame really
                    # travels first, but FIFO numbering is assigned at
                    # departure, like a retransmitting TCP stack.
                    if (
                        faults.active
                        and queue
                        and faults.fires(
                            REORDER, faults.rules(entry.sender, entry.receiver),
                            entry.sender, entry.receiver,
                        )
                    ):
                        await self._gather(queue.popleft())
                    await self._gather(entry)
                await self._flush()
        finally:
            self._close_writer()

    async def _gather(self, entry: _Entry) -> None:
        """Stamp ``entry`` and add it to the frames of the next write."""
        faults = self._transport.faults
        rules = faults.rules(entry.sender, entry.receiver) if faults.active else ()
        if rules:
            # The frames ahead of this one leave before its departure stretches.
            await self._flush()
            await faults.stretch(rules, entry.sender, entry.receiver, self._last_write)
        length = _HEADER.size + sum(map(len, entry.parts))
        if length > _MAX_FRAME_BYTES:
            # The receiver would refuse it and drop the connection with it.
            self.dead_letters += 1
            return
        seq = self._seq
        self._seq += 1
        head = _FRAME_HEAD.pack(length, entry.ftype, self._transport.generation, seq)
        payload = b"".join((head, *entry.parts))
        frame = _Stamped(payload, rules, entry.sender, entry.receiver, entry.ftype == _FT_ENVELOPE)
        if self._lost(frame):
            return
        if not await self._ensure_connection():
            # Peer not up (yet / anymore).  Shed the frame -- the peer is
            # "crashed" from our point of view, delivery was never
            # credited, and resubscription replay heals the gap.
            self.dropped_frames += 1
            return
        self._gathered.append(frame)
        if rules:
            await self._flush()

    def _lost(self, frame: _Stamped) -> bool:
        """Draw the frame's injected drops; True when they exhaust its retry
        budget (the frame is then a dead letter).

        An injected drop is a lost write: it consumes one bounded retry, so
        chaos-level drop rates are absorbed and only a pathological streak
        dead-letters a frame.
        """
        faults = self._transport.faults
        while frame.rules and faults.fires(DROP, frame.rules, frame.sender, frame.receiver):
            if not self._retry(frame):
                return True
        return False

    def _retry(self, frame: _Stamped) -> bool:
        """Charge one attempt to ``frame``; False, and a dead letter, when
        that exhausts its bounded retry budget."""
        frame.attempts += 1
        if frame.attempts > _SEND_RETRIES:
            self.dead_letters += 1
            return False
        self.retries += 1
        return True

    async def _flush(self) -> None:
        """Write the gathered frames as one socket write; a failed write
        retries every frame within its own budget, after the backoff of the
        first."""
        frames, self._gathered = self._gathered, []
        while frames and not self._closed:
            if await self._write(b"".join(frame.payload for frame in frames)):
                self.frames_sent += len(frames)
                self._last_write = self._loop.time()
                if any(frame.data for frame in frames):
                    self.data_written_at = self._last_write
                await self._duplicate(frames)
                return
            retried = [frame for frame in frames if self._retry(frame)]
            if not retried:
                return
            await asyncio.sleep(self._backoff(retried[0].attempts - 1))
            frames = [frame for frame in retried if not self._lost(frame)]
            if frames and not await self._ensure_connection():
                self.dropped_frames += len(frames)
                return

    async def _duplicate(self, frames: list[_Stamped]) -> None:
        """Draw the injected duplicates of ``frames`` once they are written.

        Duplicate *after* stamping: the copy carries the same sequence
        number, so the receiver's monotonic check sheds it -- the injection
        proves the dedup path, not a delivery bug.
        """
        faults = self._transport.faults
        for frame in frames:
            if frame.rules and faults.fires(DUPLICATE, frame.rules, frame.sender, frame.receiver):
                await self._write(frame.payload)

    async def _write(self, payload: bytes) -> bool:
        """One write of ``payload`` on the open connection; False (and the
        connection closed) when it fails or times out."""
        try:
            assert self._writer is not None
            self._writer.write(payload)
            await asyncio.wait_for(self._writer.drain(), _SEND_TIMEOUT)
            return True
        except (ConnectionError, OSError, asyncio.TimeoutError):
            self._close_writer()
            self.connected = False
            return False

    def _backoff(self, attempt: int) -> float:
        return backoff_delay(
            attempt,
            base=_BACKOFF_BASE,
            cap=_BACKOFF_CAP,
            seed=self._transport.faults.plan.seed,
            link=self.peer,
        )

    async def _ensure_connection(self) -> bool:
        """Connect if needed, honouring the capped-exponential backoff window."""
        if self._writer is not None:
            return True
        if self._loop.time() < self._next_connect_at:
            return False
        if not self.connected:
            self.reconnect_attempts += 1
        try:
            _, writer = await asyncio.wait_for(
                asyncio.open_unix_connection(self.path), _SEND_TIMEOUT
            )
        except (OSError, asyncio.TimeoutError):
            self.connected = False
            self._connect_failures += 1
            self._next_connect_at = self._loop.time() + self._backoff(
                self._connect_failures - 1
            )
            return False
        self._writer = writer
        if not self.connected:
            self.reconnects += 1
        self.connected = True
        self._connect_failures = 0
        self._next_connect_at = 0.0
        return True

    def _close_writer(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:  # pragma: no cover - best effort
                pass
            self._writer = None

    def stats(self) -> dict:
        return {
            "frames_sent": self.frames_sent,
            "dropped_frames": self.dropped_frames,
            "dead_letters": self.dead_letters,
            "retries": self.retries,
            "reconnect_attempts": self.reconnect_attempts,
            "reconnects": self.reconnects,
            "connected": self.connected,
        }

    async def close(self) -> None:
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):  # pragma: no cover
                pass
        self._close_writer()


class LiveTransport:
    """Network-surface-compatible message fabric over Unix-domain sockets."""

    def __init__(
        self,
        worker: str,
        socket_path: str,
        endpoint_worker: dict[str, str],
        worker_sockets: dict[str, str],
        clock,
        generation: int = 0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.worker = worker
        self.socket_path = socket_path
        self.generation = generation
        self._endpoint_worker = dict(endpoint_worker)
        self._worker_sockets = dict(worker_sockets)
        self.clock = clock
        self.faults = WireFaults(fault_plan if fault_plan is not None else FaultPlan(), clock)
        #: The fault account by kind and as an event log (window denials included).
        self.injected, self.fault_events = self.faults.injected, self.faults.events
        self._loop = asyncio.get_event_loop()
        self._handlers: dict[str, MessageHandler] = {}
        self._links: dict[str, PeerLink] = {}
        self._server: asyncio.AbstractServer | None = None
        self._reader_tasks: set[asyncio.Task] = set()
        self._heartbeat_task: asyncio.Task | None = None
        self._closed = False
        self.stats = NetworkStats()
        # ---- hosted-endpoint index (for worker-granular heartbeat blocking) --
        hosted: dict[str, list[str]] = {}
        for endpoint, owner in self._endpoint_worker.items():
            hosted.setdefault(owner, []).append(endpoint)
        self._hosted_by = {owner: tuple(sorted(names)) for owner, names in hosted.items()}
        # ---- receive-side frame hardening ------------------------------------
        self._peer_generation: dict[str, int] = {}
        self._peer_seq: dict[str, int] = {}
        self.stale_rejected = 0
        self.duplicates_rejected = 0
        # ---- heartbeats and peer liveness ------------------------------------
        self.liveness = PeerLiveness(worker, self._worker_sockets)
        self.heartbeats_sent = 0
        self.heartbeats_received = 0
        self.heartbeats_suppressed = 0
        self.heartbeats_skipped = 0

    # ------------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Bind this worker's Unix socket and start accepting peer frames;
        heartbeats wait for :meth:`start_heartbeats`."""
        try:
            # A SIGKILLed predecessor leaves its socket file behind; the
            # respawned worker rebinds the same path.
            os.unlink(self.socket_path)
        except FileNotFoundError:
            pass
        self._server = await asyncio.start_unix_server(self._on_connection, path=self.socket_path)

    def start_heartbeats(self) -> None:
        """Start the heartbeat loop (a worker does at the shared epoch)."""
        if len(self._worker_sockets) > 1:
            self._heartbeat_task = self._loop.create_task(self._heartbeat_loop())

    async def close(self) -> None:
        self._closed = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except (asyncio.CancelledError, Exception):  # pragma: no cover
                pass
            self._heartbeat_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._reader_tasks):
            task.cancel()
        for link in self._links.values():
            await link.close()
        self._links.clear()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.add(task)
            task.add_done_callback(self._reader_tasks.discard)
        buffer = bytearray()
        try:
            while True:
                data = await reader.read(_READ_BYTES)
                if not data:
                    break
                buffer += data
                # Every complete frame of the buffer; a split frame's head
                # stays buffered until the rest arrives.
                start = 0
                while len(buffer) - start >= _LENGTH.size:
                    (length,) = _LENGTH.unpack_from(buffer, start)
                    if length > _MAX_FRAME_BYTES:
                        # A corrupt prefix: the stream cannot be resynchronized,
                        # so drop the connection instead of buffering the claim.
                        self.stats.dropped += 1
                        return
                    end = start + _LENGTH.size + length
                    if end > len(buffer):
                        break
                    self._on_frame(buffer[start + _LENGTH.size : end])
                    start = end
                del buffer[:start]
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    # ------------------------------------------------------------------ receive path
    def _on_frame(self, frame: bytes | bytearray) -> None:
        if len(frame) < _HEADER.size:
            self.stats.dropped += 1
            return
        ftype, generation, seq = _HEADER.unpack_from(frame)
        body = memoryview(frame)[_HEADER.size :]
        now = self.clock.now
        if ftype == _FT_HEARTBEAT:
            try:
                peer = str(body, "utf-8")
            except UnicodeDecodeError:  # pragma: no cover - corrupt frame
                self.stats.dropped += 1
                return
            if self._admit_frame(peer, generation, seq):
                self.heartbeats_received += 1
                self.liveness.heard(peer, now)
            return
        try:
            sender, receiver, kind, payload = wire.decode_envelope(body)
        except wire.WireError:
            self.stats.dropped += 1
            return
        peer = self._endpoint_worker.get(sender, sender)
        if not self._admit_frame(peer, generation, seq):
            self.stats.dropped += 1
            self.stats.record(kind, "dropped")
            return
        self.liveness.heard(peer, now)
        self._deliver_local(Message(sender, receiver, kind, payload, sent_at=now))

    def _admit_frame(self, peer: str, generation: int, seq: int) -> bool:
        """Stale-generation and duplicate-sequence rejection for one link.

        A respawned sender announces a higher generation (the supervisor
        bumps it), which resets the expected sequence; frames stamped with an
        older generation are a predecessor's leftovers and are rejected, as
        is any non-increasing sequence within a generation (injected or real
        duplicates -- each worker pair shares one FIFO socket).
        """
        known = self._peer_generation.get(peer)
        if known is not None and generation < known:
            self.stale_rejected += 1
            return False
        if known is None or generation > known:
            self._peer_generation[peer] = generation
            self._peer_seq[peer] = -1
        if seq <= self._peer_seq.get(peer, -1):
            self.duplicates_rejected += 1
            return False
        self._peer_seq[peer] = seq
        return True

    # ------------------------------------------------------------------ heartbeats
    async def _heartbeat_loop(self) -> None:
        while not self._closed:
            await asyncio.sleep(HEARTBEAT_INTERVAL)
            self._heartbeat_tick(self.clock.now)

    def _heartbeat_tick(self, now: float) -> None:
        mine = self._hosted_by.get(self.worker, ())
        body = self.worker.encode("utf-8")
        # A link that carried data within the interval has just been heard;
        # heartbeats do not count, so an idle link keeps the full cadence.
        recent = self._loop.time() - HEARTBEAT_INTERVAL
        for peer in self.liveness.peers:
            if self.faults.active and self.faults.plan.blocked_worker(
                mine, self._hosted_by.get(peer, ()), now
            ):
                # A partition isolating every endpoint pair between the two
                # workers silences the heartbeat too: the peer *should* start
                # suspecting us, exactly like a real network split.
                self.heartbeats_suppressed += 1
                continue
            link = self._link_to(peer)
            if link.data_written_at > recent:
                self.heartbeats_skipped += 1
                continue
            link.enqueue(_FT_HEARTBEAT, self.worker, peer, "heartbeat", body)
            self.heartbeats_sent += 1
        self.liveness.sweep(now)

    # ------------------------------------------------------------------ topology
    def register(self, name: str, handler: MessageHandler) -> None:
        if name in self._handlers:
            raise NetworkError(f"endpoint {name!r} already registered")
        self._handlers[name] = handler

    def unregister(self, name: str) -> None:
        self._handlers.pop(name, None)

    # ------------------------------------------------------------------ failures
    # Live failures are scheduled, not imperative: crash windows become
    # supervisor SIGKILLs, disconnect/partition windows live in the FaultPlan
    # enforced on the send path.
    def crash(self, name: str) -> None:
        """No-op: a live endpoint 'crashes' by its process dying."""

    def recover(self, name: str) -> None:
        """No-op: a live endpoint recovers by its process being respawned."""

    def is_down(self, name: str) -> bool:
        owner = self._endpoint_worker.get(name)
        if owner is None or owner == self.worker:
            return False
        return self.liveness.state(owner) is PeerState.DOWN

    def can_communicate(self, sender: str, receiver: str) -> bool:
        # Scheduled windows answer first (the experiment's oracle; a denial is
        # counted here as at send time), then heartbeat-confirmed DOWN peers;
        # the rest is optimistic True -- what a real deployment can know at
        # send time, letting the protocol's own failure detection do its job.
        if self.faults.active and self.faults.denies(sender, receiver, self.clock.now):
            return False
        return not (self.is_down(sender) or self.is_down(receiver))

    # ------------------------------------------------------------------ messaging
    def send(self, sender: str, receiver: str, kind: str, payload: Any) -> bool:
        return bool(self.send_many(sender, (receiver,), kind, payload))

    def send_many(
        self, sender: str, receivers: Sequence[str], kind: str, payload: Any
    ) -> list[str]:
        for receiver in receivers:
            if receiver not in self._endpoint_worker:
                raise NetworkError(f"unknown endpoint {receiver!r}")
        now = self.clock.now
        faults = self.faults
        encoded: bytes | None = None  # the payload, encoded for the first remote receiver
        on_the_wire: list[str] = []
        for receiver in receivers:
            self.stats.sent += 1
            self.stats.record(kind, "sent")
            if faults.active and faults.denies(sender, receiver, now):
                # Credit denial is the whole mechanism: the sender's
                # cursors/buffers hold, exactly like the simulator skipping a
                # crashed or partitioned endpoint.
                self.stats.dropped += 1
                self.stats.record(kind, "dropped")
                continue
            target_worker = self._endpoint_worker[receiver]
            if target_worker == self.worker:
                message = Message(sender, receiver, kind, payload, sent_at=now)
                self._loop.call_soon(self._deliver_local, message)
            else:
                if encoded is None:
                    encoded = wire.encode_payload(kind, payload)
                link = self._link_to(target_worker)
                link.enqueue(
                    _FT_ENVELOPE,
                    sender,
                    receiver,
                    kind,
                    wire.encode_envelope_prefix(sender, receiver),
                    encoded,
                )
                if not link.connected:
                    # Mirror the simulator's crashed-endpoint semantics: a
                    # peer whose socket last refused us is not credited with
                    # delivery, so outputs stay buffered and source cursors
                    # hold until the respawned worker reconnects.
                    self.stats.dropped += 1
                    self.stats.record(kind, "dropped")
                    continue
            on_the_wire.append(receiver)
        return on_the_wire

    def _link_to(self, worker: str) -> PeerLink:
        link = self._links.get(worker)
        if link is None:
            link = PeerLink(worker, self._worker_sockets[worker], self)
            self._links[worker] = link
        return link

    def _deliver_local(self, message: Message) -> None:
        handler = self._handlers.get(message.receiver)
        if handler is None:
            self.stats.dropped += 1
            self.stats.record(message.kind, "dropped")
            return
        self.stats.delivered += 1
        self.stats.record(message.kind, "delivered")
        handler(message, self.clock.now)

    # ------------------------------------------------------------------ reporting
    def transport_stats(self) -> dict:
        """Hardening + fault-injection counters for this worker's result."""
        return {
            "worker": self.worker,
            "generation": self.generation,
            "links": {peer: link.stats() for peer, link in sorted(self._links.items())},
            "stale_rejected": self.stale_rejected,
            "duplicates_rejected": self.duplicates_rejected,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeats_received": self.heartbeats_received,
            "heartbeats_suppressed": self.heartbeats_suppressed,
            "heartbeats_skipped": self.heartbeats_skipped,
            "suspicions": self.liveness.suspicions,
            "confirmations": self.liveness.confirmations,
            "peer_states": self.liveness.states(),
            "peer_transitions": list(self.liveness.transitions),
            "injected": dict(self.faults.injected),
            "fault_events": list(self.faults.events),
            "fault_events_dropped": self.faults.events_dropped,
        }
