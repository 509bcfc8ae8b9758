"""In-process tests of the live transport's framing (tier-1, no fork).

Two :class:`~repro.live.transport.LiveTransport` instances share one asyncio
loop and talk over temporary Unix sockets, exactly as two worker processes
would; a raw socket connection plays the misbehaving peer.  Pinned here: a
fan-out encodes its payload once, malformed and oversized frames are counted
drops that never take the receiver down, frames queued in one loop turn
leave as one socket write and decode however the reads split them,
sequence/generation admission holds for frames assembled in one buffer, and
a seeded wire-fault plan injects the same faults in the same order on every
run.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time

import pytest

from repro.core.protocol import DATA, RECONCILE_REQUEST, DataBatch, ReconcileRequest
from repro.core.states import NodeState
from repro.live import transport as transport_module
from repro.live import wire
from repro.live.clock import LiveClock
from repro.live.faults import (
    DELAY,
    DISCONNECT,
    DROP,
    DUPLICATE,
    REORDER,
    THROTTLE,
    FaultPlan,
    LinkRule,
)
from repro.live.liveness import DOWN_AFTER, HEARTBEAT_INTERVAL, SUSPECT_AFTER, PeerState
from repro.live.transport import LiveTransport
from repro.spe.tuples import StreamTuple

#: endpoint -> worker: one producer on worker ``wa``, two consumers on ``wb``.
ENDPOINTS = {"src": "wa", "n1": "wb", "n2": "wb"}


class Fabric:
    """Two started transports plus the messages each ``wb`` endpoint received."""

    def __init__(self, fault_plan: FaultPlan | None = None) -> None:
        # Unix socket paths are limited to ~100 bytes: keep the directory short.
        self.directory = tempfile.mkdtemp(prefix="rt-")
        self.sockets = {w: f"{self.directory}/{w}.sock" for w in ("wa", "wb")}
        clock = LiveClock()
        clock.start(time.monotonic())
        self.a, self.b = (
            LiveTransport(
                worker, self.sockets[worker], ENDPOINTS, self.sockets, clock,
                fault_plan=fault_plan,
            )
            for worker in ("wa", "wb")
        )
        self.received: dict[str, list] = {"n1": [], "n2": []}
        for endpoint, inbox in self.received.items():
            self.b.register(endpoint, lambda message, now, inbox=inbox: inbox.append(message))

    async def __aenter__(self) -> "Fabric":
        await self.a.start()
        await self.b.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.a.close()
        await self.b.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    async def raw_peer(self):
        """A bare connection to ``wb``'s socket (the misbehaving peer)."""
        return await asyncio.open_unix_connection(self.sockets["wb"])


async def eventually(condition, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        await asyncio.sleep(0.005)


def batch(first_id: int = 0) -> DataBatch:
    tuples = [
        StreamTuple.insertion(first_id + i, 0.25 * i, {"seq": i, "value": i / 2})
        for i in range(5)
    ]
    return DataBatch.of("s", [*tuples, StreamTuple.boundary(first_id + 5, 2.0)], "src",
                        NodeState.STABLE, NodeState.STABLE)


def frame(generation: int, seq: int, body: bytes, ftype: int = 0) -> bytes:
    """One on-the-wire frame as a peer of the given generation would stamp it."""
    header = transport_module._HEADER.pack(ftype, generation, seq)
    return transport_module._LENGTH.pack(len(header) + len(body)) + header + body


def envelope(receiver: str = "n1", first_id: int = 0) -> bytes:
    # "ghost" is no known endpoint, so its frames form a link of their own and
    # never collide with the sequence numbers of the real ``wa`` -> ``wb`` link.
    return wire.encode_envelope("ghost", receiver, DATA, batch(first_id))


def run(coroutine) -> None:
    asyncio.run(asyncio.wait_for(coroutine, timeout=30.0))


# ---------------------------------------------------------------------- encode once
def test_send_many_encodes_the_payload_once_per_call(monkeypatch):
    calls = []
    encode_payload = wire.encode_payload

    def counting(kind, payload):
        calls.append(kind)
        return encode_payload(kind, payload)

    monkeypatch.setattr(wire, "encode_payload", counting)

    async def scenario():
        async with Fabric() as fabric:
            sent = batch()
            assert fabric.a.send_many("src", ("n1", "n2"), DATA, sent) == ["n1", "n2"]
            await eventually(lambda: all(fabric.received.values()))
            assert calls == [DATA]
            for endpoint, inbox in fabric.received.items():
                (message,) = inbox
                assert (message.sender, message.receiver, message.kind) == ("src", endpoint, DATA)
                assert message.payload == sent
            # One frame per receiver still crossed the socket.
            assert fabric.a.transport_stats()["links"]["wb"]["frames_sent"] >= 2
            # A second call encodes again (once), and control messages ride the same path.
            request = ReconcileRequest("src", 7)
            fabric.a.send_many("src", ("n2", "n1"), RECONCILE_REQUEST, request)
            await eventually(lambda: all(len(inbox) == 2 for inbox in fabric.received.values()))
            assert calls == [DATA, RECONCILE_REQUEST]
            assert fabric.received["n1"][1].payload == request

    run(scenario())


def test_local_delivery_never_encodes(monkeypatch):
    monkeypatch.setattr(wire, "encode_payload", lambda kind, payload: pytest.fail("encoded"))

    async def scenario():
        async with Fabric() as fabric:
            assert fabric.b.send_many("n1", ("n2",), DATA, batch()) == ["n2"]
            await eventually(lambda: fabric.received["n2"])
            assert fabric.received["n2"][0].payload == batch()

    run(scenario())


# ---------------------------------------------------------------------- heartbeats
def test_a_link_that_carried_data_skips_its_heartbeat_and_an_idle_link_does_not():
    async def scenario():
        async with Fabric() as fabric:
            a, b = fabric.a, fabric.b
            a.send("src", "n1", DATA, batch())
            await eventually(lambda: fabric.received["n1"])
            a._heartbeat_tick(a.clock.now)  # wa -> wb carried data within the interval
            b._heartbeat_tick(b.clock.now)  # wb -> wa is idle
            assert (a.heartbeats_sent, a.heartbeats_skipped) == (0, 1)
            assert (b.heartbeats_sent, b.heartbeats_skipped) == (1, 0)
            await eventually(lambda: a.heartbeats_received == 1)
            assert b.liveness.state("wa") is PeerState.ALIVE
            assert a.transport_stats()["heartbeats_skipped"] == 1
            # A whole interval without data: the heartbeat is due again.
            await asyncio.sleep(HEARTBEAT_INTERVAL)
            a._heartbeat_tick(a.clock.now)
            assert (a.heartbeats_sent, a.heartbeats_skipped) == (1, 1)
            await eventually(lambda: b.heartbeats_received == 1)

    run(scenario())


def test_a_sender_that_stops_writing_is_suspect_then_down():
    """Skipped heartbeats leave the receiver's thresholds where they were."""

    async def scenario():
        async with Fabric() as fabric:
            a, b = fabric.a, fabric.b
            a.send("src", "n1", DATA, batch())
            await eventually(lambda: fabric.received["n1"])
            heard = fabric.received["n1"][0].sent_at
            for silence, state in (
                (SUSPECT_AFTER - 0.01, PeerState.ALIVE),
                (SUSPECT_AFTER + 1e-6, PeerState.SUSPECT),
                (DOWN_AFTER - 0.01, PeerState.SUSPECT),
                (DOWN_AFTER + 1e-6, PeerState.DOWN),
            ):
                b.liveness.sweep(heard + silence)
                assert b.liveness.state("wa") is state, silence

    assert (SUSPECT_AFTER, DOWN_AFTER) == (0.75, 2.5)
    run(scenario())


# ---------------------------------------------------------------------- malformed input
def test_garbage_and_oversized_frames_are_counted_drops():
    async def scenario():
        async with Fabric() as fabric:
            reader, writer = await fabric.raw_peer()
            good = envelope()
            # Garbage bodies: random bytes, a truncated envelope, a v1 frame,
            # and a frame shorter than the transport header.
            garbage = [b"\xff" * 40, good[: len(good) // 2], b"\x01" + good[1:]]
            for seq, body in enumerate(garbage):
                writer.write(frame(0, seq, body))
            writer.write(transport_module._LENGTH.pack(3) + b"abc")
            await writer.drain()
            await eventually(lambda: fabric.b.stats.dropped == len(garbage) + 1)
            assert not fabric.received["n1"]
            # The same connection's reader is still running.
            writer.write(frame(0, 10, good))
            await writer.drain()
            await eventually(lambda: len(fabric.received["n1"]) == 1)
            # An absurd length prefix is refused without reading (or allocating)
            # the claimed body, and that connection is closed.
            writer.write(transport_module._LENGTH.pack(transport_module._MAX_FRAME_BYTES + 1))
            writer.write(b"x" * 64)
            await writer.drain()
            await eventually(lambda: fabric.b.stats.dropped == len(garbage) + 2)
            assert await reader.read() == b""  # EOF: the receiver hung up
            writer.close()
            # A fresh connection -- a raw one and the real link -- still delivers.
            _, fresh = await fabric.raw_peer()
            fresh.write(frame(0, 11, envelope(first_id=100)))
            await fresh.drain()
            assert fabric.a.send("src", "n1", DATA, batch(200))
            await eventually(lambda: len(fabric.received["n1"]) == 3)
            assert {m.payload.tuples[0].tuple_id for m in fabric.received["n1"]} == {0, 100, 200}
            fresh.close()

    run(scenario())


def test_frame_bound_covers_the_largest_legitimate_frames():
    # The bound must refuse only nonsense: the 32-bit prefix can claim 4 GiB,
    # the largest measured checkpoint frames are a few MB.
    assert 64 * 2**20 <= transport_module._MAX_FRAME_BYTES < 2**32


# ---------------------------------------------------------------------- one write per wakeup
def split_frames(data: bytes) -> list[tuple[int, int, bytes]]:
    """(frame type, link sequence, body) of each frame in a socket write."""
    frames, start = [], 0
    while start < len(data):
        (length,) = transport_module._LENGTH.unpack_from(data, start)
        start += transport_module._LENGTH.size
        ftype, _, seq = transport_module._HEADER.unpack_from(data, start)
        frames.append((ftype, seq, data[start + transport_module._HEADER.size : start + length]))
        start += length
    return frames


def record_writes(monkeypatch) -> list[bytes]:
    """Every socket write of every link, in order."""
    writes: list[bytes] = []
    write = transport_module.PeerLink._write

    async def recording(link, payload):
        writes.append(bytes(payload))
        return await write(link, payload)

    monkeypatch.setattr(transport_module.PeerLink, "_write", recording)
    return writes


def data_writes(writes: list[bytes]) -> list[list[tuple[int, int, bytes]]]:
    """The writes that carried envelope frames."""
    frames = [split_frames(data) for data in writes]
    return [w for w in frames if any(ftype == transport_module._FT_ENVELOPE for ftype, *_ in w)]


def test_frames_queued_in_one_turn_leave_as_one_write(monkeypatch):
    writes = record_writes(monkeypatch)

    async def scenario():
        async with Fabric() as fabric:
            for round_ in range(2):
                writes.clear()
                first = 5 * round_
                for index in range(first, first + 5):  # one loop turn: no await between
                    assert fabric.a.send("src", "n1" if index % 2 else "n2", DATA, batch(index))
                await eventually(lambda: sum(map(len, fabric.received.values())) == first + 5)
                (frames,) = data_writes(writes)
                seqs = [seq for _, seq, _ in frames]
                assert seqs == list(range(seqs[0], seqs[0] + len(frames)))
                sent = [(wire.decode_envelope(body)[1], wire.decode_envelope(body)[3])
                        for ftype, _, body in frames if ftype == transport_module._FT_ENVELOPE]
                assert [(r, p.tuples[0].tuple_id) for r, p in sent] == [
                    ("n1" if index % 2 else "n2", index) for index in range(first, first + 5)
                ]
            # The link counts frames, not writes.
            assert fabric.a.transport_stats()["links"]["wb"]["frames_sent"] >= 10

    run(scenario())


def test_an_oversized_frame_is_dead_lettered_and_its_neighbours_delivered(monkeypatch):
    writes = record_writes(monkeypatch)
    small, big = batch(0), batch(100)
    bound = len(wire.encode_envelope("src", "n1", DATA, small)) * 2
    big = DataBatch.of("s", [*big.tuples] * 20, "src", NodeState.STABLE, NodeState.STABLE)
    assert len(wire.encode_envelope("src", "n1", DATA, big)) > bound
    monkeypatch.setattr(transport_module, "_MAX_FRAME_BYTES", bound)

    async def scenario():
        async with Fabric() as fabric:
            for payload in (small, big, batch(200)):
                fabric.a.send("src", "n1", DATA, payload)
            await eventually(lambda: len(fabric.received["n1"]) == 2)
            link = fabric.a.transport_stats()["links"]["wb"]
            assert (link["dead_letters"], link["frames_sent"]) == (1, 2)
            assert [m.payload.tuples[0].tuple_id for m in fabric.received["n1"]] == [0, 200]
            # The refused frame took no sequence number: the receiver saw no gap.
            (frames,) = data_writes(writes)
            assert [seq for _, seq, _ in frames] == [0, 1]
            assert fabric.b.stats.dropped == 0

    run(scenario())


def test_split_frames_and_several_frames_per_read_decode():
    async def scenario():
        async with Fabric() as fabric:
            _, writer = await fabric.raw_peer()
            first, second, third = (frame(0, seq, envelope(first_id=10 * seq)) for seq in range(3))
            writer.write(first[:7])  # the length prefix and part of the header
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.write(first[7:-5])
            await writer.drain()
            await asyncio.sleep(0.05)
            assert not fabric.received["n1"]  # nothing decoded from a partial frame
            writer.write(first[-5:] + second + third)  # the tail and two whole frames
            await writer.drain()
            await eventually(lambda: len(fabric.received["n1"]) == 3)
            assert [m.payload.tuples[0].tuple_id for m in fabric.received["n1"]] == [0, 10, 20]
            assert fabric.b.stats.dropped == 0
            writer.close()

    run(scenario())


def test_an_oversized_length_prefix_after_a_good_frame_drops_the_connection():
    async def scenario():
        async with Fabric() as fabric:
            reader, writer = await fabric.raw_peer()
            oversized = transport_module._LENGTH.pack(transport_module._MAX_FRAME_BYTES + 1)
            writer.write(frame(0, 0, envelope()) + oversized + b"x" * 64)  # one read
            await writer.drain()
            await eventually(lambda: fabric.b.stats.dropped == 1)
            assert len(fabric.received["n1"]) == 1  # the frame ahead of it was delivered
            assert await reader.read() == b""  # EOF: the receiver hung up
            writer.close()

    run(scenario())


# ---------------------------------------------------------------------- admission
def test_sequence_dedup_and_stale_generation_rejection():
    async def scenario():
        async with Fabric() as fabric:
            _, writer = await fabric.raw_peer()
            delivered = lambda: len(fabric.received["n1"])  # noqa: E731

            async def push(generation: int, seq: int, first_id: int) -> None:
                writer.write(frame(generation, seq, envelope(first_id=first_id)))
                await writer.drain()

            await push(1, 0, 0)
            await eventually(lambda: delivered() == 1)
            await push(1, 0, 0)  # the same stamped frame again: shed
            await eventually(lambda: fabric.b.duplicates_rejected == 1)
            await push(0, 5, 10)  # a predecessor's zombie write: stale generation
            await eventually(lambda: fabric.b.stale_rejected == 1)
            await push(1, 1, 20)
            await eventually(lambda: delivered() == 2)
            await push(2, 0, 30)  # respawned sender: sequence restarts
            await eventually(lambda: delivered() == 3)
            assert [m.payload.tuples[0].tuple_id for m in fabric.received["n1"]] == [0, 20, 30]
            assert fabric.b.stats.dropped == 2
            writer.close()

    run(scenario())


def test_link_stamps_monotonic_sequences_and_duplicates_are_shed():
    plan = FaultPlan(seed=3, rules=(LinkRule(DUPLICATE, sender="src", receiver="n1"),))

    async def scenario():
        async with Fabric(fault_plan=plan) as fabric:
            for index in range(4):
                assert fabric.a.send("src", "n1", DATA, batch(index * 10))
            await eventually(lambda: len(fabric.received["n1"]) == 4)
            await eventually(lambda: fabric.b.duplicates_rejected == 4)
            # Every frame arrived once, in order, although each was written twice.
            assert [m.payload.tuples[0].tuple_id for m in fabric.received["n1"]] == [0, 10, 20, 30]
            assert fabric.a.injected[DUPLICATE] == 4
            assert fabric.b.stale_rejected == 0

    run(scenario())


def test_duplicate_is_drawn_only_for_a_written_frame(monkeypatch):
    async def failing_write(self, payload: bytes) -> bool:
        return False

    monkeypatch.setattr(transport_module.PeerLink, "_write", failing_write)
    plan = FaultPlan(seed=3, rules=(LinkRule(DUPLICATE, sender="src", probability=1.0),))

    async def scenario():
        directory = tempfile.mkdtemp(prefix="rt-")
        sockets = {w: f"{directory}/{w}.sock" for w in ("wa", "wb")}
        clock = LiveClock()
        clock.start(time.monotonic())
        # No heartbeat loop is started: no heartbeat frames share the link.
        a = LiveTransport("wa", sockets["wa"], ENDPOINTS, sockets, clock, fault_plan=plan)
        b = LiveTransport("wb", sockets["wb"], ENDPOINTS, sockets, clock, fault_plan=plan)
        await a.start()
        await b.start()
        try:
            a.send("src", "n1", DATA, batch())
            link = lambda: a.transport_stats()["links"]["wb"]  # noqa: E731
            await eventually(lambda: link()["dead_letters"] == 1)
            # Every write failed: no copy reached the wire, so none is counted.
            assert link()["retries"] == transport_module._SEND_RETRIES
            assert a.injected[DUPLICATE] == 0
            assert a.fault_events == []
        finally:
            await a.close()
            await b.close()
            shutil.rmtree(directory, ignore_errors=True)

    run(scenario())


# ---------------------------------------------------------------------- window denials
def test_a_window_denial_decided_by_can_communicate_is_counted():
    # A node leaves a subscriber out of its flush when ``can_communicate``
    # answers a window rule, so no send reaches the transport to be denied:
    # the denial is counted where it is decided.
    plan = FaultPlan(seed=1, rules=(LinkRule(DISCONNECT, sender="src", receiver="n1"),))

    async def scenario():
        async with Fabric(plan) as fabric:
            assert not fabric.a.can_communicate("src", "n1")
            assert fabric.a.can_communicate("src", "n2")
            assert fabric.a.injected == {DISCONNECT: 1}
            event = fabric.a.transport_stats()["fault_events"][0]
            assert (event["kind"], event["sender"], event["receiver"]) == (DISCONNECT, "src", "n1")

    run(scenario())


# ---------------------------------------------------------------------- decision stream
#: Every wire-fault kind on the producer's links.  Throttle comes first so a
#: frame's own injected delay never eats into its spacing from the previous
#: write; its interval dwarfs the back-to-back gap, so it fires on every frame
#: after the first whatever the host's speed.
STREAM_PLAN = FaultPlan(seed=11, rules=(
    LinkRule(THROTTLE, sender="src", min_interval=0.04),
    LinkRule(REORDER, sender="src", probability=0.4),
    LinkRule(DROP, sender="src", receiver="n1", probability=0.5),
    LinkRule(DUPLICATE, sender="src", probability=0.3),
    LinkRule(DELAY, sender="src", receiver="n2", probability=0.5, delay=0.001, jitter=0.002),
))
#: The (kind, sender, receiver) of each injected fault, in injection order.
STREAM_EVENTS = [
    ("reorder", "src", "n1"),
    ("throttle", "src", "n1"),
    ("drop", "src", "n1"),
    ("drop", "src", "n1"),
    ("duplicate", "src", "n1"),
    ("reorder", "src", "n1"),
    ("throttle", "src", "n2"),
    ("throttle", "src", "n1"),
    ("throttle", "src", "n1"),
    ("drop", "src", "n1"),
    ("drop", "src", "n1"),
    ("throttle", "src", "n2"),
    ("delay", "src", "n2"),
    ("duplicate", "src", "n2"),
    ("reorder", "src", "n1"),
    ("throttle", "src", "n2"),
    ("throttle", "src", "n1"),
    ("reorder", "src", "n1"),
    ("throttle", "src", "n2"),
    ("throttle", "src", "n1"),
    ("drop", "src", "n1"),
    ("drop", "src", "n1"),
    ("drop", "src", "n1"),
    ("drop", "src", "n1"),
    ("duplicate", "src", "n1"),
    ("throttle", "src", "n1"),
    ("throttle", "src", "n2"),
    ("delay", "src", "n2"),
    ("duplicate", "src", "n2"),
    ("throttle", "src", "n2"),
]
STREAM_INJECTED = {REORDER: 4, THROTTLE: 12, DROP: 8, DUPLICATE: 4, DELAY: 2}
#: (receiver, first tuple id) of each delivered frame, in delivery order.
STREAM_DELIVERED = [
    ("n2", 0),
    ("n1", 0),
    ("n2", 10),
    ("n1", 10),
    ("n1", 20),
    ("n2", 20),
    ("n2", 30),
    ("n1", 30),
    ("n2", 40),
    ("n1", 40),
    ("n1", 50),
    ("n2", 50),
    ("n2", 100),
]


def test_wire_fault_decision_stream_is_pinned():
    async def scenario():
        directory = tempfile.mkdtemp(prefix="rt-")
        sockets = {w: f"{directory}/{w}.sock" for w in ("wa", "wb")}
        clock = LiveClock()
        clock.start(time.monotonic())
        # No heartbeat loop is started: its frames would join the link's
        # queue on a wall-clock cadence and make the reorder decisions
        # timing-dependent.
        a = LiveTransport("wa", sockets["wa"], ENDPOINTS, sockets, clock, fault_plan=STREAM_PLAN)
        b = LiveTransport("wb", sockets["wb"], ENDPOINTS, sockets, clock, fault_plan=STREAM_PLAN)
        delivered = []
        for endpoint in ("n1", "n2"):
            b.register(endpoint, lambda message, now: delivered.append(
                (message.receiver, message.payload.tuples[0].tuple_id)))
        await a.start()
        await b.start()
        try:
            # Every frame is queued before the link's writer first runs.
            for index in range(6):
                a.send_many("src", ("n1", "n2"), DATA, batch(index * 10))
            a.send("src", "n2", DATA, batch(100))
            link = lambda: a.transport_stats()["links"]["wb"]  # noqa: E731
            await eventually(lambda: link()["frames_sent"] + link()["dead_letters"] == 13,
                             timeout=10.0)
            await eventually(lambda: len(delivered) == link()["frames_sent"])
        finally:
            await a.close()
            await b.close()
            shutil.rmtree(directory, ignore_errors=True)
        events = [(e["kind"], e["sender"], e["receiver"]) for e in a.fault_events]
        return events, dict(a.injected), delivered

    events, injected, delivered = asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))
    assert events == STREAM_EVENTS
    assert injected == STREAM_INJECTED
    assert delivered == STREAM_DELIVERED
