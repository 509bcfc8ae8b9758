"""Live worker process: one fragment of a Placement on a real event loop.

A worker hosts a set of *endpoints* -- node replicas, data sources, client
proxies -- and builds them through the same placement walk the simulator
uses (:func:`repro.deploy.wiring.wire_placement`), with ``hosts = endpoint in
spec.hosted``: every registration lands on whichever side of the edge this
worker hosts, so the union of all workers is the simulator deployment edge
for edge.

The supervisor (:mod:`repro.live.supervisor`) assigns one worker per node
replica plus a single *edge* worker hosting every source and client; killing
a worker therefore kills exactly one replica, and its partner -- a different
process -- serves the checkpoint-shipped recovery over real sockets.

Workers are spawned with the ``fork`` start method: the compiled placement
(which holds payload generators and diagram factories) crosses into the
child by memory inheritance, never by pickling.

Start-up is a handshake on the control pipe: a worker builds its fragment,
binds its socket and sends ``("ready", name)``, then waits for ``("start",
epoch)`` -- the shared monotonic time that is deployment t=0 -- and starts
its sources, nodes, clients and heartbeats at that epoch.
"""

from __future__ import annotations

import asyncio
import resource
import time
from dataclasses import dataclass
from typing import Mapping

from ..core.protocol import CHECKPOINT_ACK, CheckpointAck
from ..deploy.placement import DeployOptions, Placement
from ..deploy.wiring import Wiring, wire_placement
from ..metrics.consistency import client_is_eventually_consistent, stable_ledger_rows
from ..sim.client import ClientApplication
from ..spe.tuples import TENTATIVE
from ..statexfer import PeerRegistry
from . import wire
from .clock import LiveClock
from .faults import FaultPlan
from .transport import LiveTransport


class RemotePeerRegistry(PeerRegistry):
    """Peer registry for a live worker: only locally hosted peers resolve.

    ``remote = True`` switches the partner choice of
    :class:`~repro.core.recovery.Recovery` to blind selection (no
    cross-process peeking); lookups of peers hosted elsewhere return
    ``None``, which every registry consumer already treats as "not
    available" (replay estimates become 0 -- a documented live deviation).
    Checkpoint acknowledgments travel as ``CHECKPOINT_ACK``
    messages through the transport, which delivers to co-hosted producers
    without encoding and sheds frames to a peer that is down.
    """

    remote = True

    def __init__(self, network: LiveTransport) -> None:
        super().__init__()
        self._network = network

    def acknowledge(self, producer: str, ack: CheckpointAck) -> None:
        self._network.send(ack.consumer, producer, CHECKPOINT_ACK, ack)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs to build and address its fragment."""

    name: str
    hosted: frozenset[str]
    socket_path: str
    #: worker name -> Unix socket path (full deployment).
    worker_sockets: Mapping[str, str]
    #: endpoint -> worker name (full deployment).
    endpoint_worker: Mapping[str, str]
    #: Endpoints that must run ``recover()`` right after starting (respawn).
    recovering: frozenset[str] = frozenset()
    #: Incarnation number; the supervisor bumps it on every respawn so peers
    #: can reject stale-generation frames from a SIGKILLed predecessor.
    generation: int = 0
    #: Scheduled wire/window faults this worker's transport enforces.
    fault_plan: FaultPlan = FaultPlan()
    #: Where to dump a CPU-time cProfile of this process (``repro profile
    #: live``); ``None`` (the default) runs unprofiled.
    profile_path: str | None = None


# --------------------------------------------------------------------------- results
def _client_result(client: ClientApplication) -> dict:
    return {
        "summary": client.summary(),
        # The ledger's sealed segments verbatim plus its encoded tail: rows
        # are built by whoever reads them (``LiveRunResult.stable_rows``).
        "ledger_segments": client.metrics.consistency.ledger.segments(),
        "eventually_consistent": client_is_eventually_consistent(client),
    }


def _status(wiring: Wiring, clock: LiveClock, transport: LiveTransport) -> dict:
    return {
        "now": clock.now,
        "ledgers": {
            name: len(client.metrics.consistency.ledger)
            for name, client in wiring.clients.items()
        },
        "stable": {
            name: client.metrics.consistency.total_stable
            for name, client in wiring.clients.items()
        },
        "peers": {
            peer: transport.liveness.state(peer).value for peer in transport._worker_sockets
        },
    }


def _tentative_phase(client: ClientApplication) -> dict:
    """Wall-clock window of tentative output in the client trace (seconds)."""
    arrivals = client.metrics.latency.arrivals
    codes = arrivals.codes
    first = codes.find(TENTATIVE)
    if first < 0:
        return {"first": None, "last": None, "count": 0}
    return {
        "first": arrivals.times[first],
        "last": arrivals.times[codes.rfind(TENTATIVE)],
        "count": codes.count(TENTATIVE),
    }


def _usage() -> dict:
    """This process's own cost so far; ``wakeups`` counts the times it gave
    up the CPU to wait (voluntary context switches)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_s": time.process_time(),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "wakeups": usage.ru_nvcsw,
    }


def _result(wiring: Wiring, clock: LiveClock, transport: LiveTransport) -> dict:
    return {
        "now": clock.now,
        "events_fired": clock.events_fired,
        "sources": {s.name: s.tuples_produced for s in wiring.sources.values()},
        "source_logs": {s.name: len(s.log) for s in wiring.sources.values()},
        "nodes": {
            endpoint: {"statistics": node.statistics(), "recoveries": list(node.recoveries)}
            for endpoint, node in wiring.nodes.items()
        },
        "clients": {name: _client_result(c) for name, c in wiring.clients.items()},
        "tentative_phase": {
            name: _tentative_phase(c) for name, c in wiring.clients.items()
        },
        "transport": transport.transport_stats(),
        # Read last: the cost of building the result above is included.
        "usage": _usage(),
    }


# --------------------------------------------------------------------------- process entry
def worker_main(spec: WorkerSpec, placement: Placement, options: DeployOptions, conn) -> None:
    """Process entry point (target of ``multiprocessing.Process``)."""
    profiler = None
    if spec.profile_path is not None:
        import cProfile

        # CPU time, not wall time: a descheduled process's wait is not
        # charged to whatever call it happens to be in.
        profiler = cProfile.Profile(time.process_time)
        profiler.enable()
    try:
        asyncio.run(_worker_async(spec, placement, options, conn))
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    finally:
        conn.close()
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(spec.profile_path)


async def _worker_async(
    spec: WorkerSpec, placement: Placement, options: DeployOptions, conn
) -> None:
    loop = asyncio.get_running_loop()
    clock = LiveClock(loop=loop)
    transport = LiveTransport(
        worker=spec.name,
        socket_path=spec.socket_path,
        endpoint_worker=dict(spec.endpoint_worker),
        worker_sockets=dict(spec.worker_sockets),
        clock=clock,
        generation=spec.generation,
        fault_plan=spec.fault_plan,
    )
    await transport.start()
    wiring = wire_placement(
        placement,
        clock,
        transport,
        RemotePeerRegistry(transport),
        spec.hosted.__contains__,
        options,
    )
    # Wire decoding resolves filters by name, and a worker can receive a
    # SUBSCRIBE carrying any consumer's filter during failover.
    for subscription_filter in wiring.filters.values():
        wire.register_filter(subscription_filter)
    # The handshake.  Waiting for the start message blocks the loop, so no
    # peer frame reaches the fragment before it starts: a respawned worker's
    # peers are already running, and its epoch is in the past.
    conn.send(("ready", spec.name))
    _, epoch = conn.recv()  # ("start", epoch)
    clock.start(epoch)
    # All workers start their protocol stacks at the shared epoch, so the
    # startup grace and keepalive cadences line up across processes.
    delay = epoch - time.monotonic()
    if delay > 0:
        await asyncio.sleep(delay)
    transport.start_heartbeats()
    for source in wiring.sources.values():
        source.start()
    for node in wiring.nodes.values():
        node.start()
    for client in wiring.clients.values():
        client.start()
    for endpoint in spec.recovering:
        node = wiring.nodes.get(endpoint)
        if node is not None:
            # A respawned replica rejoins the way a recovered simulated one
            # does: prefer the partner's shipped checkpoint (over sockets),
            # fall back to full subscription replay.
            node.recover()

    # The control pipe is a reader of the loop: an idle worker sleeps, and
    # "status" / "stop" are answered the moment they arrive.
    stopped = loop.create_future()

    def on_control() -> None:
        try:
            while not stopped.done() and conn.poll():
                request = conn.recv()
                if request == "status":
                    conn.send(("status", _status(wiring, clock, transport)))
                elif request == "stop":
                    conn.send(("result", _result(wiring, clock, transport)))
                    stopped.set_result(None)
        except EOFError:  # the supervisor went away
            stopped.set_result(None)
        except Exception as exc:  # fail the worker, as a raise in its main task would
            stopped.set_exception(exc)

    loop.add_reader(conn.fileno(), on_control)
    try:
        await stopped
    finally:
        loop.remove_reader(conn.fileno())
        await transport.close()


__all__ = [
    "RemotePeerRegistry",
    "WorkerSpec",
    "stable_ledger_rows",
    "worker_main",
]
