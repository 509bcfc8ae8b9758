"""Live worker process: one fragment of a Placement on a real event loop.

A worker hosts a set of *endpoints* -- node replicas, data sources, client
proxies -- and mirrors exactly the wiring walk
:func:`repro.deploy.deployment.deploy_placement` performs, gated by a
``hosts(endpoint)`` predicate: every registration lands on whichever side of
the edge this worker hosts (a source's ``subscribe`` on the source's worker,
the consumer's ``register_input_stream`` on the consumer's worker, the
producer head replica's ``register_subscriber`` on its worker), so the union
of all workers reproduces the simulator deployment edge for edge.

The supervisor (:mod:`repro.live.supervisor`) assigns one worker per node
replica plus a single *edge* worker hosting every source and client; killing
a worker therefore kills exactly one replica, and its partner -- a different
process -- serves the checkpoint-shipped recovery over real sockets.

Workers are spawned with the ``fork`` start method: the compiled placement
(which holds closure predicates and payload generators) crosses into the
child by memory inheritance, never by pickling.
"""

from __future__ import annotations

import asyncio
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ..config import DPCConfig, SimulationConfig
from ..core.node import ProcessingNode
from ..core.protocol import CHECKPOINT_ACK, CheckpointAck
from ..deploy.filters import SubscriptionFilter
from ..deploy.placement import (
    FRAGMENT_ENTRY,
    FRAGMENT_INGRESS_FILTER,
    FRAGMENT_RELAY,
    Placement,
)
from ..errors import ConfigurationError
from ..sim.client import ClientApplication
from ..sim.sources import DataSource
from ..spe.tuples import StreamTuple
from ..statexfer import PeerRegistry
from . import wire
from .clock import LiveClock
from .faults import FaultPlan
from .transport import LiveTransport


class RemotePeerRegistry(PeerRegistry):
    """Peer registry for a live worker: only locally hosted peers resolve.

    ``remote = True`` switches :meth:`ProcessingNode._begin_checkpoint_recovery`
    to blind partner selection (no cross-process peeking); lookups of peers
    hosted elsewhere return ``None``, which every registry consumer already
    treats as "not available" (replay estimates become 0 -- a documented
    live deviation).  Checkpoint acknowledgments travel as ``CHECKPOINT_ACK``
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
    #: Shared time origin: ``time.monotonic()`` value that is deployment t=0.
    epoch: float
    #: Endpoints that must run ``recover()`` right after starting (respawn).
    recovering: frozenset[str] = frozenset()
    #: Incarnation number; the supervisor bumps it on every respawn so peers
    #: can reject stale-generation frames from a SIGKILLed predecessor.
    generation: int = 0
    #: Scheduled wire/window faults this worker's transport enforces.
    fault_plan: FaultPlan = FaultPlan()
    #: Where to dump a cProfile of this process (``repro profile live``);
    #: ``None`` (the default) runs unprofiled.
    profile_path: str | None = None


@dataclass
class FragmentStack:
    """The locally hosted slice of the deployment."""

    sources: dict[str, DataSource] = field(default_factory=dict)  # stream -> source
    nodes: dict[str, ProcessingNode] = field(default_factory=dict)  # endpoint -> node
    clients: dict[str, ClientApplication] = field(default_factory=dict)
    filters: dict[str, SubscriptionFilter] = field(default_factory=dict)


def build_fragment_stack(
    placement: Placement,
    *,
    clock,
    network,
    hosts: Callable[[str], bool],
    config: DPCConfig,
    sim_config: SimulationConfig,
    aggregate_rate: float,
    payload_factory,
    join_state_size: int | None,
    per_node_delay: float | None,
    diagram_factory,
    seed: int | None,
    rate_profile,
    source_stop_time: float | None,
) -> FragmentStack:
    """Mirror of ``deploy_placement``'s walk, gated by ``hosts``.

    Every constant below (rate division, start offset, diagram choice per
    fragment kind, push-state cadence rule) matches the simulator deploy walk
    line for line: the parity harness depends on both backends computing the
    identical workload and wiring.
    """
    from ..sim.cluster import (
        _node_delay_budgets,
        merge_diagram,
        relay_diagram,
        shard_relay_diagram,
    )

    topology = placement.topology
    config.validate()
    sim_config.validate()
    delay_budgets = _node_delay_budgets(topology, config, per_node_delay)
    start_offset = (
        random.Random(seed).uniform(0.0, sim_config.batch_interval * 0.5)
        if seed is not None
        else 0.0
    )
    stack = FragmentStack()

    # --- sources (hosted only; the name->stream map covers all of them) --------
    source_streams: dict[str, str] = {plan.stream: plan.name for plan in placement.sources}
    for plan in placement.sources:
        if not hosts(plan.name):
            continue
        stack.sources[plan.stream] = DataSource(
            name=plan.name,
            stream=plan.stream,
            simulator=clock,
            network=network,
            rate=aggregate_rate / len(placement.sources),
            boundary_interval=config.boundary_interval,
            batch_interval=sim_config.batch_interval,
            payload=payload_factory(plan.payload_index, len(placement.sources)),
            start_time=start_offset,
            stop_time=source_stop_time,
            rate_profile=rate_profile,
        )

    # --- subscription filters: every worker rebuilds the full set --------------
    # (wire decoding resolves filters by name, and a worker can receive a
    # SUBSCRIBE carrying any consumer's filter during failover).
    for edge in placement.filtered_subscriptions():
        spec = topology.node(edge.consumer)
        if spec.select is None:  # pragma: no cover - placement guarantees it
            raise ConfigurationError(
                f"filtered subscription of {edge.consumer!r} has no predicate"
            )
        filter = SubscriptionFilter(
            spec.select, name=edge.filter_name or f"{edge.consumer}.slice"
        )
        stack.filters[edge.consumer] = filter
        wire.register_filter(filter)

    # --- processing nodes (hosted replicas only) -------------------------------
    for plan in placement.nodes:
        spec = topology.node(plan.name)
        node_join_state = join_state_size if plan.stateful else None
        for node_name in plan.replica_names:
            if not hosts(node_name):
                continue
            if plan.fragment == FRAGMENT_ENTRY:
                if diagram_factory is not None:
                    diagram = diagram_factory(node_name, plan.inputs, plan.output_stream)
                else:
                    diagram = merge_diagram(
                        node_name,
                        plan.inputs,
                        plan.output_stream,
                        bucket_size=config.bucket_size,
                        join_state_size=node_join_state,
                        select=spec.select,
                    )
            elif plan.fragment == FRAGMENT_INGRESS_FILTER:
                diagram = shard_relay_diagram(
                    node_name,
                    plan.inputs[0],
                    plan.output_stream,
                    bucket_size=config.bucket_size,
                    select=spec.select,
                    join_state_size=node_join_state,
                )
            elif plan.fragment == FRAGMENT_RELAY:
                filtered = plan.name in stack.filters
                diagram = relay_diagram(
                    node_name,
                    plan.inputs[0],
                    plan.output_stream,
                    bucket_size=config.bucket_size,
                    select=None if filtered else spec.select,
                    join_state_size=node_join_state,
                )
            else:  # FRAGMENT_FANIN
                diagram = merge_diagram(
                    node_name,
                    plan.inputs,
                    plan.output_stream,
                    bucket_size=config.bucket_size,
                    join_state_size=node_join_state,
                    select=spec.select,
                )
            stack.nodes[node_name] = ProcessingNode(
                name=node_name,
                diagram=diagram,
                simulator=clock,
                network=network,
                config=config,
                sim_config=sim_config,
                assigned_delay=delay_budgets[plan.name],
                replica_partners=[o for o in plan.replica_names if o != node_name],
                rng_seed=seed,
            )

    # --- wiring: sources -> consuming node replicas -----------------------------
    for stream, source in stack.sources.items():
        for spec in topology.consumers_of(stream):
            for endpoint in placement.node_plan(spec.name).replica_names:
                source.subscribe(endpoint)
    for spec in topology:
        for node_name in placement.node_plan(spec.name).replica_names:
            node = stack.nodes.get(node_name)
            if node is None:
                continue
            for stream in spec.inputs:
                if stream not in source_streams:
                    continue
                producer = source_streams[stream]
                node.register_input_stream(
                    stream, producers=[producer], source_producers=[producer]
                )

    # --- wiring: node -> node edges ----------------------------------------------
    push_state = config.keepalive_period + 1e-12 >= sim_config.batch_interval
    for spec in topology:
        consumer_filter = stack.filters.get(spec.name)
        for upstream_spec in topology.upstream_nodes(spec):
            upstream_names = list(placement.node_plan(upstream_spec.name).replica_names)
            upstream_stream = upstream_spec.output_stream
            for node_name in placement.node_plan(spec.name).replica_names:
                consumer = stack.nodes.get(node_name)
                if consumer is not None:
                    consumer.register_input_stream(
                        upstream_stream,
                        producers=upstream_names,
                        push_producers=upstream_names if push_state else (),
                        subscription_filter=consumer_filter,
                    )
                head = stack.nodes.get(upstream_names[0])
                if head is not None:
                    head.register_subscriber(
                        upstream_stream, node_name, subscription_filter=consumer_filter
                    )
                for upstream_name in upstream_names:
                    upstream = stack.nodes.get(upstream_name)
                    if upstream is not None:
                        upstream.register_consumer(upstream_stream, node_name)
                        if push_state:
                            upstream.add_state_watcher(node_name)

    # --- clients: one per sink -----------------------------------------------------
    for plan in placement.clients:
        sink_names = list(placement.node_plan(plan.sink).replica_names)
        if hosts(plan.name):
            client = ClientApplication(
                name=plan.name,
                stream=plan.stream,
                simulator=clock,
                network=network,
                config=config,
                rng_seed=seed,
            )
            client.register_upstream(
                producers=sink_names, push_producers=sink_names if push_state else ()
            )
            stack.clients[plan.name] = client
        head = stack.nodes.get(sink_names[0])
        if head is not None:
            head.register_subscriber(plan.stream, plan.name)
        for sink_name in sink_names:
            sink = stack.nodes.get(sink_name)
            if sink is not None:
                sink.register_consumer(plan.stream, plan.name)
                if push_state:
                    sink.add_state_watcher(plan.name)

    # --- state-transfer peer registry (local peers only) -----------------------------
    registry = RemotePeerRegistry(network)
    for source in stack.sources.values():
        registry.register_source(source)
    for client in stack.clients.values():
        client.statexfer_registry = registry
    for node in stack.nodes.values():
        registry.register_node(node)
        node.statexfer_registry = registry
    return stack


# --------------------------------------------------------------------------- results
def stable_rows(ledger: Iterable[StreamTuple]) -> list:
    """Replica-independent form of the stable tuples of a ledger.

    (stable_seq, repr(stime), sorted payload items) -- the row form the parity
    harness compares between a live and a simulator run; ``repr`` keeps floats
    exact.
    """
    return [
        (
            item.stable_seq,
            repr(item.stime),
            tuple(sorted((key, repr(value)) for key, value in item.values.items())),
        )
        for item in ledger
        if item.is_stable
    ]


def stable_ledger_rows(client: ClientApplication) -> list:
    """:func:`stable_rows` of a client's ledger."""
    return stable_rows(client.metrics.consistency.ledger)


def _client_result(client: ClientApplication) -> dict:
    from ..runtime.runtime import client_is_eventually_consistent

    return {
        "summary": client.summary(),
        # The ledger's sealed segments verbatim plus its encoded tail: rows
        # are built by whoever reads them (``LiveRunResult.stable_rows``).
        "ledger_segments": client.metrics.consistency.ledger.segments(),
        "eventually_consistent": client_is_eventually_consistent(client),
    }


def _status(stack: FragmentStack, clock: LiveClock, transport: LiveTransport) -> dict:
    return {
        "now": clock.now,
        "ledgers": {
            name: len(client.metrics.consistency.ledger)
            for name, client in stack.clients.items()
        },
        "stable": {
            name: client.metrics.consistency.total_stable
            for name, client in stack.clients.items()
        },
        "peers": {
            peer: transport.peer_state(peer).value for peer in transport._worker_sockets
        },
    }


def _tentative_phase(client: ClientApplication) -> dict:
    """Wall-clock window of tentative output in the client trace (seconds)."""
    first = last = None
    count = 0
    for entry in client.metrics.trace:
        if entry.tuple_type == "tentative":
            count += 1
            last = entry.time
            if first is None:
                first = entry.time
    return {"first": first, "last": last, "count": count}


def _result(stack: FragmentStack, clock: LiveClock, transport: LiveTransport) -> dict:
    return {
        "now": clock.now,
        "events_fired": clock.events_fired,
        "sources": {s.name: s.tuples_produced for s in stack.sources.values()},
        "source_logs": {s.name: len(s.log) for s in stack.sources.values()},
        "nodes": {
            endpoint: {"statistics": node.statistics(), "recoveries": list(node.recoveries)}
            for endpoint, node in stack.nodes.items()
        },
        "clients": {name: _client_result(c) for name, c in stack.clients.items()},
        "tentative_phase": {
            name: _tentative_phase(c) for name, c in stack.clients.items()
        },
        "transport": transport.transport_stats(),
        # This process's own cost, read when the result is built.
        "usage": {
            "cpu_s": time.process_time(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


# --------------------------------------------------------------------------- process entry
def worker_main(spec: WorkerSpec, placement: Placement, deploy_kwargs: dict, conn) -> None:
    """Process entry point (target of ``multiprocessing.Process``)."""
    profiler = None
    if spec.profile_path is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        asyncio.run(_worker_async(spec, placement, deploy_kwargs, conn))
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    finally:
        conn.close()
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(spec.profile_path)


async def _worker_async(
    spec: WorkerSpec, placement: Placement, deploy_kwargs: dict, conn
) -> None:
    clock = LiveClock(spec.epoch, loop=asyncio.get_running_loop())
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
    stack = build_fragment_stack(
        placement,
        clock=clock,
        network=transport,
        hosts=lambda endpoint: endpoint in spec.hosted,
        **deploy_kwargs,
    )
    # All workers start their protocol stacks at the shared epoch, so the
    # startup grace and keepalive cadences line up across processes.
    delay = spec.epoch - time.monotonic()
    if delay > 0:
        await asyncio.sleep(delay)
    for source in stack.sources.values():
        source.start()
    for node in stack.nodes.values():
        node.start()
    for client in stack.clients.values():
        client.start()
    for endpoint in spec.recovering:
        node = stack.nodes.get(endpoint)
        if node is not None:
            # A respawned replica rejoins the way a recovered simulated one
            # does: prefer the partner's shipped checkpoint (over sockets),
            # fall back to full subscription replay.
            node.recover()

    # The control pipe is a reader of the loop: an idle worker sleeps, and
    # "status" / "stop" are answered the moment they arrive.
    loop = asyncio.get_running_loop()
    stopped = loop.create_future()

    def on_control() -> None:
        try:
            while not stopped.done() and conn.poll():
                request = conn.recv()
                if request == "status":
                    conn.send(("status", _status(stack, clock, transport)))
                elif request == "stop":
                    conn.send(("result", _result(stack, clock, transport)))
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
    "FragmentStack",
    "RemotePeerRegistry",
    "WorkerSpec",
    "build_fragment_stack",
    "stable_ledger_rows",
    "worker_main",
]
