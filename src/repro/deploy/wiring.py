"""The one placement walk: build what a process hosts, wire every edge.

:func:`wire_placement` is how *both* backends materialize a compiled
:class:`~repro.deploy.placement.Placement`.  The simulator passes its
``Simulator`` / ``Network`` / ``PeerRegistry()`` and hosts every endpoint; a
live worker passes its ``LiveClock`` / ``LiveTransport`` /
``RemotePeerRegistry`` and hosts only the endpoints its spec names, so the
union of all workers is the simulator deployment edge for edge.  Sources,
replicas and clients are built only where hosted; every subscription filter
is built everywhere (a SUBSCRIBE can carry any consumer's filter, by name on
the wire); and every :class:`~repro.deploy.placement.SubscriptionPlan` goes
through :meth:`Wiring.connect`, which owns the whole per-edge rule and
applies each registration on whichever side of the edge is local.

The returned :class:`Wiring` keeps the context, so the elastic paths of
:class:`~repro.deploy.Deployment` extend a running deployment through the
same :meth:`Wiring.build_group` / :meth:`Wiring.connect` (and retire through
:meth:`Wiring.disconnect`) instead of re-spelling them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ..config import DPCConfig
from ..core.clock import Clock
from ..core.delay_planner import DelayPlanner
from ..core.node import ProcessingNode
from ..sim.client import ClientApplication
from ..sim.cluster import merge_diagram
from ..sim.network import Network
from ..sim.sources import DataSource
from ..statexfer import PeerRegistry
from ..topology import SelectPredicate, Topology
from .filters import SubscriptionFilter
from .placement import FRAGMENT_ENTRY, DeployOptions, NodePlan, Placement, SubscriptionPlan

#: Registration order is behaviour (dict order of monitors and subscribers
#: decides the order of same-instant events): source edges first, then node
#: edges in topological order, then client edges.
_EDGE_ORDER = ("source->node", "node->node", "node->client")


def node_delay_budgets(
    topology: Topology, config: DPCConfig, per_node_delay: float | None
) -> dict[str, float]:
    """Per-node delay budgets D for every logical node of ``topology``.

    An explicit ``per_node_delay`` overrides every node (the chain
    experiments assign D per node directly).  Otherwise the budgets come
    from the :func:`delay_planner` over the deployment graph, so the UNIFORM
    strategy splits the end-to-end bound X along the *longest* entry-to-sink
    path -- short branches under-use the budget instead of over-assigning it
    when paths reconverge.
    """
    if per_node_delay is not None:
        return {name: per_node_delay for name in topology.node_names}
    return dict(delay_planner(topology, config).plan(config.delay_assignment).per_node)


def delay_planner(topology: Topology, config: DPCConfig) -> DelayPlanner:
    """The planner over ``topology``'s graph for ``config``'s budget X."""
    return DelayPlanner(
        topology,
        total_budget=config.max_incremental_latency,
        queuing_allowance=config.queuing_allowance,
    )


@dataclass
class Wiring:
    """What one process built of a placement, and the context to extend it."""

    clock: Clock
    network: Network
    registry: PeerRegistry
    hosts: Callable[[str], bool]
    options: DeployOptions
    #: Logical node name -> delay budget D of its replicas.
    delay_budgets: dict[str, float]
    #: Logical endpoint (node, source or client name) -> the endpoints of all
    #: its replicas, hosted here or not.
    replicas: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Hosted sources by name, replicas by endpoint, clients by name.
    sources: dict[str, DataSource] = field(default_factory=dict)
    nodes: dict[str, ProcessingNode] = field(default_factory=dict)
    clients: dict[str, ClientApplication] = field(default_factory=dict)
    #: Consumer node name -> the shared filter of its filtered subscription.
    filters: dict[str, SubscriptionFilter] = field(default_factory=dict)

    def build_group(self, plan: NodePlan, select: SelectPredicate | None) -> list[ProcessingNode]:
        """Build the hosted replicas of one logical node.

        Every fragment is the Figure 12 shape over the plan's inputs -- one
        SUnion (+ SJoin when the plan is stateful, + ``select`` as an egress
        Filter) + SOutput -- except that entry fragments honour the
        ``diagram_factory`` option.  A filtered consumer's slice arrives
        pre-cut (its predicate runs at the producer), so its caller passes
        ``select=None``.
        """
        options = self.options
        self.replicas[plan.name] = plan.replica_names
        group: list[ProcessingNode] = []
        for name in plan.replica_names:
            if not self.hosts(name):
                continue
            if plan.fragment == FRAGMENT_ENTRY and options.diagram_factory is not None:
                diagram = options.diagram_factory(name, plan.inputs, plan.output_stream)
            else:
                diagram = merge_diagram(
                    name,
                    plan.inputs,
                    plan.output_stream,
                    bucket_size=options.config.bucket_size,
                    join_state_size=options.join_state_size if plan.stateful else None,
                    select=select,
                )
            node = ProcessingNode(
                name=name,
                diagram=diagram,
                simulator=self.clock,
                network=self.network,
                config=options.config,
                sim_config=options.sim_config,
                assigned_delay=self.delay_budgets[plan.name],
                replica_partners=[other for other in plan.replica_names if other != name],
                rng_seed=options.seed,
            )
            # Checkpoint-shipped recovery discovers partners and prices
            # replay suffixes through the registry, and checkpoint
            # acknowledgments travel through it.
            self.registry.register_node(node)
            node.statexfer_registry = self.registry
            self.nodes[name] = node
            group.append(node)
        return group

    def connect(self, edge: SubscriptionPlan) -> None:
        """Wire one logical edge: every consumer replica to every producer replica.

        The whole rule, each registration applied only where its side of the
        edge is hosted: the consumer declares the input stream and who can
        produce it; the *first* producer replica starts delivering (DPC
        switches the consumer if that replica fails); and every producer
        replica declares the consumer -- it retains what the consumer has not
        acknowledged, whichever replica the consumer reads from -- and
        watches it: the consumer learns each producer replica's state only
        from what that replica sends it, data batches or pushed heartbeat
        responses, and never probes.
        """
        producers = self.replicas[edge.producer]
        consumers = self.replicas[edge.consumer]
        if edge.kind == "source->node":
            source = self.sources.get(edge.producer)
            for endpoint in consumers:
                if source is not None:
                    source.subscribe(endpoint)
                if endpoint in self.nodes:
                    self.nodes[endpoint].register_input_stream(
                        edge.stream, producers=producers, source_producers=producers
                    )
            return
        consumer_filter = self.filters[edge.consumer] if edge.filtered else None
        head = self.nodes.get(producers[0])
        for endpoint in consumers:
            if endpoint in self.clients:
                self.clients[endpoint].register_upstream(producers=producers)
            elif endpoint in self.nodes:
                self.nodes[endpoint].register_input_stream(
                    edge.stream, producers=producers, subscription_filter=consumer_filter
                )
            if head is not None:
                head.register_subscriber(
                    edge.stream, endpoint, subscription_filter=consumer_filter
                )
            for name in producers:
                upstream = self.nodes.get(name)
                if upstream is not None:
                    upstream.register_consumer(edge.stream, endpoint)
                    upstream.add_state_watcher(endpoint)

    def disconnect(self, edge: SubscriptionPlan) -> None:
        """Inverse of :meth:`connect` for a node -> node edge (scale-in).

        Producers must stop feeding the consumer *before* its endpoints
        leave the network: ``send_many`` rejects unknown receivers.
        """
        for endpoint in self.replicas[edge.consumer]:
            if endpoint in self.nodes:
                self.nodes[endpoint].deregister_input_stream(edge.stream)
            for name in self.replicas[edge.producer]:
                upstream = self.nodes.get(name)
                if upstream is not None:
                    manager = upstream.data_path.output(edge.stream)
                    manager.unsubscribe(endpoint)
                    manager.remove_consumer(endpoint)
                    upstream.remove_state_watcher(endpoint)

    def retire_group(self, name: str) -> None:
        """Retire the hosted replicas of logical node ``name`` (after its edges)."""
        for endpoint in self.replicas.pop(name):
            node = self.nodes.pop(endpoint, None)
            if node is not None:
                self.registry.unregister_node(endpoint)
                node.retire()


def wire_placement(
    placement: Placement,
    clock: Clock,
    network: Network,
    registry: PeerRegistry,
    hosts: Callable[[str], bool],
    options: DeployOptions,
) -> Wiring:
    """Build the endpoints ``hosts`` accepts and wire every subscription."""
    topology = placement.topology
    config, sim_config = options.config, options.sim_config
    wiring = Wiring(
        clock=clock,
        network=network,
        registry=registry,
        hosts=hosts,
        options=options,
        delay_budgets=node_delay_budgets(topology, config, options.per_node_delay),
    )
    # One offset for every source: the whole workload shifts in time (so runs
    # with different seeds genuinely differ) while the sources stay mutually
    # aligned, which the end-of-run consistency accounting relies on.
    start_offset = (
        random.Random(options.seed).uniform(0.0, sim_config.batch_interval * 0.5)
        if options.seed is not None
        else 0.0
    )
    for plan in placement.sources:
        wiring.replicas[plan.name] = (plan.name,)
        if not hosts(plan.name):
            continue
        source = DataSource(
            name=plan.name,
            stream=plan.stream,
            simulator=clock,
            network=network,
            # Divided, not multiplied by the (1/n) share: `a/n` and `a*(1/n)`
            # differ by an ulp for some stream counts -- enough to shift
            # every seeded emission time and break the pinned digests.
            rate=options.aggregate_rate / len(placement.sources),
            boundary_interval=config.boundary_interval,
            batch_interval=sim_config.batch_interval,
            payload=options.payload_factory(plan.payload_index, len(placement.sources)),
            start_time=start_offset,
            stop_time=options.source_stop_time,
            # The same profile object for every source: profiles are pure
            # functions of the emission stime, so shared use keeps the
            # interleaved sources aligned (tie groups stay intact).
            rate_profile=options.rate_profile,
        )
        registry.register_source(source)
        wiring.sources[plan.name] = source

    for edge in placement.filtered_subscriptions():
        wiring.filters[edge.consumer] = SubscriptionFilter(
            topology.node(edge.consumer).select, name=edge.filter_name
        )
    for plan in placement.nodes:
        filtered = plan.name in wiring.filters
        wiring.build_group(plan, None if filtered else topology.node(plan.name).select)

    for plan in placement.clients:
        wiring.replicas[plan.name] = (plan.name,)
        if not hosts(plan.name):
            continue
        client = ClientApplication(
            name=plan.name,
            stream=plan.stream,
            simulator=clock,
            network=network,
            config=config,
            rng_seed=options.seed,
        )
        client.statexfer_registry = registry
        wiring.clients[plan.name] = client

    for edge in sorted(placement.subscriptions, key=lambda edge: _EDGE_ORDER.index(edge.kind)):
        wiring.connect(edge)
    return wiring
