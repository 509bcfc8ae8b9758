"""The compile half of the deployment control plane.

:func:`compile` turns a :class:`~repro.topology.Topology` into a
:class:`Placement`: a *pure plan* of the deployment -- which sources exist,
which replica processes run which fragment shape, and which subscriptions
(optionally content-filtered) wire them together.  Nothing is instantiated:
a placement can be printed, asserted against, and :meth:`diffed
<Placement.diff>` against another placement before anything runs.

:meth:`Placement.deploy` is the other half: it declares the deploy options once
(:class:`DeployOptions`) and hands the resolved values to the chosen backend
-- the simulator (:mod:`repro.deploy.deployment`) or forked worker processes
(:mod:`repro.live.supervisor`); both build through the one placement walk of
:mod:`repro.deploy.wiring`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from ..config import DPCConfig, SimulationConfig
from ..errors import ConfigurationError
from ..topology import Topology
from ..workloads.generators import PayloadFactory, default_payload_factory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..spe.query_diagram import QueryDiagram
    from .deployment import Deployment

#: Fragment shapes a node plan can take: one SUnion over the plan's inputs
#: (+ optional SJoin) + SOutput, named for what feeds it.
FRAGMENT_ENTRY = "entry"  # every input is a source stream (honours diagram_factory)
FRAGMENT_RELAY = "relay"  # one upstream node
FRAGMENT_FANIN = "fanin"  # several upstream streams


@dataclass(frozen=True)
class DeployOptions:
    """The resolved arguments of one :meth:`Placement.deploy` call.

    Defaults live on :meth:`Placement.deploy` only; both backends, the
    placement walk and the elastic attach path read the values from here.
    """

    config: DPCConfig
    sim_config: SimulationConfig
    aggregate_rate: float
    payload_factory: PayloadFactory
    join_state_size: int | None
    per_node_delay: float | None
    diagram_factory: "Callable[[str, Sequence[str], str], QueryDiagram] | None"
    seed: int | None
    rate_profile: "Callable[[float], float] | None"
    source_stop_time: float | None


@dataclass(frozen=True)
class SourcePlan:
    """One data source feeding the deployment."""

    stream: str
    name: str
    #: Fraction of the deployment's aggregate rate this source produces.
    rate_share: float
    #: Index handed to the payload factory (stable across recompiles).
    payload_index: int


@dataclass(frozen=True)
class NodePlan:
    """One logical processing node: replicas, fragment shape, join placement."""

    name: str
    fragment: str
    #: Input stream names in SUnion port order.
    inputs: tuple[str, ...]
    output_stream: str
    replica_names: tuple[str, ...]
    #: Whether this node hosts the deployment's stateful SJoin.
    stateful: bool
    is_sink: bool = False
    #: Index into the shard assignment when this node is a shard fragment.
    shard_index: int | None = None

    @property
    def replicas(self) -> int:
        return len(self.replica_names)


@dataclass(frozen=True)
class SubscriptionPlan:
    """One logical edge: every replica of ``consumer`` subscribes to ``producer``.

    ``filtered`` marks a *filtered subscription*: the consumer's slice is
    selected at the producer (producer-side routing), so only
    the passing slice travels.  ``filter_name`` names the shared
    :class:`~repro.deploy.SubscriptionFilter` the deploy step creates.
    """

    stream: str
    producer: str
    consumer: str
    kind: str  # "source->node" | "node->node" | "node->client"
    filtered: bool = False
    filter_name: str | None = None


@dataclass(frozen=True)
class ClientPlan:
    """One measuring client attached to a sink node's output stream."""

    name: str
    sink: str
    stream: str


@dataclass(frozen=True)
class Placement:
    """A compiled deployment plan: inspectable, diffable, deployable."""

    topology: Topology
    replicas_per_node: int
    sources: tuple[SourcePlan, ...]
    nodes: tuple[NodePlan, ...]
    subscriptions: tuple[SubscriptionPlan, ...]
    clients: tuple[ClientPlan, ...]

    # ------------------------------------------------------------------ queries
    def node_plan(self, name: str) -> NodePlan:
        for plan in self.nodes:
            if plan.name == name:
                return plan
        raise ConfigurationError(f"placement has no node {name!r}")

    @property
    def shard_fragments(self) -> tuple[str, ...]:
        """Names of the shard fragments, in shard-assignment index order."""
        indexed = [plan for plan in self.nodes if plan.shard_index is not None]
        return tuple(
            plan.name for plan in sorted(indexed, key=lambda plan: plan.shard_index)
        )

    @property
    def shard_producer(self) -> str | None:
        """The node whose output the shard fragments slice (the split router)."""
        for plan in self.nodes:
            if plan.shard_index is not None:
                return plan.inputs[0].removesuffix(".out")
        return None

    def filtered_subscriptions(self) -> list[SubscriptionPlan]:
        return [plan for plan in self.subscriptions if plan.filtered]

    # ------------------------------------------------------------------ inspection
    def describe(self) -> dict:
        """A plain-data rendering of the plan (stable across processes)."""
        return {
            "topology": self.topology.name,
            "replicas_per_node": self.replicas_per_node,
            "sources": [
                {"stream": s.stream, "name": s.name, "rate_share": s.rate_share}
                for s in self.sources
            ],
            "nodes": [
                {
                    "name": n.name,
                    "fragment": n.fragment,
                    "inputs": list(n.inputs),
                    "output": n.output_stream,
                    "replicas": list(n.replica_names),
                    "stateful": n.stateful,
                    "sink": n.is_sink,
                    "shard_index": n.shard_index,
                }
                for n in self.nodes
            ],
            "subscriptions": [
                {
                    "stream": s.stream,
                    "producer": s.producer,
                    "consumer": s.consumer,
                    "kind": s.kind,
                    "filtered": s.filtered,
                    "filter": s.filter_name,
                }
                for s in self.subscriptions
            ],
            "clients": [
                {"name": c.name, "sink": c.sink, "stream": c.stream} for c in self.clients
            ],
        }

    def diff(self, other: "Placement") -> list[str]:
        """Human-readable differences ``self -> other`` (empty when identical)."""
        changes: list[str] = []
        mine = {plan.name: plan for plan in self.nodes}
        theirs = {plan.name: plan for plan in other.nodes}
        for name in sorted(set(mine) - set(theirs)):
            changes.append(f"node {name!r} removed")
        for name in sorted(set(theirs) - set(mine)):
            changes.append(f"node {name!r} added ({theirs[name].fragment})")
        for name in sorted(set(mine) & set(theirs)):
            a, b = mine[name], theirs[name]
            if a.fragment != b.fragment:
                changes.append(f"node {name!r}: fragment {a.fragment} -> {b.fragment}")
            if a.replicas != b.replicas:
                changes.append(f"node {name!r}: replicas {a.replicas} -> {b.replicas}")
            if a.stateful != b.stateful:
                changes.append(f"node {name!r}: stateful {a.stateful} -> {b.stateful}")
            if a.inputs != b.inputs:
                changes.append(f"node {name!r}: inputs {a.inputs} -> {b.inputs}")
            if a.is_sink != b.is_sink:
                changes.append(f"node {name!r}: sink {a.is_sink} -> {b.is_sink}")

        def edge_key(plan: SubscriptionPlan) -> tuple[str, str, str]:
            return (plan.producer, plan.consumer, plan.stream)

        my_edges = {edge_key(p): p for p in self.subscriptions}
        their_edges = {edge_key(p): p for p in other.subscriptions}
        for key in sorted(set(my_edges) - set(their_edges)):
            changes.append(f"subscription {key[0]} -> {key[1]} removed")
        for key in sorted(set(their_edges) - set(my_edges)):
            changes.append(f"subscription {key[0]} -> {key[1]} added")
        for key in sorted(set(my_edges) & set(their_edges)):
            a, b = my_edges[key], their_edges[key]
            if a.filtered != b.filtered:
                changes.append(
                    f"subscription {key[0]} -> {key[1]}: filtered {a.filtered} -> {b.filtered}"
                )
        if [c.name for c in self.clients] != [c.name for c in other.clients]:
            changes.append(
                f"clients {[c.name for c in self.clients]} -> {[c.name for c in other.clients]}"
            )
        return changes

    # ------------------------------------------------------------------ deployment
    def deploy(
        self,
        config: "DPCConfig | None" = None,
        sim_config: "SimulationConfig | None" = None,
        *,
        aggregate_rate: float = 300.0,
        payload_factory: PayloadFactory = default_payload_factory,
        join_state_size: int | None = 100,
        per_node_delay: float | None = None,
        diagram_factory: "Callable[[str, Sequence[str], str], QueryDiagram] | None" = None,
        seed: int | None = None,
        rate_profile: "Callable[[float], float] | None" = None,
        backend: str = "sim",
        source_stop_time: float | None = None,
    ) -> "Deployment":
        """Materialize this plan on an execution backend.

        ``backend="sim"`` (the default) instantiates the plan on a fresh
        discrete-event simulator and returns a :class:`Deployment`.
        ``backend="live"`` returns a
        :class:`repro.live.supervisor.LiveDeployment` that runs the same
        fragments as real OS processes over asyncio sockets in wall-clock
        time (raises :class:`~repro.live.supervisor.LiveBackendUnavailable`
        on platforms without the ``fork`` multiprocessing start method).

        ``seed`` makes the deployment's randomness reproducible: it seeds
        every consistency manager's tie-breaking RNG and shifts the sources'
        start by a seed-derived fraction of a batch interval.
        ``per_node_delay`` overrides the delay budget D of every node
        (default: the Section 6.3 delay planner over the deployment graph).
        ``source_stop_time`` bounds every source's production to stimes at
        or below it (both backends), which is how the live/sim parity
        harness pins a finite, backend-independent workload.
        """
        config = config or DPCConfig()
        sim_config = sim_config or SimulationConfig()
        config.validate()
        sim_config.validate()
        # A node's one tick runs every batch interval and its control work
        # from the tick due every keepalive period.
        ratio = config.keepalive_period / sim_config.batch_interval
        if ratio < 1.0 or abs(ratio - round(ratio)) >= 1e-9:
            raise ConfigurationError(
                f"keepalive_period {config.keepalive_period} must be a whole multiple "
                f"of batch_interval {sim_config.batch_interval}"
            )
        options = DeployOptions(
            config=config,
            sim_config=sim_config,
            aggregate_rate=aggregate_rate,
            payload_factory=payload_factory,
            join_state_size=join_state_size,
            per_node_delay=per_node_delay,
            diagram_factory=diagram_factory,
            seed=seed,
            rate_profile=rate_profile,
            source_stop_time=source_stop_time,
        )
        if backend == "live":
            from ..live.supervisor import LiveDeployment

            return LiveDeployment(self, options)
        if backend != "sim":
            raise ConfigurationError(
                f"unknown deployment backend {backend!r}; expected 'sim' or 'live'"
            )
        from .deployment import deploy_placement

        return deploy_placement(self, options)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Placement {self.topology.name!r} nodes={len(self.nodes)} "
            f"subscriptions={len(self.subscriptions)} "
            f"filtered={len(self.filtered_subscriptions())}>"
        )


def compile(  # noqa: A001 - the control-plane verb, deliberately builtin-shadowing
    topology: Topology,
    replicas_per_node: int = 2,
) -> Placement:
    """Compile ``topology`` into a :class:`Placement`.

    Entry nodes run the Figure 12 merge fragment, single-input internal nodes
    relay, multi-input internal nodes fan in, and each sink feeds one client.
    A node whose spec has a ``select`` (the shard fragments of
    ``Topology.shard``, the diamond's branches) is planned as a **filtered
    subscription**: its slice runs at the producer and the fragment itself
    is a plain relay.
    """
    if replicas_per_node < 1:
        raise ConfigurationError("replicas_per_node must be >= 1")

    source_streams = topology.source_streams
    sources = tuple(
        SourcePlan(
            stream=stream,
            name=f"source.{stream}",
            rate_share=1.0 / len(source_streams),
            payload_index=index,
        )
        for index, stream in enumerate(source_streams)
    )

    sink_names = {spec.name for spec in topology.sinks()}
    node_plans: list[NodePlan] = []
    subscription_plans: list[SubscriptionPlan] = []
    shard_index = 0
    for spec in topology:
        input_streams = tuple(topology.input_streams(spec))
        replicas = topology.replicas_of(spec.name, replicas_per_node)
        replica_names = tuple(
            spec.name + ("" if r == 0 else "'" * r) for r in range(replicas)
        )
        stateful = spec.stateful if spec.stateful is not None else topology.is_entry(spec)
        filtered = spec.select is not None
        if topology.is_entry(spec):
            fragment = FRAGMENT_ENTRY
        elif len(input_streams) == 1:
            fragment = FRAGMENT_RELAY
        else:
            fragment = FRAGMENT_FANIN
        index: int | None = None
        if filtered and topology.shard_assignment is not None:
            index = shard_index
            shard_index += 1
        node_plans.append(
            NodePlan(
                name=spec.name,
                fragment=fragment,
                inputs=input_streams,
                output_stream=spec.output_stream,
                replica_names=replica_names,
                stateful=stateful,
                is_sink=spec.name in sink_names,
                shard_index=index,
            )
        )
        for edge in spec.inputs:
            if edge in topology:
                subscription_plans.append(
                    SubscriptionPlan(
                        stream=topology.node(edge).output_stream,
                        producer=edge,
                        consumer=spec.name,
                        kind="node->node",
                        filtered=filtered,
                        filter_name=f"{spec.name}.slice" if filtered else None,
                    )
                )
            else:
                subscription_plans.append(
                    SubscriptionPlan(
                        stream=edge,
                        producer=f"source.{edge}",
                        consumer=spec.name,
                        kind="source->node",
                    )
                )

    client_plans: list[ClientPlan] = []
    for sink_index, sink in enumerate(topology.sinks()):
        name = "client" if sink_index == 0 else f"client{sink_index + 1}"
        client_plans.append(
            ClientPlan(name=name, sink=sink.name, stream=sink.output_stream)
        )
        subscription_plans.append(
            SubscriptionPlan(
                stream=sink.output_stream,
                producer=sink.name,
                consumer=name,
                kind="node->client",
            )
        )

    return Placement(
        topology=topology,
        replicas_per_node=replicas_per_node,
        sources=sources,
        nodes=tuple(node_plans),
        subscriptions=tuple(subscription_plans),
        clients=tuple(client_plans),
    )
