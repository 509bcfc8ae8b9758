"""Cluster container and the fragment diagram factory.

:class:`Cluster` owns the simulator, network, failure injector, sources,
nodes, and clients of one simulated deployment and provides the small amount
of orchestration the experiments need (start everything, run for a while,
look at the client's metrics).  Clusters are built by the :mod:`repro.deploy`
control plane: ``compile(topology)`` produces an inspectable
:class:`~repro.deploy.Placement`, and ``placement.deploy(...)`` materializes
it into a :class:`~repro.deploy.Deployment` whose ``.cluster`` is this class.

:func:`merge_diagram` is the one fragment shape every replica runs; the
placement walk instantiates it per replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.node import ProcessingNode
from ..errors import ConfigurationError
from ..spe.operators import Filter, SJoin, SOutput, SUnion
from ..spe.query_diagram import QueryDiagram
from ..topology import SelectPredicate, Topology
from .client import ClientApplication
from .event_loop import Simulator
from .failures import FailureInjector
from .network import Network
from .sources import DataSource


@dataclass
class Cluster:
    """A fully wired simulated deployment."""

    simulator: Simulator
    network: Network
    failures: FailureInjector
    sources: list[DataSource] = field(default_factory=list)
    #: Replica groups in topological order: nodes[i] is the list of replicas
    #: of the i-th logical node (for a chain, the node at level i).
    nodes: list[list[ProcessingNode]] = field(default_factory=list)
    clients: list[ClientApplication] = field(default_factory=list)
    #: Replica groups by logical node name (the canonical addressing).
    node_groups: dict[str, list[ProcessingNode]] = field(default_factory=dict)
    #: The deployment graph this cluster was built from (None for hand wiring).
    topology: Topology | None = None

    # ------------------------------------------------------------------ access helpers
    @property
    def client(self) -> ClientApplication:
        """The *primary* sink's client (``clients[0]``).

        Multi-sink deployments attach one measuring client per sink; use
        :attr:`clients` (or the experiment harness, which aggregates across
        every sink) when the topology fans out to several sinks.
        """
        if not self.clients:
            raise ConfigurationError("cluster has no client")
        return self.clients[0]

    def all_nodes(self) -> list[ProcessingNode]:
        return [replica for group in self.nodes for replica in group]

    def node_group(self, name: str) -> list[ProcessingNode]:
        """All replicas of logical node ``name``."""
        try:
            return self.node_groups[name]
        except KeyError as exc:
            raise ConfigurationError(
                f"cluster has no node {name!r}; known nodes: {list(self.node_groups)}"
            ) from exc

    def node(self, name: str, replica: int = 0) -> ProcessingNode:
        """Replica ``replica`` of logical node ``name`` (``cluster.node("merge", 1)``)."""
        group = self.node_group(name)
        try:
            return group[replica]
        except IndexError as exc:
            raise ConfigurationError(
                f"node {name!r} has {len(group)} replica(s); replica {replica} does not exist"
            ) from exc

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        for source in self.sources:
            source.start()
        for node in self.all_nodes():
            node.start()
        for client in self.clients:
            client.start()

    def run_for(self, duration: float) -> float:
        return self.simulator.run_for(duration)

    def run_until(self, end_time: float) -> float:
        return self.simulator.run_until(end_time)

    # ------------------------------------------------------------------ summaries
    def summary(self) -> dict:
        return {
            "now": self.simulator.now,
            "sources": [s.tuples_produced for s in self.sources],
            "nodes": [[replica.statistics() for replica in group] for group in self.nodes],
            "clients": [c.summary() for c in self.clients],
        }


# --------------------------------------------------------------------------- diagram factory
def merge_diagram(
    name: str,
    input_streams: Sequence[str],
    output_stream: str,
    bucket_size: float,
    join_state_size: int | None = None,
    select: SelectPredicate | None = None,
) -> QueryDiagram:
    """The fragment every replica runs: SUnion (+ SJoin) (+ Filter) + SOutput.

    Over several source streams this is the experimental setup of Section
    5.2 / Figure 12: "an SUnion that merges these streams into one, an SJoin
    with a 100-tuple state size, and an SOutput".  Over one upstream stream
    it is a relay, over several a cross-node fan-in.  ``join_state_size``
    gives the fragment the deployment's stateful SJoin; ``select`` inserts a
    deterministic Filter before the SOutput (the branch-partitioning
    fragments of DAG deployments).
    """
    diagram = QueryDiagram(name=name)
    merge = SUnion(name=f"{name}.sunion", arity=len(input_streams), bucket_size=bucket_size)
    diagram.add_operator(merge)
    last = merge
    if join_state_size is not None:
        sjoin = SJoin(name=f"{name}.sjoin", state_size=join_state_size)
        diagram.add_operator(sjoin)
        diagram.connect(last, sjoin)
        last = sjoin
    if select is not None:
        selector = Filter(name=f"{name}.filter", predicate=select)
        diagram.add_operator(selector)
        diagram.connect(last, selector)
        last = selector
    soutput = SOutput(name=f"{name}.soutput")
    diagram.add_operator(soutput)
    diagram.connect(last, soutput)
    for port, stream in enumerate(input_streams):
        diagram.bind_input(stream, merge, port)
    diagram.bind_output(output_stream, soutput)
    diagram.validate()
    return diagram
