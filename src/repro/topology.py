"""Deployment topologies: replicated processing nodes wired into a DAG.

The paper's query diagrams are general directed acyclic graphs -- the
Section 6.3 delay-assignment problem and the Figure 9 inter-replica protocol
are only interesting when a node has several upstream neighbors and several
downstream subscribers -- but the original experiments deploy only two
shapes: a single node and a linear chain.  This module is the reproduction's
topology vocabulary for everything else:

* a :class:`NodeSpec` declares one logical processing node: its name, the
  named input edges feeding it (source streams such as ``"s1"`` or the names
  of other nodes, whose output stream ``"<name>.out"`` it then consumes),
  and an optional per-node replication factor;
* a :class:`Topology` validates a set of node specs into a DAG, computes the
  topological order the cluster builder walks, enumerates entry-to-sink
  paths for delay planning, and offers the deployment shapes used by the
  experiments (:meth:`Topology.chain`, :meth:`Topology.diamond`,
  :meth:`Topology.fanin`).

The module is deliberately dependency-light (only :mod:`repro.errors` and
:mod:`repro.sharding`) so that the simulation substrate, the DPC core, and
the runtime layer can all import it without cycles.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .errors import ConfigurationError
from .sharding import (
    DEFAULT_BUCKETS,
    ShardAssignment,
    ShardPlanner,
    ShardSpec,
    Slice,
    modulo_partition,
)

#: The conventional source-stream names; reserved, never valid as node names.
_SOURCE_NAME = re.compile(r"s\d+")

@dataclass(frozen=True)
class NodeSpec:
    """One logical processing node of a deployment DAG.

    ``inputs`` name the edges feeding the node, in SUnion port order.  Each
    entry is either a *source stream* (any name that is not another node's
    name, conventionally ``"s1"``, ``"s2"``, ...) or the *name of another
    node*, meaning this node consumes that node's output stream
    ``"<name>.out"``.

    ``replicas`` overrides the deployment-wide replication factor for this
    node; ``None`` keeps the deployment default.

    ``select`` optionally keeps only a slice of the node's input (a
    :data:`~repro.sharding.Slice`: a shard's key-hash buckets, a diamond
    branch's modulo partition).  It runs at the *producer*, as a filtered
    subscription, so the fragment only receives, serializes, buffers, and
    emits its own slice while boundaries, undos, and REC_DONE markers still
    flow through untouched.  A node with a ``select`` has exactly one input,
    and that input is another node.

    ``stateful`` places the deployment's stateful operator (the SJoin whose
    state the checkpoints capture): ``None`` keeps the legacy placement
    (entry nodes run the join, downstream nodes are relays), ``True``/
    ``False`` overrides it per node.  Sharded deployments run the join *in
    the shards* -- partitioned state is the point of sharding -- and turn
    the split into a stateless router.
    """

    name: str
    inputs: tuple[str, ...]
    replicas: int | None = None
    select: Slice | None = None
    stateful: bool | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("node name cannot be empty")
        if not self.inputs:
            raise ConfigurationError(f"node {self.name!r} must have at least one input")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(set(self.inputs)) != len(self.inputs):
            raise ConfigurationError(f"node {self.name!r} lists a duplicate input edge")
        if self.name in self.inputs:
            raise ConfigurationError(f"node {self.name!r} cannot consume its own output")
        if self.replicas is not None and self.replicas < 1:
            raise ConfigurationError(f"node {self.name!r} must have replicas >= 1")
        if self.select is not None and not isinstance(self.select, Slice):
            raise ConfigurationError(
                f"node {self.name!r} has select {self.select!r}, which is not a slice "
                f"(a ShardSlice or PartitionSlice)"
            )

    @property
    def output_stream(self) -> str:
        """Name of the stream this node produces."""
        return f"{self.name}.out"


class Topology:
    """A validated DAG of :class:`NodeSpec`\\ s plus the graph queries DPC needs."""

    def __init__(self, nodes: Sequence[NodeSpec], name: str = "topology") -> None:
        self.name = name
        #: The planner-owned bucket assignment of a sharded topology (set by
        #: :meth:`Topology.shard`); None for every other shape.
        self.shard_assignment: ShardAssignment | None = None
        self._specs: dict[str, NodeSpec] = {}
        for spec in nodes:
            if spec.name in self._specs:
                raise ConfigurationError(f"duplicate node name {spec.name!r} in topology")
            self._specs[spec.name] = spec
        if not self._specs:
            raise ConfigurationError("topology must declare at least one node")
        #: node name -> names of the nodes consuming its output, declaration order.
        self._consumers: dict[str, list[str]] = {
            name: [
                spec.name for spec in self._specs.values() if name in spec.inputs
            ]
            for name in self._specs
        }
        self._order = self._topological_order()
        self._source_streams: list[str] = []
        for spec in self._order:
            for edge in spec.inputs:
                if edge not in self._specs and edge not in self._source_streams:
                    self._source_streams.append(edge)
        self._validate()

    # ------------------------------------------------------------------ construction helpers
    @classmethod
    def chain(cls, depth: int, n_input_streams: int = 3, name: str | None = None) -> "Topology":
        """The linear deployment of Figure 14: ``depth`` nodes in a path graph."""
        if depth < 1:
            raise ConfigurationError("chain depth must be >= 1")
        if n_input_streams < 1:
            raise ConfigurationError("n_input_streams must be >= 1")
        sources = tuple(f"s{i + 1}" for i in range(n_input_streams))
        nodes = [NodeSpec(name="node1", inputs=sources)]
        for level in range(1, depth):
            nodes.append(NodeSpec(name=f"node{level + 1}", inputs=(f"node{level}",)))
        return cls(nodes, name=name or f"chain-{depth}")

    @classmethod
    def diamond(
        cls,
        n_input_streams: int = 3,
        partition_attribute: str = "seq",
        name: str = "diamond",
    ) -> "Topology":
        """Reconvergent dataflow: ingest fans out to two branches that re-merge.

        ``ingest`` merges the source streams and feeds both ``left`` and
        ``right``.  Each branch selects a disjoint partition of the stream
        (even vs odd ``partition_attribute``, the sharded-dataflow shape) at
        ``ingest``, through one router both slices share, and ``merge``
        reunites the partitions with a 2-way fan-in SUnion -- the Figure 21
        shape where paths reconverge.
        """
        sources = tuple(f"s{i + 1}" for i in range(n_input_streams))
        left = modulo_partition(0, 2, partition_attribute, group=n_input_streams)
        right = replace(left, keep=frozenset({1}))  # left's router: one route per slice
        return cls(
            [
                NodeSpec(name="ingest", inputs=sources),
                NodeSpec(name="left", inputs=("ingest",), select=left),
                NodeSpec(name="right", inputs=("ingest",), select=right),
                NodeSpec(name="merge", inputs=("left", "right")),
            ],
            name=name,
        )

    @classmethod
    def fanin(
        cls, branches: int = 2, streams_per_branch: int = 2, name: str = "fanin"
    ) -> "Topology":
        """Cross-node fan-in: independent ingest branches merged by one node."""
        if branches < 2:
            raise ConfigurationError("fanin topology needs at least 2 branches")
        if streams_per_branch < 1:
            raise ConfigurationError("streams_per_branch must be >= 1")
        nodes = []
        stream = 0
        for branch in range(branches):
            inputs = tuple(f"s{stream + i + 1}" for i in range(streams_per_branch))
            stream += streams_per_branch
            nodes.append(NodeSpec(name=f"branch{branch + 1}", inputs=inputs))
        nodes.append(
            NodeSpec(name="merge", inputs=tuple(f"branch{b + 1}" for b in range(branches)))
        )
        return cls(nodes, name=name)

    @classmethod
    def shard(
        cls,
        shards: int,
        key: str = "seq",
        n_input_streams: int = 3,
        buckets: int = DEFAULT_BUCKETS,
        assignment: ShardAssignment | None = None,
        tie_group: int | None = None,
        name: str | None = None,
    ) -> "Topology":
        """N-way key-hash sharded scale-out: split -> N shards -> fan-in merge.

        ``split`` merges the source streams and routes its output to the
        shards; ``shard1`` ... ``shardN`` each receive only their slice of
        the key space (a key-hash select, evaluated at the split, so
        per-shard serialization, buffering, and output work is 1/N); and
        ``merge`` reunites the slices with an N-way fan-in SUnion.

        The slice predicates are owned by a :class:`~repro.sharding.ShardPlanner`:
        pass ``assignment`` to deploy a rebalanced bucket map (e.g. the
        ``after`` of a :class:`~repro.sharding.RebalancePlan`); by default
        the planner's even contiguous-range assignment is used.  The
        predicates are disjoint and exhaustive by construction, so the merge
        reassembles exactly the original stream.

        The shard key is grouped by ``tie_group`` (default ``n_input_streams``)
        so tuples sharing an stime (one tick of the interleaved sources) stay
        on one shard -- the fan-in SUnion orders stime ties by input port, and
        a straddling tie group would be reordered (same rule as
        ``modulo_partition``).  Workloads whose key attribute is already
        constant across a tick (the hot-key generators stamp one key per
        tick) pass ``tie_group=1``.
        """
        if shards < 1:
            raise ConfigurationError("shard count must be >= 1")
        if n_input_streams < 1:
            raise ConfigurationError("n_input_streams must be >= 1")
        if tie_group is not None and tie_group < 1:
            raise ConfigurationError("tie_group must be >= 1 when given")
        spec = ShardSpec(
            shards=shards,
            key=key,
            buckets=buckets,
            group=n_input_streams if tie_group is None else tie_group,
        )
        if assignment is None:
            assignment = ShardPlanner(spec).plan()
        elif assignment.spec != spec:
            raise ConfigurationError(
                f"assignment was planned for {assignment.spec}, but the topology "
                f"declares {spec}"
            )
        sources = tuple(f"s{i + 1}" for i in range(n_input_streams))
        # The split is a stateless router; the deployment's stateful join
        # runs *inside* the shards, over each shard's slice of the key space.
        nodes = [NodeSpec(name="split", inputs=sources, stateful=False)]
        for index in range(shards):
            nodes.append(
                NodeSpec(
                    name=f"shard{index + 1}",
                    inputs=("split",),
                    select=assignment.predicate(index),
                    stateful=True,
                )
            )
        nodes.append(
            NodeSpec(name="merge", inputs=tuple(f"shard{i + 1}" for i in range(shards)))
        )
        topology = cls(nodes, name=name or f"shard-{shards}")
        topology.shard_assignment = assignment
        return topology

    # ------------------------------------------------------------------ basic queries
    def __iter__(self) -> Iterator[NodeSpec]:
        """Iterate the node specs in topological order."""
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    @property
    def node_names(self) -> list[str]:
        """Node names in topological order."""
        return [spec.name for spec in self._order]

    def node(self, name: str) -> NodeSpec:
        try:
            return self._specs[name]
        except KeyError as exc:
            raise ConfigurationError(f"topology has no node {name!r}") from exc

    @property
    def source_streams(self) -> list[str]:
        """Source streams referenced by any node, in first-use order."""
        return list(self._source_streams)

    def input_streams(self, spec: NodeSpec) -> list[str]:
        """The stream names feeding ``spec``, in port order."""
        return [
            self._specs[edge].output_stream if edge in self._specs else edge
            for edge in spec.inputs
        ]

    def upstream_nodes(self, spec: NodeSpec) -> list[NodeSpec]:
        """Node-typed inputs of ``spec``, in port order."""
        return [self._specs[edge] for edge in spec.inputs if edge in self._specs]

    def is_entry(self, spec: NodeSpec) -> bool:
        """True when every input of ``spec`` is a source stream."""
        return all(edge not in self._specs for edge in spec.inputs)

    def consumers_of(self, name: str) -> list[NodeSpec]:
        """Nodes consuming ``name`` (a node name or a source stream), topo order."""
        if name in self._specs:
            consumers = set(self._consumers[name])
            return [spec for spec in self._order if spec.name in consumers]
        return [spec for spec in self._order if name in spec.inputs]

    def sinks(self) -> list[NodeSpec]:
        """Nodes whose output no other node consumes (each gets a client)."""
        return [spec for spec in self._order if not self._consumers[spec.name]]

    def replicas_of(self, name: str, default: int) -> int:
        replicas = self.node(name).replicas
        return default if replicas is None else replicas

    # ------------------------------------------------------------------ path queries
    def paths(self) -> list[tuple[str, ...]]:
        """Every entry-to-sink path, as tuples of node names."""
        paths: list[tuple[str, ...]] = []

        def walk(name: str, prefix: tuple[str, ...]) -> None:
            prefix = prefix + (name,)
            downstream = self.consumers_of(name)
            if not downstream:
                paths.append(prefix)
                return
            for consumer in downstream:
                walk(consumer.name, prefix)

        for spec in self._order:
            if self.is_entry(spec):
                walk(spec.name, ())
        return paths

    def depth(self) -> int:
        """Number of nodes on the longest entry-to-sink path.

        This is the quantity the Section 6.3 delay assignment divides the
        end-to-end budget ``X`` by: with every node on the longest path given
        ``X / depth()``, no path can accumulate more than ``X`` of delay, and
        shorter branches simply under-use the budget instead of over-assigning.

        Computed by dynamic programming over the topological order (not by
        enumerating paths, whose count is exponential in reconvergent DAGs).
        """
        longest: dict[str, int] = {}
        for spec in self._order:
            upstream = [longest[edge] for edge in spec.inputs if edge in self._specs]
            longest[spec.name] = 1 + max(upstream, default=0)
        return max(longest.values())

    # ------------------------------------------------------------------ validation
    def _topological_order(self) -> list[NodeSpec]:
        indegree = {
            name: sum(1 for edge in spec.inputs if edge in self._specs)
            for name, spec in self._specs.items()
        }
        # Ties broken by declaration order so the builder's walk is stable.
        ready = [name for name in self._specs if indegree[name] == 0]
        order: list[NodeSpec] = []
        while ready:
            current = ready.pop(0)
            order.append(self._specs[current])
            for consumer in self._consumers[current]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self._specs):
            cyclic = sorted(set(self._specs) - {spec.name for spec in order})
            raise ConfigurationError(f"topology has a cycle involving {cyclic}")
        return order

    def _validate(self) -> None:
        if not self.source_streams:  # pragma: no cover - unreachable once acyclic
            raise ConfigurationError("topology has no source streams feeding it")
        # An input edge that names a node always resolves to that node's
        # output, so a node named like a source stream would silently turn
        # other nodes' source edges into node edges.  The conventional
        # source names (s1, s2, ...) are therefore reserved.
        for spec in self._order:
            if _SOURCE_NAME.fullmatch(spec.name):
                raise ConfigurationError(
                    f"node name {spec.name!r} is reserved for source streams "
                    f"(s1, s2, ...); rename the node"
                )
            # A select is one filtered subscription to one upstream node:
            # entry fragments (fed by sources) and fan-in fragments have no
            # single producer to run it.
            if spec.select is not None and (self.is_entry(spec) or len(spec.inputs) != 1):
                shape = "an entry" if self.is_entry(spec) else "a fan-in"
                raise ConfigurationError(
                    f"node {spec.name!r} has a select but is {shape} node (inputs "
                    f"{spec.inputs!r}); a select runs at one upstream node"
                )
        if not self.sinks():  # pragma: no cover - impossible once acyclic
            raise ConfigurationError("topology has no sink node")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Topology {self.name!r} nodes={self.node_names} "
            f"sources={self.source_streams}>"
        )

