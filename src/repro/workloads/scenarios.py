"""Pre-canned failure scenarios shared by examples, tests, and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..errors import ConfigurationError
from ..sim.failures import FailureRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..deploy.placement import Placement
    from ..sim.cluster import Cluster


@dataclass(frozen=True)
class FailureSpec:
    """A declarative failure to inject into a cluster.

    ``kind`` selects the mechanism:

    * ``"disconnect"`` -- the source stops reaching every consumer (data is
      replayed after healing), the mechanism of the Section 5/6.1 experiments;
    * ``"silence"`` -- the source keeps sending data but stops producing
      boundary tuples, the mechanism of the Section 6.2 chain experiments;
    * ``"crash"`` -- a processing node crashes (fail-stop) and recovers;
    * ``"partition"`` -- a network split isolates a node replica from every
      other endpoint (the replica keeps running; nothing it sends arrives
      and nothing reaches it until the window heals).

    A crash names its target either by logical node name (``node``, the
    canonical addressing for DAG topologies) or, for the chain experiments,
    by ``node_level`` (index into the topological order); ``node`` wins when
    both are set.  ``node_replica`` selects the replica in either case;
    ``node_replica = -1`` targets *every* replica of the node (the
    branch-kill schedule of the DAG experiments).  :func:`resolve_failures`
    is the one place these target fields are interpreted.

    ``start=None`` is only meaningful inside a
    :class:`~repro.runtime.ScenarioSpec`, which resolves it to its warmup; a
    :class:`Scenario` requires every start to be a number.
    """

    kind: str
    start: float | None
    duration: float
    stream_index: int = 0
    node: str | None = None
    node_level: int = 0
    node_replica: int = 0


@dataclass(frozen=True)
class FailureAction:
    """One concrete failure of a compiled placement, named by endpoint.

    ``source`` is the data-source endpoint a ``disconnect`` severs from
    ``endpoint`` (or the one a ``silence`` mutes); ``endpoint`` is the node
    replica a disconnect starves, a ``partition`` isolates or a ``crash``
    kills, and ``node`` / ``replica`` are that replica's logical address.
    """

    kind: str
    start: float
    duration: float
    source: str | None = None
    endpoint: str | None = None
    node: str | None = None
    replica: int | None = None


def resolve_failures(
    placement: "Placement", failures: Iterable[FailureSpec]
) -> list[FailureAction]:
    """Resolve a failure schedule against ``placement``, once, for every consumer.

    ``ScenarioSpec.validate``, the simulator (:meth:`Scenario.inject`) and the
    live backend (:func:`repro.live.faults.compile_failures`) all read this
    result, so a schedule names the same endpoints -- and a bad target raises
    the same :class:`~repro.errors.ConfigurationError` -- wherever it runs.
    """
    actions: list[FailureAction] = []
    for spec in failures:
        if spec.start is None:
            raise ConfigurationError(
                f"failure {spec.kind!r} has an unresolved start; only a ScenarioSpec "
                f"resolves start=None (to its warmup)"
            )
        if spec.start < 0 or spec.duration <= 0:
            raise ConfigurationError(
                f"failure {spec.kind!r} must have start >= 0 and duration > 0"
            )
        window = (spec.kind, spec.start, spec.duration)
        if spec.kind in ("disconnect", "silence"):
            if not 0 <= spec.stream_index < len(placement.sources):
                raise ConfigurationError(
                    f"failure {spec.kind!r} targets stream {spec.stream_index}, but the "
                    f"placement has {len(placement.sources)} input streams"
                )
            source = placement.sources[spec.stream_index]
            if spec.kind == "silence":
                actions.append(FailureAction(*window, source=source.name))
                continue
            actions.extend(
                FailureAction(*window, source=source.name, endpoint=endpoint)
                for plan in placement.nodes
                if source.stream in plan.inputs
                for endpoint in plan.replica_names
            )
        elif spec.kind in ("crash", "partition"):
            if spec.node is not None:
                node = spec.node
            elif 0 <= spec.node_level < len(placement.nodes):
                node = placement.nodes[spec.node_level].name
            else:
                raise ConfigurationError(
                    f"failure {spec.kind!r} targets node level {spec.node_level}, but "
                    f"the placement has {len(placement.nodes)} node(s)"
                )
            names = placement.node_plan(node).replica_names
            if spec.node_replica == -1:
                replicas = range(len(names))
            elif 0 <= spec.node_replica < len(names):
                replicas = (spec.node_replica,)
            else:
                raise ConfigurationError(
                    f"failure {spec.kind!r} targets replica {spec.node_replica} of node "
                    f"{node!r}, which has {len(names)} replica(s)"
                )
            actions.extend(
                FailureAction(*window, endpoint=names[index], node=node, replica=index)
                for index in replicas
            )
        else:
            raise ConfigurationError(f"unknown failure kind {spec.kind!r}")
    return actions


@dataclass
class Scenario:
    """A cluster run: warm-up, failures, post-failure settle time."""

    warmup: float = 5.0
    settle: float = 20.0
    failures: list[FailureSpec] = field(default_factory=list)

    def total_duration(self) -> float:
        if not self.failures:
            return self.warmup + self.settle
        last_end = max(spec.start + spec.duration for spec in self.failures)
        return last_end + self.settle

    def inject(self, cluster: Cluster) -> list[FailureRecord]:
        """Schedule every failure of the scenario on a deployed ``cluster``."""
        deployment = cluster.deployment
        sources, nodes = deployment.wiring.sources, deployment.wiring.nodes
        injector = cluster.failures
        records: list[FailureRecord] = []
        for action in resolve_failures(deployment.placement, self.failures):
            when = (action.start, action.duration)
            if action.kind == "disconnect":
                record = injector.disconnect_stream(
                    sources[action.source], action.endpoint, *when
                )
            elif action.kind == "silence":
                record = injector.silence_boundaries(sources[action.source], *when)
            elif action.kind == "partition":
                record = injector.isolate_endpoint(action.endpoint, *when)
            else:
                # The schedule was resolved against the placement as compiled;
                # the guard re-checks at fire time against the *live*
                # deployment, which a mid-run rebalance may have reconfigured
                # (e.g. drained the targeted shard).
                record = injector.crash_processing_node(
                    nodes[action.endpoint],
                    *when,
                    guard=lambda c=cluster, g=action.node: c.assert_kill_target_live(g),
                )
            records.append(record)
        return records

    def run(self, cluster: Cluster) -> Cluster:
        """Inject the failures, start the cluster, and run it to completion."""
        self.inject(cluster)
        cluster.start()
        cluster.run_for(self.total_duration())
        return cluster


def single_failure(kind: str, start: float, duration: float, stream_index: int = 0, settle: float = 20.0) -> Scenario:
    """Scenario with one failure, the shape of most of the paper's experiments."""
    return Scenario(
        warmup=start,
        settle=settle,
        failures=[FailureSpec(kind=kind, start=start, duration=duration, stream_index=stream_index)],
    )
