"""Failure schedules: the declarative :class:`FailureSpec` and its one resolver.

A :class:`~repro.runtime.ScenarioSpec` carries its failures as
``FailureSpec`` s; :func:`resolve_failures` names the endpoints each one hits
in a compiled placement, and both backends schedule the result
(:meth:`repro.sim.failures.FailureInjector.inject`,
:func:`repro.live.faults.compile_failures`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..deploy.placement import Placement


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

    A crash or partition names its target by logical node name (``node``);
    ``None`` means the first node in topological order (the chain's first
    level).  ``node_replica`` selects the replica; ``node_replica = -1``
    targets *every* replica of the node (the branch-kill schedule of the DAG
    experiments).  :func:`resolve_failures` is the one place these target
    fields are interpreted.

    ``start=None`` is only meaningful inside a
    :class:`~repro.runtime.ScenarioSpec`, which resolves it to its warmup.
    """

    kind: str
    start: float | None
    duration: float
    stream_index: int = 0
    node: str | None = None
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

    ``ScenarioSpec.validate``, the simulator
    (:meth:`~repro.sim.failures.FailureInjector.inject`) and the live backend
    (:func:`repro.live.faults.compile_failures`) all read this result, so a
    schedule names the same endpoints -- and a bad target raises the same
    :class:`~repro.errors.ConfigurationError` -- wherever it runs.
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
            node = placement.nodes[0].name if spec.node is None else spec.node
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
