"""The deploy half of the deployment control plane.

:func:`deploy_placement` materializes a compiled
:class:`~repro.deploy.placement.Placement` onto a fresh simulator -- through
the one placement walk of :mod:`repro.deploy.wiring` -- and wraps the result
in a :class:`Deployment`: the live handle owning the cluster (simulator,
network, sources, replica groups, clients) *and* the control-plane
capabilities a one-shot build cannot express:

* **filtered subscriptions** -- the plan's filtered edges are wired through
  shared :class:`~repro.deploy.SubscriptionFilter` objects, so a shard
  fragment's key-hash slice is carved out at the *producer*: the split
  router ships each shard replica only its slice;

* **live reconfiguration** -- :meth:`Deployment.apply` takes a
  :class:`~repro.sharding.RebalancePlan`, cuts the slice predicates over at
  a bucket boundary of the serialization-time axis and leaves the moved
  buckets' SJoin state to the :mod:`repro.deploy.handoff` state machine;

* **elasticity** -- :meth:`Deployment.scale_out` / :meth:`Deployment.scale_in`
  attach and retire shard fragments on the running cluster by extending the
  placement and wiring the new edges through the same walk.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace as dataclass_replace
from itertools import compress
from operator import not_

from ..core.node import ProcessingNode
from ..core.states import NodeState
from ..errors import ConfigurationError, SimulationError
from ..sharding import RebalancePlan, ShardAssignment, ShardPlanner, ShardSlice
from ..sim.client import ClientApplication
from ..sim.cluster import Cluster
from ..sim.event_loop import Simulator
from ..sim.failures import FailureInjector
from ..sim.network import Network
from ..spe.operators.sunion import bucket_index
from ..spe.query_diagram import InputBinding
from ..statexfer import PeerRegistry, capture_checkpoint, seed_cursors
from .filters import SubscriptionFilter
from .handoff import Handoff, drain_time
from .placement import DeployOptions, NodePlan, Placement, SubscriptionPlan
from .wiring import Wiring, wire_placement


def deploy_placement(placement: Placement, options: DeployOptions) -> "Deployment":
    """Instantiate ``placement`` on a fresh simulator, hosting every endpoint."""
    simulator = Simulator()
    network = Network(simulator, default_latency=options.sim_config.network_latency)
    wiring = wire_placement(
        placement, simulator, network, PeerRegistry(), lambda endpoint: True, options
    )
    cluster = Cluster(
        simulator=simulator,
        network=network,
        failures=FailureInjector(simulator=simulator, network=network),
        sources=list(wiring.sources.values()),
        clients=list(wiring.clients.values()),
        topology=placement.topology,
    )
    for plan in placement.nodes:
        group = [wiring.nodes[name] for name in plan.replica_names]
        cluster.nodes.append(group)
        cluster.node_groups[plan.name] = group
    return Deployment(placement, cluster, wiring)


class Deployment:
    """A live deployment: the cluster plus its reconfiguration control plane."""

    def __init__(self, placement: Placement, cluster: Cluster, wiring: Wiring) -> None:
        #: The plan of what is deployed *now*: the elastic paths replace it
        #: as they attach and retire fragments.
        self.placement = placement
        self.cluster = cluster
        #: What the placement walk built and its context (clock, network,
        #: deploy options, delay budgets); the elastic paths extend it.
        self.wiring = wiring
        self.config = wiring.options.config
        self.sim_config = wiring.options.sim_config
        self.registry = wiring.registry
        #: Consumer node name -> the shared filter of its filtered subscription.
        self.subscription_filters = wiring.filters
        #: The bucket assignment currently routing the shard fragments (None
        #: for unsharded deployments); advanced by :meth:`apply`.
        self.current_assignment: ShardAssignment | None = placement.topology.shard_assignment
        #: Completed and in-flight reconfigurations, for reporting.
        self.rebalances: list[dict] = []
        #: Names of shard fragments a drain plan has evacuated; failure
        #: injection validates kill targets against it at fire time
        #: (:meth:`assert_kill_target_live`).
        self.drained: set[str] = set()
        #: Shard-assignment indices whose fragments a scale-in retired.  The
        #: NodePlans stay in the placement (shard_fragments indexing must stay
        #: positional) but the slots never receive buckets again.
        self.decommissioned: set[int] = set()
        #: Retired replica groups, kept addressable for post-mortem assertions.
        self.retired_groups: dict[str, list[ProcessingNode]] = {}
        #: Scale-out / scale-in actions, for reporting.
        self.scale_events: list[dict] = []
        #: The handoff between cut and completion; no other reconfiguration
        #: starts until it resolves.
        self.handoff: Handoff | None = None
        #: Split replica -> per-bucket count of the stable tuples its output
        #: buffer has truncated: with the retained suffix, the load history
        #: :meth:`observed_bucket_loads` reports.
        self._truncated_loads: dict[str, dict[int, float]] = {}
        if self.current_assignment is not None:
            producer = placement.shard_producer
            stream = placement.node_plan(producer).output_stream
            for replica in cluster.node_group(producer):
                counts = self._truncated_loads[replica.endpoint] = {}
                replica.data_path.output(stream).truncation_observer = (
                    lambda dropped, counts=counts: self._count_loads(dropped, counts)
                )

    # ------------------------------------------------------------------ delegation
    @property
    def simulator(self) -> Simulator:
        return self.cluster.simulator

    @property
    def network(self) -> Network:
        return self.cluster.network

    @property
    def topology(self):
        return self.placement.topology

    @property
    def clients(self) -> list[ClientApplication]:
        return self.cluster.clients

    def start(self) -> None:
        self.cluster.start()

    def run_for(self, duration: float) -> float:
        return self.cluster.run_for(duration)

    def run_until(self, end_time: float) -> float:
        return self.cluster.run_until(end_time)

    def summary(self) -> dict:
        return self.cluster.summary()

    def node(self, name: str, replica: int = 0) -> ProcessingNode:
        return self.cluster.node(name, replica)

    def node_group(self, name: str) -> list[ProcessingNode]:
        return self.cluster.node_group(name)

    # ------------------------------------------------------------------ load observation
    def observed_bucket_loads(self) -> dict[int, float]:
        """Per-hash-bucket tuple counts observed at the split router so far.

        A replica's history is what its output buffer has truncated (counted
        as it was dropped) plus what it still retains.  Replicas produce
        identical stable streams, but their histories can differ: a replica
        that recovered through checkpoint adoption holds only the suffix its
        partner's checkpoint shipped, so reading a fixed replica can badly
        undercount.  The measurement therefore uses the live replica with the
        longest history (ties resolve to the lowest replica index, which
        keeps the historical replica-0 behaviour whenever they agree), keyed
        by the deployment's shard spec.  This is the input
        :meth:`plan_rebalance` feeds to the planner.
        """
        self._require_sharded()
        producer = self.placement.shard_producer
        group = self.cluster.node_group(producer)
        stream = self.placement.node_plan(producer).output_stream
        candidates = [replica for replica in group if not replica._crashed] or group
        histories = []
        for replica in candidates:
            loads = dict(self._truncated_loads.get(replica.endpoint, ()))
            self._count_loads(replica.data_path.output(stream).buffered_items(), loads)
            histories.append(loads)
        return max(histories, key=lambda loads: sum(loads.values()))

    def _count_loads(self, block, loads: dict[int, float]) -> None:
        """Add ``block``'s stable rows to ``loads``, bucketed by the shard filters' route column."""
        buckets = self.current_assignment.spec.route(block)
        for bucket, count in Counter(compress(buckets, map(not_, block.codes))).items():
            loads[bucket] = loads.get(bucket, 0.0) + count

    def plan_rebalance(self, tolerance: float = 0.10) -> RebalancePlan:
        """Ask the planner for a plan against the *observed* bucket loads."""
        assignment = self._require_sharded()
        return ShardPlanner(assignment.spec).rebalance(
            assignment,
            self.observed_bucket_loads(),
            tolerance=tolerance,
            excluded=sorted(self.decommissioned),
        )

    def plan_drain(self, shard: int) -> RebalancePlan:
        """Plan the evacuation of one shard (0-based index) under observed loads."""
        assignment = self._require_sharded()
        return ShardPlanner(assignment.spec).drain(
            assignment,
            shard,
            self.observed_bucket_loads(),
            excluded=sorted(self.decommissioned),
        )

    # ------------------------------------------------------------------ live reconfiguration
    def apply(self, plan: RebalancePlan) -> dict:
        """Apply ``plan`` to the running deployment (bucket handoff).

        **Cut.**  Every shard fragment's subscription filter is advanced to
        the plan's ``after`` predicate for tuples serialized at or beyond the
        next *bucket boundary* past everything the split has produced.
        Routing stays a pure function of each tuple (old epoch below the
        cut, new epoch at or above it), so no tuple is ever duplicated or
        lost, no stime tie group straddles owners, and replays after later
        failures route exactly as the original delivery did.  A
        :class:`~repro.deploy.handoff.Handoff` then ships the moved buckets'
        SJoin state from the old owners to the new ones.

        Returns the reconfiguration record (also appended to
        :attr:`rebalances`).  No-op plans return immediately.
        """
        assignment = self._require_sharded()
        if plan.before != assignment:
            raise ConfigurationError(
                "rebalance plan was computed against a different assignment than "
                "the one currently deployed; re-plan against the live deployment"
            )
        # A no-op moves no state, so it need not wait for a failure to heal.
        self._require_quiescent("rebalance", stable=not plan.is_noop)
        now = self.simulator.now
        record: dict = {
            "applied_at": now,
            "moves": [
                {"bucket": m.bucket, "source": m.source, "target": m.target}
                for m in plan.moves
            ],
            "imbalance_before": plan.imbalance_before,
            "imbalance_after": plan.imbalance_after,
            "noop": plan.is_noop,
        }
        self.rebalances.append(record)
        if plan.is_noop:
            # Same record shape as an applied plan: nothing was cut and no
            # state moves, but downstream consumers of the record never have
            # to special-case missing keys.
            record.update(
                {
                    "cut_stime": None,
                    "drained": sorted(self.drained),
                    "state_handoff_at": None,
                    "completed": True,
                    "completed_at": now,
                    "state_tuples_shipped": 0,
                    "state_tuples_trimmed": 0,
                }
            )
            return record
        cut_stime = self._next_bucket_boundary()
        shard_names = self.placement.shard_fragments
        for index, name in enumerate(shard_names):
            if index not in self.decommissioned:  # a retired slot has no filter
                self.subscription_filters[name].advance(cut_stime, plan.after.predicate(index))
        self.current_assignment = plan.after
        # Recomputed (not accumulated) from the new assignment: a later plan
        # may re-populate a previously drained shard, which must then be a
        # legal kill target again.
        drained = [shard_names[i] for i in plan.after.empty_shards()]
        self.drained = set(drained)
        record["drained"] = drained
        self.handoff = Handoff(self, plan, record, cut_stime)
        return record

    def rebalance(self, tolerance: float = 0.10) -> dict:
        """Plan against observed loads and apply in one step (the mid-run hook)."""
        return self.apply(self.plan_rebalance(tolerance=tolerance))

    def reconfiguration_blocker(self, stable: bool = True) -> str | None:
        """Why no reconfiguration may start now, or None: the one quiesce guard.

        A handoff in flight always blocks; so does, with ``stable``, a
        replica that is not cleanly STABLE (elasticity yields to fault
        tolerance).
        """
        if self.handoff is not None:
            return (
                f"the handoff applied at t={self.handoff.record['applied_at']:.3f} "
                f"is still pending (completes or aborts at its state transfer)"
            )
        unstable = self.unstable_replicas() if stable else None
        if unstable:
            return f"the deployment is handling a failure (non-stable replicas: {unstable})"
        return None

    def _require_quiescent(self, action: str, stable: bool = True) -> None:
        blocker = self.reconfiguration_blocker(stable)
        if blocker is not None:
            raise SimulationError(f"cannot {action} while {blocker}")

    def _next_bucket_boundary(self) -> float:
        """First bucket boundary past everything the split has serialized."""
        producer = self.placement.shard_producer
        stream = self.placement.node_plan(producer).output_stream
        high = self.simulator.now
        for replica in self.cluster.node_group(producer):
            manager = replica.data_path.output(stream)
            high = max(high, manager.last_appended_stime)
        bucket = self.config.bucket_size
        return (bucket_index(high, bucket) + 1) * bucket

    def live_replicas(self, shard_index: int) -> list[ProcessingNode]:
        """The non-crashed replicas of one shard fragment (possibly empty)."""
        name = self.placement.shard_fragments[shard_index]
        group = self.cluster.node_groups.get(name) or self.retired_groups.get(name, [])
        return [replica for replica in group if not replica._crashed]

    def handoff_done(self, handoff: Handoff) -> None:
        """Mark the in-flight handoff resolved and run any deferred scale-in."""
        self.handoff = None
        if handoff.decommission is not None:
            self._decommission(handoff.decommission, handoff.record)

    # ------------------------------------------------------------------ elasticity
    def scale_out(self, count: int = 1, tolerance: float = 0.10) -> dict:
        """Attach ``count`` new shard fragments to the *running* deployment.

        The full scale-out protocol, in order:

        1. plan an incremental expansion (``ShardPlanner.expand``) against the
           observed bucket loads, skipping decommissioned slots;
        2. attach one relay fragment + replica group per new shard: build the
           diagrams, register the replicas in the :class:`PeerRegistry`, wire
           a fresh empty-slice :class:`SubscriptionFilter` into the split's
           producer-side routing, seed the input cursors from a live donor
           shard's :class:`RecoveryCheckpoint` (``statexfer.seed_cursors``),
           and widen every merge replica's fan-in SUnion by one port;
        3. cut the moved buckets over with the existing epoch-advancing
           filter machinery (:meth:`apply`), which also schedules the state
           handoff old owner -> new owner.

        Returns the reconfiguration record of the expansion plan.
        """
        assignment = self._require_sharded()
        self._require_quiescent("scale out")
        plan = ShardPlanner(assignment.spec).expand(
            assignment,
            count=count,
            bucket_loads=self.observed_bucket_loads(),
            tolerance=tolerance,
            excluded=sorted(self.decommissioned),
        )
        base = assignment.spec.shards
        added = [self._attach_shard_fragment(base + offset) for offset in range(count)]
        self.current_assignment = plan.before
        record = self.apply(plan)
        record["scale_out"] = {"added": added, "shards": self.active_shards()}
        self.scale_events.append(
            {"at": record["applied_at"], "action": "scale-out", **record["scale_out"]}
        )
        return record

    def scale_in(self, shard: int, tolerance: float = 0.10) -> dict:
        """Drain shard ``shard`` and decommission its fragment once it empties.

        The drain plan moves every bucket off the shard (:meth:`apply` cuts
        them over and ships the state); once the handoff completes, the
        fragment is *actually* retired: the merge's fan-in arity is rewired
        down one port, the split stops feeding the retired endpoints, and the
        replicas are unregistered from the network, the peer registry, and
        the cluster -- not left relaying punctuation as a ghost.
        """
        assignment = self._require_sharded()
        shard_names = self.placement.shard_fragments
        if not 0 <= shard < assignment.spec.shards:
            raise ConfigurationError(
                f"shard index {shard} out of range for {assignment.spec.shards} shards"
            )
        if shard in self.decommissioned:
            raise ConfigurationError(
                f"shard {shard_names[shard]!r} is already decommissioned"
            )
        if self.active_shards() <= 1:
            raise ConfigurationError("cannot scale in the last active shard")
        plan = ShardPlanner(assignment.spec).drain(
            assignment,
            shard,
            self.observed_bucket_loads(),
            excluded=sorted(self.decommissioned),
        )
        record = self.apply(plan)
        record["scale_in"] = {
            "retired": shard_names[shard],
            "shards": self.active_shards() - 1,
        }
        if self.handoff is None:
            # Already-empty shard: no handoff will fire, so schedule the
            # decommission after the relay pipeline drains its punctuation.
            self.simulator.schedule_in(
                drain_time(self.config, self.sim_config),
                lambda fire_time, s=shard, r=record: self._decommission(s, r),
            )
        else:
            self.handoff.defer_decommission(shard)
        self.scale_events.append(
            {"at": record["applied_at"], "action": "scale-in", **record["scale_in"]}
        )
        return record

    def active_shards(self) -> int:
        """Number of shard slots currently backed by a live fragment."""
        assignment = self._require_sharded()
        return assignment.spec.shards - len(self.decommissioned)

    def _active_shard(self) -> str:
        """Name of the lowest-indexed shard fragment still backed by replicas."""
        return next(
            name
            for index, name in enumerate(self.placement.shard_fragments)
            if index not in self.decommissioned
        )

    def _shard_edges(self, name: str) -> tuple[SubscriptionPlan, SubscriptionPlan]:
        """The two edges of shard fragment ``name``: split -> shard, shard -> merge."""
        edges = self.placement.subscriptions
        return (
            next(edge for edge in edges if edge.consumer == name),
            next(edge for edge in edges if edge.producer == name),
        )

    def _replan(
        self, nodes: tuple[NodePlan, ...], subscriptions: tuple[SubscriptionPlan, ...], merge: str
    ) -> None:
        """Replace the placement; the merge's port order follows its incoming edges."""
        inputs = tuple(edge.stream for edge in subscriptions if edge.consumer == merge)
        self.placement = dataclass_replace(
            self.placement,
            nodes=tuple(
                dataclass_replace(plan, inputs=inputs) if plan.name == merge else plan
                for plan in nodes
            ),
            subscriptions=subscriptions,
        )

    def _attach_shard_fragment(self, index: int) -> str:
        """Attach one new shard fragment (replica group + wiring) at ``index``.

        The placement grows by the fragment's NodePlan and its two edges
        (split -> shard, filtered; shard -> merge), modelled on an active
        shard, and the walk's own build and per-edge functions wire them.
        """
        placement, wiring = self.placement, self.wiring
        template = placement.node_plan(self._active_shard())
        name = f"shard{index + 1}"
        if name in self.cluster.node_groups or name in self.retired_groups:
            raise ConfigurationError(f"shard fragment {name!r} already exists")
        node_plan = dataclass_replace(
            template,
            name=name,
            output_stream=f"{name}.out",
            replica_names=tuple(name + "'" * r for r in range(template.replicas)),
            shard_index=index,
        )
        template_feed, template_drain = self._shard_edges(template.name)
        feed = dataclass_replace(template_feed, consumer=name, filter_name=f"{name}.slice")
        drain = dataclass_replace(template_drain, producer=name, stream=node_plan.output_stream)
        self._replan(
            placement.nodes + (node_plan,), placement.subscriptions + (feed, drain), drain.consumer
        )
        # The fresh slice owns nothing until the cut installs its buckets.
        empty = ShardSlice(self.current_assignment.spec, frozenset())
        wiring.filters[name] = SubscriptionFilter(empty, name=feed.filter_name)
        wiring.delay_budgets[name] = wiring.delay_budgets[template.name]
        group = wiring.build_group(node_plan)
        self.cluster.nodes.append(group)
        self.cluster.node_groups[name] = group
        # Pins the split's buffers from here until the new replicas' first
        # captures acknowledge their (seeded) cursors.
        wiring.connect(feed)
        now = self.simulator.now
        donor = next(
            (r for r in self.cluster.node_group(template.name) if not r._crashed), None
        )
        if donor is not None:
            checkpoint = capture_checkpoint(donor, now)
            for node in group:
                seed_cursors(node, checkpoint, now)

        # Widen the merge's fan-in by one port, live.
        merge_group = self.cluster.node_group(drain.consumer)
        for merge_node in merge_group:
            sunion_name = f"{merge_node.name}.sunion"
            port = merge_node.diagram.operator(sunion_name).add_port()
            merge_node.diagram.bind_input(drain.stream, sunion_name, port)
        wiring.connect(drain)
        for merge_node in merge_group:
            # The held checkpoint has the old port layout; adopting it after
            # the rewiring would restore a short port_boundaries list.
            merge_node.recovery.invalidate()
        for node in group:
            node.start()
        return name

    def _decommission(self, index: int, record: dict) -> None:
        """Retire a drained shard fragment: the attach path, inverted."""
        placement = self.placement
        name = placement.shard_fragments[index]
        group = self.cluster.node_groups.get(name)
        if group is None:
            return  # already decommissioned
        feed, drain = self._shard_edges(name)
        # 1. Stop feeding the retired fragment.
        self.wiring.disconnect(feed)

        # 2. Rewire the merge's fan-in arity down one port, live.
        merge_group = self.cluster.node_group(drain.consumer)
        for merge_node in merge_group:
            binding = next(b for b in merge_node.diagram.inputs if b.stream == drain.stream)
            merge_node.diagram.operator(binding.operator).remove_port(binding.port)
            merge_node.diagram.inputs = [
                b
                if b.operator != binding.operator or b.port < binding.port
                else InputBinding(b.stream, b.operator, b.port - 1)
                for b in merge_node.diagram.inputs
                if b.stream != drain.stream
            ]
            merge_node.recovery.invalidate()
        self.wiring.disconnect(drain)

        # 3. Retire the replicas: cancel their timers, leave the network and
        #    the peer registry.
        self.wiring.retire_group(name)

        # 4. The plan follows the deployment: the fragment's edges and filter
        #    go; its NodePlan stays (shard indexing is positional).
        self._replan(
            placement.nodes,
            tuple(edge for edge in placement.subscriptions if edge not in (feed, drain)),
            drain.consumer,
        )
        del self.subscription_filters[name]
        self.cluster.nodes.remove(group)
        del self.cluster.node_groups[name]
        self.retired_groups[name] = group
        self.decommissioned.add(index)
        self.drained.add(name)
        record["decommissioned_at"] = self.simulator.now

    # ------------------------------------------------------------------ helpers
    def unstable_replicas(self) -> list[str]:
        """Names of replicas currently not cleanly STABLE (quiesce check)."""
        return [
            node.name
            for node in self.cluster.all_nodes()
            if node.state is not NodeState.STABLE or node.fragment_dirty
        ]

    def _require_sharded(self) -> ShardAssignment:
        if self.current_assignment is None:
            raise ConfigurationError(
                f"deployment of topology {self.topology.name!r} is not sharded; "
                f"rebalancing needs a Topology.shard deployment"
            )
        return self.current_assignment

    def is_drained(self, name: str) -> bool:
        return name in self.drained

    def assert_kill_target_live(self, name: str) -> None:
        """Reject killing a node a live reconfiguration has already drained.

        Failure schedules are resolved against the compile-time placement;
        this is the fire-time complement, checked against the *current*
        deployment: once :meth:`apply` has evacuated a shard, crashing it no
        longer models anything (the fragment routes no data) and almost
        certainly indicates a schedule that predates the reconfiguration.
        """
        if name in self.drained:
            raise ConfigurationError(
                f"failure schedule kills node {name!r}, but a rebalance plan has "
                f"drained it; kill targets must be validated against the current "
                f"deployment, not the compile-time topology"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Deployment {self.topology.name!r} now={self.simulator.now:.3f} "
            f"rebalances={len(self.rebalances)} drained={sorted(self.drained)}>"
        )
