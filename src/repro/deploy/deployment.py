"""The deploy half of the deployment control plane.

:func:`deploy_placement` materializes a compiled
:class:`~repro.deploy.placement.Placement` onto a fresh simulator and wraps
the result in a :class:`Deployment`: the live handle owning the cluster
(simulator, network, sources, replica groups, clients) *and* the two
control-plane capabilities the one-shot builders could never express:

* **filtered subscriptions** -- the plan's filtered edges are wired through
  shared :class:`~repro.deploy.SubscriptionFilter` objects, so a shard
  fragment's key-hash slice is carved out at the *producer* and the split
  router no longer multicasts the full stream to every shard replica;

* **live reconfiguration** -- :meth:`Deployment.apply` takes a
  :class:`~repro.sharding.RebalancePlan` and performs the bucket handoff on
  the running deployment: the slice predicates are advanced at a bucket
  boundary of the serialization-time axis (so routing stays a pure function
  of each tuple and the merged ledger stays gap-free and duplicate-free
  across the handoff), and once the boundary has drained through the data
  path the moved buckets' SJoin state is shipped from the old owner to the
  new one through the existing checkpoint containers.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Callable, Sequence

import warnings
from dataclasses import replace as dataclass_replace

from ..config import DPCConfig, SimulationConfig
from ..core.node import ProcessingNode
from ..core.states import NodeState
from ..errors import ConfigurationError, SimulationError
from ..sharding import RebalancePlan, ShardAssignment, ShardPlanner
from ..sim.client import ClientApplication
from ..sim.event_loop import Simulator
from ..sim.events import EventKind
from ..sim.failures import FailureInjector
from ..sim.network import Network
from ..sim.sources import DataSource
from ..spe.query_diagram import InputBinding
from ..statexfer import (
    PeerRegistry,
    capture_checkpoint,
    extract_sjoin_state,
    merge_sjoin_state,
    seed_cursors,
    transfer_delay,
)
from ..workloads.generators import PayloadFactory, default_payload_factory
from .filters import SubscriptionFilter
from .placement import (
    FRAGMENT_ENTRY,
    FRAGMENT_INGRESS_FILTER,
    FRAGMENT_RELAY,
    NodePlan,
    Placement,
    SubscriptionPlan,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..spe.query_diagram import QueryDiagram


def deploy_placement(
    placement: Placement,
    config: DPCConfig | None = None,
    sim_config: SimulationConfig | None = None,
    *,
    aggregate_rate: float = 300.0,
    payload_factory: PayloadFactory = default_payload_factory,
    join_state_size: int | None = 100,
    per_node_delay: float | None = None,
    diagram_factory: "Callable[[str, Sequence[str], str], QueryDiagram] | None" = None,
    seed: int | None = None,
    rate_profile: Callable[[float], float] | None = None,
    source_stop_time: float | None = None,
) -> "Deployment":
    """Instantiate ``placement`` on a fresh simulator.

    The walk mirrors the documented behaviour of the historical
    ``build_dag_cluster`` exactly (those builders now delegate here): one
    logging source per source stream, one replica group per node plan with
    the fragment shape the plan chose, multicast fan-out over the batch
    transport, push-based state advertisement whenever the keepalive cadence
    allows it, and one measuring client per sink.  ``seed`` reproduces the
    deployment's randomness; see the builder's docstring.

    What the plan adds: edges marked *filtered* share one
    :class:`SubscriptionFilter` per consumer fragment, registered both at
    every producer replica (build-time subscription) and in every consumer
    replica's input monitor (carried on later re-subscriptions), so the
    producer only ships each consumer its slice.
    """
    # Imported late: repro.sim.cluster imports this module's shims' home.
    from ..sim.cluster import (
        Cluster,
        _node_delay_budgets,
        merge_diagram,
        relay_diagram,
        shard_relay_diagram,
    )

    topology = placement.topology
    config = config or DPCConfig()
    sim_config = sim_config or SimulationConfig()
    config.validate()
    sim_config.validate()

    simulator = Simulator()
    network = Network(simulator, default_latency=sim_config.network_latency)
    failures = FailureInjector(simulator=simulator, network=network)
    cluster = Cluster(
        simulator=simulator, network=network, failures=failures, topology=topology
    )

    delay_budgets = _node_delay_budgets(topology, config, per_node_delay)
    # One offset for every source: the whole workload shifts in time (so runs
    # with different seeds genuinely differ) while the sources stay mutually
    # aligned, which the end-of-run consistency accounting relies on.
    start_offset = (
        random.Random(seed).uniform(0.0, sim_config.batch_interval * 0.5)
        if seed is not None
        else 0.0
    )

    # --- sources ---------------------------------------------------------------
    source_by_stream: dict[str, DataSource] = {}
    for plan in placement.sources:
        source = DataSource(
            name=plan.name,
            stream=plan.stream,
            simulator=simulator,
            network=network,
            # Divided, not multiplied by the (1/n) share: the historical
            # builder computed rate/n, and `a/n` vs `a*(1/n)` differ by an
            # ulp for some stream counts -- enough to shift every seeded
            # emission time and break cross-version reproducibility.
            rate=aggregate_rate / len(placement.sources),
            boundary_interval=config.boundary_interval,
            batch_interval=sim_config.batch_interval,
            payload=payload_factory(plan.payload_index, len(placement.sources)),
            start_time=start_offset,
            stop_time=source_stop_time,
            # The same profile object for every source: profiles are pure
            # functions of the emission stime, so shared use keeps the
            # interleaved sources aligned (tie groups stay intact).
            rate_profile=rate_profile,
        )
        cluster.sources.append(source)
        source_by_stream[plan.stream] = source

    # --- subscription filters (one shared object per filtered consumer) --------
    subscription_filters: dict[str, SubscriptionFilter] = {}
    for edge in placement.filtered_subscriptions():
        spec = topology.node(edge.consumer)
        if spec.select is None:  # pragma: no cover - placement guarantees it
            raise ConfigurationError(
                f"filtered subscription of {edge.consumer!r} has no predicate"
            )
        subscription_filters[edge.consumer] = SubscriptionFilter(
            spec.select, name=edge.filter_name or f"{edge.consumer}.slice"
        )

    # --- processing nodes --------------------------------------------------------
    for plan in placement.nodes:
        spec = topology.node(plan.name)
        group: list[ProcessingNode] = []
        node_join_state = join_state_size if plan.stateful else None
        for node_name in plan.replica_names:
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
                # Legacy multicast routing: the slice is dropped at the
                # fragment's ingress, after crossing the network.
                diagram = shard_relay_diagram(
                    node_name,
                    plan.inputs[0],
                    plan.output_stream,
                    bucket_size=config.bucket_size,
                    select=spec.select,
                    join_state_size=node_join_state,
                )
            elif plan.fragment == FRAGMENT_RELAY:
                # A filtered consumer's slice already arrives pre-cut (the
                # predicate ran at the producer): its fragment is a plain
                # relay and carries no select of its own.
                filtered = plan.name in subscription_filters
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
            partners = [other for other in plan.replica_names if other != node_name]
            node = ProcessingNode(
                name=node_name,
                diagram=diagram,
                simulator=simulator,
                network=network,
                config=config,
                sim_config=sim_config,
                assigned_delay=delay_budgets[plan.name],
                replica_partners=partners,
                rng_seed=seed,
            )
            group.append(node)
        cluster.nodes.append(group)
        cluster.node_groups[plan.name] = group

    # --- wiring: sources -> consuming node replicas -------------------------------
    for source in cluster.sources:
        consumers: list[ProcessingNode] = []
        for spec in topology.consumers_of(source.stream):
            for node in cluster.node_groups[spec.name]:
                source.subscribe(node.endpoint)
                consumers.append(node)
        cluster.stream_consumers[source.stream] = consumers
    for spec in topology:
        for node in cluster.node_groups[spec.name]:
            for stream in spec.inputs:
                if stream not in source_by_stream:
                    continue
                source = source_by_stream[stream]
                node.register_input_stream(
                    source.stream, producers=[source.name], source_producers=[source.name]
                )

    # --- wiring: node -> node edges ------------------------------------------------
    # Nodes push their DPC state to registered watchers every keepalive period
    # (replacing probe round trips) whenever the push cadence can keep up with
    # the configured keepalive; otherwise consumers fall back to probing.
    push_state = config.keepalive_period + 1e-12 >= sim_config.batch_interval
    for spec in topology:
        consumer_filter = subscription_filters.get(spec.name)
        for upstream_spec in topology.upstream_nodes(spec):
            upstream_group = cluster.node_groups[upstream_spec.name]
            upstream_stream = upstream_spec.output_stream
            upstream_names = [n.endpoint for n in upstream_group]
            for node in cluster.node_groups[spec.name]:
                node.register_input_stream(
                    upstream_stream,
                    producers=upstream_names,
                    push_producers=upstream_names if push_state else (),
                    subscription_filter=consumer_filter,
                )
                # Every downstream replica initially reads from the first
                # upstream replica; DPC switches it if that replica fails.
                upstream_group[0].register_subscriber(
                    upstream_stream, node.endpoint, subscription_filter=consumer_filter
                )
                for upstream in upstream_group:
                    # Every upstream replica retains what this replica has
                    # not acknowledged, whichever one it is subscribed to.
                    upstream.register_consumer(upstream_stream, node.endpoint)
                    if push_state:
                        upstream.add_state_watcher(node.endpoint)

    # --- clients: one per sink ------------------------------------------------------
    for plan in placement.clients:
        sink_group = cluster.node_groups[plan.sink]
        client = ClientApplication(
            name=plan.name,
            stream=plan.stream,
            simulator=simulator,
            network=network,
            config=config,
            rng_seed=seed,
        )
        sink_names = [n.endpoint for n in sink_group]
        client.register_upstream(
            producers=sink_names, push_producers=sink_names if push_state else ()
        )
        sink_group[0].register_subscriber(plan.stream, client.endpoint)
        for node in sink_group:
            node.register_consumer(plan.stream, client.endpoint)
            if push_state:
                node.add_state_watcher(client.endpoint)
        cluster.clients.append(client)

    # --- state-transfer peer registry -----------------------------------------------
    # Checkpoint-shipped recovery discovers partners and prices replay
    # suffixes through this registry, and checkpoint acknowledgments travel
    # through it (zero simulated messages either way); nodes built outside
    # the deploy layer keep registry=None: they fall back to full
    # subscription replay and nothing upstream of them is truncated.
    registry = PeerRegistry()
    for source in cluster.sources:
        registry.register_source(source)
    for client in cluster.clients:
        client.statexfer_registry = registry
    for group in cluster.nodes:
        for node in group:
            registry.register_node(node)
            node.statexfer_registry = registry

    deployment = Deployment(
        placement=placement,
        cluster=cluster,
        config=config,
        sim_config=sim_config,
        subscription_filters=subscription_filters,
        join_state_size=join_state_size,
        seed=seed,
        registry=registry,
        delay_budgets=delay_budgets,
        push_state=push_state,
    )
    cluster.deployment = deployment
    return deployment


class Deployment:
    """A live deployment: the cluster plus its reconfiguration control plane."""

    def __init__(
        self,
        placement: Placement,
        cluster,
        config: DPCConfig,
        sim_config: SimulationConfig,
        subscription_filters: dict[str, SubscriptionFilter],
        join_state_size: int | None,
        seed: int | None = None,
        registry: PeerRegistry | None = None,
        delay_budgets: dict[str, float] | None = None,
        push_state: bool = False,
    ) -> None:
        self.placement = placement
        self.cluster = cluster
        self.config = config
        self.sim_config = sim_config
        #: Consumer node name -> the shared filter of its filtered subscription.
        self.subscription_filters = subscription_filters
        self.join_state_size = join_state_size
        #: Deployment-construction context the elastic paths replay when they
        #: attach a fragment to the running cluster (None/empty when the
        #: deployment was hand-wired rather than built by deploy_placement).
        self.seed = seed
        self.registry = registry
        self.delay_budgets = dict(delay_budgets or {})
        self.push_state = push_state
        #: The bucket assignment currently routing the shard fragments (None
        #: for unsharded deployments); advanced by :meth:`apply`.
        self.current_assignment: ShardAssignment | None = placement.topology.shard_assignment
        #: Completed and in-flight reconfigurations, for reporting.
        self.rebalances: list[dict] = []
        #: Names of shard fragments a drain plan has evacuated.  Shared with
        #: the cluster so failure injection can validate kill targets against
        #: the *current* deployment instead of the compile-time topology.
        self.drained: set[str] = cluster.drained_nodes
        #: Shard-assignment indices whose fragments a scale-in retired.  The
        #: NodePlans stay in the placement (shard_fragments indexing must stay
        #: positional) but the slots never receive buckets again.
        self.decommissioned: set[int] = set()
        #: Retired replica groups, kept addressable for post-mortem assertions.
        self.retired_groups: dict[str, list[ProcessingNode]] = {}
        #: Scale-out / scale-in actions, for reporting.
        self.scale_events: list[dict] = []
        #: The reconfiguration record currently between cut and completed
        #: state handoff; a second apply() is rejected until it resolves.
        self._pending_handoff: dict | None = None
        #: Total shipped-state tuples the bounded join windows trimmed across
        #: every handoff (including legacy-path handoffs whose records cannot
        #: carry the count without perturbing pinned summaries).
        self.handoff_trimmed_total = 0
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

    def node(self, key, replica: int = 0) -> ProcessingNode:
        return self.cluster.node(key, replica)

    def node_group(self, key) -> list[ProcessingNode]:
        return self.cluster.node_group(key)

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

    def _count_loads(self, items, loads: dict[int, float]) -> None:
        """Add the stable tuples among ``items`` to the per-bucket ``loads``."""
        spec = self.current_assignment.spec
        for item in items:
            if item.is_stable:
                bucket = spec.bucket_of(spec.key_of(item.values))
                loads[bucket] = loads.get(bucket, 0.0) + 1.0

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

        The handoff happens in two deterministic steps:

        1. **Cut.**  Every shard fragment's subscription filter is advanced
           to the plan's ``after`` predicate for tuples serialized at or
           beyond the next *bucket boundary* past everything the split has
           produced.  Routing stays a pure function of each tuple (old epoch
           below the cut, new epoch at or above it), so no tuple is ever
           duplicated or lost, no stime tie group straddles owners, and
           replays after later failures route exactly as the original
           delivery did.

        2. **State handoff.**  Once the cut has drained through the data
           path (one bucket plus transport slack later), the moved buckets'
           SJoin tuples are shipped from each old owner replica to the new
           owner through the operator checkpoint containers, keeping
           serialized-order within the target's bounded state.

        Returns the reconfiguration record (also appended to
        :attr:`rebalances`).  No-op plans return immediately.
        """
        assignment = self._require_sharded()
        if not self.placement.filtered_routing:
            raise ConfigurationError(
                "live rebalance needs filtered subscriptions; this deployment was "
                "compiled with filtered_routing=False (multicast routing)"
            )
        if plan.before != assignment:
            raise ConfigurationError(
                "rebalance plan was computed against a different assignment than "
                "the one currently deployed; re-plan against the live deployment"
            )
        if self._pending_handoff is not None:
            raise SimulationError(
                f"cannot apply a new reconfiguration while the handoff applied at "
                f"t={self._pending_handoff['applied_at']:.3f} is still pending "
                f"(completes or aborts at the scheduled state transfer)"
            )
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
                }
            )
            self.rebalances.append(record)
            return record
        unstable = self._unstable_replicas()
        if unstable:
            raise SimulationError(
                f"cannot rebalance while the deployment is handling a failure "
                f"(non-stable replicas: {unstable})"
            )

        # --- 1. advance the slice predicates at a bucket boundary ------------
        cut_stime = self._next_bucket_boundary()
        shard_names = self.placement.shard_fragments
        for index, name in enumerate(shard_names):
            if index in self.decommissioned:
                continue  # retired slot: no fragment carries its filter
            self.subscription_filters[name].advance(
                cut_stime, plan.after.predicate(index)
            )
        self.current_assignment = plan.after
        # Recomputed (not accumulated) from the new assignment: a later plan
        # may re-populate a previously drained shard, which must then be a
        # legal kill target again.  The set object is shared with the
        # cluster, so mutate it in place.
        drained = [shard_names[i] for i in plan.after.empty_shards()]
        self.drained.clear()
        self.drained.update(drained)

        # --- 2. ship the moved buckets' join state once the cut drains -------
        settle = (
            max(cut_stime - now, 0.0)
            + self.config.bucket_size
            + 2 * self.sim_config.batch_interval
            + 2 * self.sim_config.network_latency
        )
        record.update(
            {
                "cut_stime": cut_stime,
                "drained": drained,
                "state_handoff_at": now + settle,
                "completed": False,
            }
        )
        self.simulator.schedule_in(
            settle,
            lambda fire_time, p=plan, r=record, c=cut_stime: self._ship_join_state(
                p, c, r, fire_time
            ),
            kind=EventKind.INTERNAL,
            description=f"rebalance handoff ({len(plan.moves)} bucket(s))",
        )
        self.rebalances.append(record)
        self._pending_handoff = record
        return record

    def rebalance(self, tolerance: float = 0.10) -> dict:
        """Plan against observed loads and apply in one step (the mid-run hook)."""
        return self.apply(self.plan_rebalance(tolerance=tolerance))

    def _next_bucket_boundary(self) -> float:
        """First bucket boundary past everything the split has serialized."""
        producer = self.placement.shard_producer
        stream = self.placement.node_plan(producer).output_stream
        high = self.simulator.now
        for replica in self.cluster.node_group(producer):
            manager = replica.data_path.output(stream)
            high = max(high, manager.last_appended_stime)
        bucket = self.config.bucket_size
        return (math.floor(high / bucket) + 1) * bucket

    def _ship_join_state(
        self, plan: RebalancePlan, cut_stime: float, record: dict, now: float
    ) -> None:
        """Move the migrated buckets' SJoin tuples old owner -> new owner.

        Every source replica holds its own copy of the moved buckets' state;
        all copies are removed, and the first replica's copy becomes the
        canonical one merged into *every* target replica.  (Replica counts
        may differ per node, so index pairing would duplicate state into one
        target replica or leave another without it.)

        The quiesce assumption is re-checked at fire time: a failure that
        landed inside the drain window (possible for programmatic schedules;
        ScenarioSpec validation forbids it declaratively) would let a
        crashed-and-recovered old owner rebuild the shipped state from its
        subscription replay.  In that case the handoff is postponed until the
        deployment is stable again, keeping the no-duplication guarantee.

        With ``config.handoff_pricing`` the transfer is two-phase instead of
        instantaneous: the state is extracted here, priced through
        :func:`repro.statexfer.transfer_delay`, and merged into the targets
        only after the simulated transfer time has passed -- during which a
        crash *aborts* the handoff (see :meth:`_complete_priced_transfer`).
        """
        unstable = self._unstable_replicas()
        if unstable:
            record["handoff_retries"] = record.get("handoff_retries", 0) + 1
            self.simulator.schedule_in(
                max(self.config.bucket_size, self.sim_config.batch_interval),
                lambda fire_time, p=plan, r=record, c=cut_stime: self._ship_join_state(
                    p, c, r, fire_time
                ),
                kind=EventKind.INTERNAL,
                description="rebalance handoff retry (deployment unstable)",
            )
            return
        if self.config.handoff_pricing:
            self._begin_priced_transfer(plan, cut_stime, record, now)
            return
        transfers, shipped = self._extract_handoff_state(plan, cut_stime)
        trimmed = 0
        for _source, target, canonical in transfers:
            for target_node in self._live_replicas(target):
                trimmed += merge_sjoin_state(target_node, canonical)
        self._note_trimmed(trimmed, record, count_in_record=False)
        record["completed"] = True
        record["completed_at"] = now
        record["state_tuples_shipped"] = shipped
        self._finish_handoff(record)

    # ------------------------------------------------------------------ priced handoff
    def _extract_handoff_state(
        self, plan: RebalancePlan, cut_stime: float
    ) -> tuple[list[tuple[int, int, dict[int, list]]], int]:
        """Extract the moved buckets' state from every live old-owner replica.

        Returns ``([(source, target, canonical), ...], item_count)``.  The
        extraction invalidates the source replicas' recovery checkpoints: a
        checkpoint captured before the extraction would resurrect the shipped
        buckets if a partner adopted it later.
        """
        spec = plan.before.spec
        moves_by_pair: dict[tuple[int, int], set[int]] = {}
        for move in plan.moves:
            moves_by_pair.setdefault((move.source, move.target), set()).add(move.bucket)
        transfers: list[tuple[int, int, dict[int, list]]] = []
        shipped = 0
        for (source, target), buckets in sorted(moves_by_pair.items()):
            canonical: dict[int, list] = {}
            for index, source_node in enumerate(self._live_replicas(source)):
                extracted = extract_sjoin_state(source_node, spec, buckets, cut_stime)
                source_node.invalidate_recovery_checkpoint()
                if index == 0:
                    canonical = extracted
            transfers.append((source, target, canonical))
            shipped += sum(len(items) for items in canonical.values())
        return transfers, shipped

    def _begin_priced_transfer(
        self, plan: RebalancePlan, cut_stime: float, record: dict, now: float
    ) -> None:
        """Phase one of a priced handoff: extract, then ship for a priced delay."""
        transfers, shipped = self._extract_handoff_state(plan, cut_stime)
        delay = transfer_delay(self.config, shipped)
        record["transfer_started_at"] = now
        record["transfer_delay"] = delay
        self.simulator.schedule_in(
            delay,
            lambda fire_time, t=transfers, p=plan, r=record, c=cut_stime, s=shipped: (
                self._complete_priced_transfer(t, p, c, r, s, fire_time)
            ),
            kind=EventKind.INTERNAL,
            description=f"rebalance state transfer ({shipped} tuple(s))",
        )

    def _complete_priced_transfer(
        self,
        transfers: list[tuple[int, int, dict[int, list]]],
        plan: RebalancePlan,
        cut_stime: float,
        record: dict,
        shipped: int,
        now: float,
    ) -> None:
        """Phase two: merge into the new owners -- or abort if a crash landed.

        The abort path restores the extracted-but-unmerged state to the old
        owner's live replicas (their bounded join windows re-admit it in
        serialized order), invalidates their recovery checkpoints again, and
        re-arms the handoff from scratch once the deployment stabilizes.
        Without it, a crash between cut and merge would leave the moved
        buckets' state in limbo: extracted from the old owner, never merged
        into the new one.
        """
        shard_names = self.placement.shard_fragments
        crashed = [
            shard_names[index]
            for index, _target, _canonical in transfers
            if not self._live_replicas(index)
        ] + [
            shard_names[target]
            for _source, target, _canonical in transfers
            if not self._live_replicas(target)
        ]
        unstable = self._unstable_replicas()
        if unstable or crashed:
            restored = 0
            for source, _target, canonical in transfers:
                for source_node in self._live_replicas(source):
                    merge_sjoin_state(source_node, canonical)
                    source_node.invalidate_recovery_checkpoint()
                restored += sum(len(items) for items in canonical.values())
            reason = (
                f"target crashed mid-transfer: {sorted(set(crashed))}"
                if crashed
                else f"deployment unstable: {unstable}"
            )
            record.setdefault("aborts", []).append(
                {"at": now, "reason": reason, "restored_tuples": restored}
            )
            self.simulator.schedule_in(
                max(self.config.bucket_size, self.sim_config.batch_interval),
                lambda fire_time, p=plan, r=record, c=cut_stime: self._ship_join_state(
                    p, c, r, fire_time
                ),
                kind=EventKind.INTERNAL,
                description="rebalance handoff re-arm (transfer aborted)",
            )
            return
        trimmed = 0
        for _source, target, canonical in transfers:
            for target_node in self._live_replicas(target):
                trimmed += merge_sjoin_state(target_node, canonical)
                target_node.invalidate_recovery_checkpoint()
        self._note_trimmed(trimmed, record, count_in_record=True)
        record["completed"] = True
        record["completed_at"] = now
        record["state_tuples_shipped"] = shipped
        self._finish_handoff(record)

    def _live_replicas(self, shard_index: int) -> list[ProcessingNode]:
        """The non-crashed replicas of one shard fragment (possibly empty)."""
        name = self.placement.shard_fragments[shard_index]
        group = self.cluster.node_groups.get(name) or self.retired_groups.get(name, [])
        return [replica for replica in group if not replica._crashed]

    def _note_trimmed(self, trimmed: int, record: dict, count_in_record: bool) -> None:
        """Surface shipped-state tuples the bounded join windows dropped.

        Priced records carry the count directly; the legacy record shape is
        pinned by golden summaries, so there the count goes to the
        deployment-level total and a warning only.
        """
        self.handoff_trimmed_total += trimmed
        if count_in_record:
            record["state_tuples_trimmed"] = trimmed
        if trimmed:
            warnings.warn(
                f"bucket handoff at t={record['applied_at']:.3f}: the target "
                f"join's bounded state window trimmed {trimmed} shipped "
                f"tuple(s) (oldest first)",
                RuntimeWarning,
                stacklevel=2,
            )

    def _finish_handoff(self, record: dict) -> None:
        """Mark the in-flight handoff resolved and run any deferred scale-in."""
        if self._pending_handoff is record:
            self._pending_handoff = None
        decommission = record.get("decommission")
        if decommission is not None:
            self._decommission(decommission, record)

    # ------------------------------------------------------------------ elasticity
    def scale_out(self, count: int = 1, tolerance: float = 0.10) -> dict:
        """Attach ``count`` new shard fragments to the *running* deployment.

        The full scale-out protocol, in order:

        1. plan an incremental expansion (``ShardPlanner.expand``) against the
           observed bucket loads, skipping decommissioned slots;
        2. attach one relay fragment + replica group per new shard: build the
           diagrams, register the replicas in the :class:`PeerRegistry`, wire
           a fresh all-reject :class:`SubscriptionFilter` into the split's
           producer-side routing, seed the input cursors from a live donor
           shard's :class:`RecoveryCheckpoint` (``statexfer.seed_cursors``),
           and widen every merge replica's fan-in SUnion by one port;
        3. cut the moved buckets over with the existing epoch-advancing
           filter machinery (:meth:`apply`), which also schedules the state
           handoff old owner -> new owner.

        Returns the reconfiguration record of the expansion plan.
        """
        assignment = self._require_sharded()
        if not self.placement.filtered_routing:
            raise ConfigurationError(
                "scale-out needs filtered subscriptions; this deployment was "
                "compiled with filtered_routing=False (multicast routing)"
            )
        if self.registry is None or not self.delay_budgets:
            raise ConfigurationError(
                "scale-out needs a deployment built by deploy_placement (the "
                "attach path replays its wiring context)"
            )
        if self._pending_handoff is not None:
            raise SimulationError(
                "cannot scale out while a prior handoff is still pending"
            )
        unstable = self._unstable_replicas()
        if unstable:
            raise SimulationError(
                f"cannot scale out while the deployment is handling a failure "
                f"(non-stable replicas: {unstable})"
            )
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
            {
                "at": record["applied_at"],
                "action": "scale-out",
                "added": added,
                "shards": self.active_shards(),
            }
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
        if self._pending_handoff is not None:
            raise SimulationError(
                "cannot scale in while a prior handoff is still pending"
            )
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
        if record["completed"]:
            # Already-empty shard: no handoff will fire, so schedule the
            # decommission after the relay pipeline drains its punctuation.
            settle = (
                self.config.bucket_size
                + 2 * self.sim_config.batch_interval
                + 2 * self.sim_config.network_latency
            )
            self.simulator.schedule_in(
                settle,
                lambda fire_time, s=shard, r=record: self._decommission(s, r),
                kind=EventKind.INTERNAL,
                description=f"decommission drained shard {shard_names[shard]!r}",
            )
        else:
            record["decommission"] = shard
        self.scale_events.append(
            {
                "at": record["applied_at"],
                "action": "scale-in",
                "retired": shard_names[shard],
                "shards": self.active_shards() - 1,
            }
        )
        return record

    def active_shards(self) -> int:
        """Number of shard slots currently backed by a live fragment."""
        assignment = self._require_sharded()
        return assignment.spec.shards - len(self.decommissioned)

    def _attach_shard_fragment(self, index: int) -> str:
        """Attach one new shard fragment (replica group + wiring) at ``index``."""
        from ..sim.cluster import relay_diagram

        shard_names = self.placement.shard_fragments
        split_name = self.placement.shard_producer
        split_plan = self.placement.node_plan(split_name)
        split_stream = split_plan.output_stream
        template = self.placement.node_plan(shard_names[0])
        merge_name = next(
            plan.consumer
            for plan in self.placement.subscriptions
            if plan.producer == shard_names[0] and plan.kind == "node->node"
        )
        name = f"shard{index + 1}"
        if name in self.cluster.node_groups or name in self.retired_groups:
            raise ConfigurationError(f"shard fragment {name!r} already exists")

        replica_names = tuple(name + "'" * r for r in range(len(template.replica_names)))
        node_plan = NodePlan(
            name=name,
            fragment=FRAGMENT_RELAY,
            inputs=(split_stream,),
            output_stream=f"{name}.out",
            replica_names=replica_names,
            stateful=template.stateful,
            has_select=True,
            select_at="ingress",
            is_sink=False,
            shard_index=index,
        )
        self.placement = dataclass_replace(
            self.placement,
            nodes=self.placement.nodes + (node_plan,),
            subscriptions=self.placement.subscriptions
            + (
                SubscriptionPlan(
                    stream=split_stream,
                    producer=split_name,
                    consumer=name,
                    kind="node->node",
                    filtered=True,
                    filter_name=f"{name}.slice",
                ),
                SubscriptionPlan(
                    stream=node_plan.output_stream,
                    producer=name,
                    consumer=merge_name,
                    kind="node->node",
                ),
            ),
        )
        # The fresh slice owns nothing until the cut installs its predicate.
        slice_filter = SubscriptionFilter(lambda values: False, name=f"{name}.slice")
        self.subscription_filters[name] = slice_filter

        budget = self.delay_budgets.get(name, self.delay_budgets[shard_names[0]])
        node_join = self.join_state_size if node_plan.stateful else None
        group: list[ProcessingNode] = []
        for node_name in replica_names:
            diagram = relay_diagram(
                node_name,
                split_stream,
                node_plan.output_stream,
                bucket_size=self.config.bucket_size,
                select=None,
                join_state_size=node_join,
            )
            partners = [other for other in replica_names if other != node_name]
            group.append(
                ProcessingNode(
                    name=node_name,
                    diagram=diagram,
                    simulator=self.simulator,
                    network=self.network,
                    config=self.config,
                    sim_config=self.sim_config,
                    assigned_delay=budget,
                    replica_partners=partners,
                    rng_seed=self.seed,
                )
            )
        self.cluster.nodes.append(group)
        self.cluster.node_groups[name] = group

        now = self.simulator.now
        split_group = self.cluster.node_group(split_name)
        split_endpoints = [replica.endpoint for replica in split_group]
        merge_group = self.cluster.node_group(merge_name)
        donor_index = next(
            i for i in range(len(shard_names)) if i not in self.decommissioned
        )
        donor = next(
            (r for r in self.cluster.node_group(shard_names[donor_index]) if not r._crashed),
            None,
        )
        for node in group:
            node.register_input_stream(
                split_stream,
                producers=split_endpoints,
                push_producers=split_endpoints if self.push_state else (),
                subscription_filter=slice_filter,
            )
            split_group[0].register_subscriber(
                split_stream, node.endpoint, subscription_filter=slice_filter
            )
            for upstream in split_group:
                # Pins the split's buffers from here until the new replica's
                # first capture acknowledges its (seeded) cursor.
                upstream.register_consumer(split_stream, node.endpoint)
                if self.push_state:
                    upstream.add_state_watcher(node.endpoint)
            self.registry.register_node(node)
            node.statexfer_registry = self.registry
        if donor is not None:
            checkpoint = capture_checkpoint(donor, now)
            for node in group:
                seed_cursors(node, checkpoint, now)

        # Widen the merge's fan-in by one port, live.
        group_endpoints = [replica.endpoint for replica in group]
        for merge_node in merge_group:
            sunion_name = f"{merge_node.name}.sunion"
            port = merge_node.diagram.operator(sunion_name).add_port()
            merge_node.diagram.bind_input(node_plan.output_stream, sunion_name, port)
            merge_node.register_input_stream(
                node_plan.output_stream,
                producers=group_endpoints,
                push_producers=group_endpoints if self.push_state else (),
            )
            group[0].register_subscriber(node_plan.output_stream, merge_node.endpoint)
            for node in group:
                node.register_consumer(node_plan.output_stream, merge_node.endpoint)
                if self.push_state:
                    node.add_state_watcher(merge_node.endpoint)
            # The held checkpoint has the old port layout; adopting it after
            # the rewiring would restore a short port_boundaries list.
            merge_node.invalidate_recovery_checkpoint()
        for node in group:
            node.start()
        return name

    def _decommission(self, index: int, record: dict) -> None:
        """Retire a drained shard fragment: rewire, unsubscribe, unregister."""
        shard_names = self.placement.shard_fragments
        name = shard_names[index]
        group = self.cluster.node_groups.get(name)
        if group is None:
            return  # already decommissioned
        split_name = self.placement.shard_producer
        split_stream = self.placement.node_plan(split_name).output_stream
        shard_stream = self.placement.node_plan(name).output_stream
        merge_name = next(
            plan.consumer
            for plan in self.placement.subscriptions
            if plan.producer == name and plan.kind == "node->node"
        )
        merge_group = self.cluster.node_group(merge_name)
        endpoints = [replica.endpoint for replica in group]

        # 1. Stop feeding the retired fragment (unsubscribe *before* the
        #    endpoints leave the network: send_many rejects unknown receivers).
        for split_node in self.cluster.node_group(split_name):
            manager = split_node.data_path.output(split_stream)
            for endpoint in endpoints:
                manager.unsubscribe(endpoint)
                manager.remove_consumer(endpoint)
                split_node.remove_state_watcher(endpoint)

        # 2. Rewire the merge's fan-in arity down one port, live.
        for merge_node in merge_group:
            binding = next(
                b for b in merge_node.diagram.inputs if b.stream == shard_stream
            )
            merge_node.diagram.operator(binding.operator).remove_port(binding.port)
            merge_node.diagram.inputs = [
                b
                if b.operator != binding.operator or b.port < binding.port
                else InputBinding(b.stream, b.operator, b.port - 1)
                for b in merge_node.diagram.inputs
                if b.stream != shard_stream
            ]
            merge_node.deregister_input_stream(shard_stream)
            merge_node.invalidate_recovery_checkpoint()

        # 3. Retire the replicas: cancel their timers, leave the network.
        for node in group:
            for merge_node in merge_group:
                node.data_path.output(shard_stream).unsubscribe(merge_node.endpoint)
                node.remove_state_watcher(merge_node.endpoint)
            if self.registry is not None:
                self.registry.unregister_node(node.endpoint)
            node.retire()

        # 4. Forget the group; the NodePlan stays (positional shard indexing).
        self.cluster.nodes.remove(group)
        del self.cluster.node_groups[name]
        self.retired_groups[name] = group
        self.decommissioned.add(index)
        self.drained.add(name)
        record["decommissioned_at"] = self.simulator.now

    # ------------------------------------------------------------------ helpers
    def _unstable_replicas(self) -> list[str]:
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Deployment {self.topology.name!r} now={self.simulator.now:.3f} "
            f"rebalances={len(self.rebalances)} drained={sorted(self.drained)}>"
        )
