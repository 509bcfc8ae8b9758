"""Declarative scenario descriptions.

A :class:`ScenarioSpec` is the single way to describe a DPC deployment plus
the experiment run on top of it: the deployment topology, its replication
factor, the sources' aggregate rate, the DPC and simulation
configuration, the failure schedule, the run timing, and the determinism seed.
Compiling a spec (:meth:`ScenarioSpec.build`) produces a
:class:`~repro.runtime.runtime.SimulationRuntime` that owns the simulator,
cluster, failure injection, and metrics for one run;
:meth:`ScenarioSpec.run_live` runs the same compiled spec as forked worker
processes, and :meth:`ScenarioSpec.oracle` is the simulator run it must match.

Experiments, benchmarks, the CLI, and the examples all construct scenarios
through this layer instead of hand-assembling clusters (see DESIGN.md,
"Runtime layer").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

from ..config import DPCConfig, SimulationConfig
from ..deploy import AutoscalePolicy, Placement, compile as compile_topology
from ..errors import ConfigurationError
from ..topology import Topology
from ..workloads.generators import PayloadFactory, default_payload_factory
from ..workloads.scenarios import FailureSpec, resolve_failures

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..live.supervisor import LiveRunResult
    from ..spe.query_diagram import QueryDiagram
    from .runtime import SimulationRuntime

#: Builds a first-node fragment: (node_name, input_streams, output_stream).
DiagramFactory = Callable[[str, Sequence[str], str], "QueryDiagram"]


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, declarative scenario.

    The defaults reproduce the paper's workhorse deployment: one processing
    node replicated on two simulated machines, fed by three sources at an
    aggregate 150 tuples/s, with no failures scheduled.

    The deployment shape is ``topology``, a :class:`~repro.topology.Topology`
    describing an arbitrary replicated DAG; the factories (:meth:`chain`,
    :meth:`diamond`, :meth:`sharded`, ...) build it from their own keywords.
    """

    name: str = "scenario"
    # --- topology -------------------------------------------------------------
    #: Deployment DAG (one node fed by three sources by default).
    topology: Topology = Topology.chain(1)
    replicas_per_node: int = 2
    aggregate_rate: float = 150.0
    join_state_size: int | None = 100
    #: Optional custom first-node fragment (e.g. the plain-Union baseline of
    #: the overhead experiments); downstream nodes always run relay fragments.
    diagram_factory: DiagramFactory | None = None
    payload_factory: PayloadFactory = default_payload_factory
    #: Optional rate profile (stime -> multiplier of the base rate) shared by
    #: every source -- see :func:`~repro.workloads.generators.bursty_rate` and
    #: :func:`~repro.workloads.generators.diurnal_rate`.  Pure functions of
    #: the emission stime, so sources stay mutually aligned.
    rate_profile: Callable[[float], float] | None = None
    # --- configuration --------------------------------------------------------
    config: DPCConfig | None = None
    sim_config: SimulationConfig | None = None
    #: Delay budget D assigned to every node; None derives it from the config.
    per_node_delay: float | None = None
    #: Recovery-checkpoint cadence override: the sentinel ``"inherit"`` keeps
    #: whatever ``config`` (or the default DPCConfig) says, ``None`` disables
    #: periodic capture (forcing full-replay recovery), and a float sets the
    #: cadence in simulated seconds.  A spec-level knob so recovery-mode
    #: comparisons don't have to rebuild the whole DPCConfig.
    checkpoint_interval: float | None | str = "inherit"
    # --- reconfiguration ------------------------------------------------------
    #: Apply a load-driven rebalance to the live deployment at this simulated
    #: time: observed bucket loads -> ShardPlanner.rebalance -> Deployment.apply.
    #: Requires a sharded topology.
    rebalance_at: float | None = None
    #: Watermark policy of the elastic autoscaler loop (None disables it).
    #: The runtime arms an :class:`~repro.deploy.Autoscaler` on the deployment,
    #: which drives ``Deployment.scale_out`` / ``scale_in`` from per-shard
    #: processing rates.  Requires a sharded topology.
    autoscale: AutoscalePolicy | None = None
    #: Zipfian skew of the hot-key workload (set by ``sharded(skew=...)``).
    #: Resolved into a payload factory at build time so a later
    #: ``with_overrides(seed=...)`` re-seeds the key sequence too.
    hot_key_skew: float | None = None
    hot_key_count: int = 64
    # --- schedule -------------------------------------------------------------
    warmup: float = 5.0
    settle: float = 30.0
    failures: tuple[FailureSpec, ...] = ()
    #: Explicit total run length; None derives it from warmup/failures/settle.
    duration: float | None = None
    # --- determinism / measurement -------------------------------------------
    #: Seeds every RNG in the deployment; same spec + same seed => identical
    #: summaries, different seeds => different (statistically equivalent) runs.
    seed: int | None = None

    # ------------------------------------------------------------------ validation
    def validate(self, placement: "Placement | None" = None) -> None:
        """Raise :class:`ConfigurationError` unless this spec can run.

        The failure schedule is checked against ``placement`` -- this spec's
        compiled placement, compiled here when the caller has not already.
        """
        if self.replicas_per_node < 1:
            raise ConfigurationError("replicas_per_node must be >= 1")
        if self.aggregate_rate <= 0:
            raise ConfigurationError("aggregate_rate must be positive")
        if self.warmup < 0 or self.settle < 0:
            raise ConfigurationError("warmup and settle must be non-negative")
        if self.duration is not None and self.duration <= 0:
            raise ConfigurationError("duration must be positive when given")
        topology = self.topology
        if self.rebalance_at is not None:
            if topology.shard_assignment is None:
                raise ConfigurationError(
                    "rebalance_at requires a sharded topology (Topology.shard); "
                    f"topology {topology.name!r} has no shard assignment"
                )
            if self.rebalance_at <= 0:
                raise ConfigurationError("rebalance_at must be positive")
            if self.rebalance_at >= self.total_duration():
                raise ConfigurationError(
                    f"rebalance_at={self.rebalance_at:g}s lies beyond the run "
                    f"({self.total_duration():g}s); nothing would be rebalanced"
                )
            # The bucket handoff needs drain slack after the cut (at most one
            # bucket to reach the boundary, one bucket plus transport slack to
            # drain); a rebalance scheduled closer to the end of the run than
            # that would switch routing but never ship the join state.
            config = self.dpc_config()
            sim = self.simulation_config()
            handoff_slack = (
                2 * config.bucket_size
                + 2 * sim.batch_interval
                + 2 * sim.network_latency
            )
            if self.rebalance_at + handoff_slack >= self.total_duration():
                raise ConfigurationError(
                    f"rebalance_at={self.rebalance_at:g}s leaves less than the "
                    f"~{handoff_slack:g}s bucket-handoff drain slack before the "
                    f"run ends ({self.total_duration():g}s); the state handoff "
                    f"would never complete"
                )
            for failure in self.resolved_failures():
                # The live rebalance quiesces first and its handoff assumes
                # the drain window stays failure-free, so reject schedules
                # whose failure window overlaps [rebalance_at, rebalance_at +
                # handoff_slack] up front instead of dying (or endlessly
                # retrying the handoff) mid-simulation.
                if (
                    failure.start < self.rebalance_at + handoff_slack
                    and self.rebalance_at < failure.start + failure.duration
                ):
                    raise ConfigurationError(
                        f"rebalance_at={self.rebalance_at:g}s (plus "
                        f"~{handoff_slack:g}s of handoff drain) overlaps the "
                        f"{failure.kind!r} failure window "
                        f"[{failure.start:g}s, {failure.start + failure.duration:g}s); "
                        f"rebalance before the failure or after it heals"
                    )
        if self.autoscale is not None:
            self.autoscale.validate()
            if topology.shard_assignment is None:
                raise ConfigurationError(
                    "autoscale requires a sharded topology (Topology.shard); "
                    f"topology {topology.name!r} has no shard assignment"
                )
            initial = topology.shard_assignment.spec.shards
            if initial < self.autoscale.min_shards:
                raise ConfigurationError(
                    f"autoscale min_shards={self.autoscale.min_shards} exceeds the "
                    f"deployed shard count ({initial}); the loop could never "
                    f"satisfy its own floor"
                )
        if self.hot_key_skew is not None and self.hot_key_skew <= 0:
            raise ConfigurationError("hot_key_skew must be positive when given")
        if self.hot_key_count < 1:
            raise ConfigurationError("hot_key_count must be >= 1")
        # Every target error comes from the one resolver both backends consume.
        failures = self.resolved_failures()
        resolve_failures(
            placement or compile_topology(topology, replicas_per_node=self.replicas_per_node),
            failures,
        )
        for spec in failures:
            if self.duration is not None and spec.start + spec.duration > self.duration + 1e-9:
                # A failure that outlives an explicitly truncated run would end
                # with the deployment mid-failure: the ledger never reconciles
                # and every consistency assertion is vacuous.  Reject it at
                # build time instead of producing a silently inconclusive run.
                raise ConfigurationError(
                    f"failure {spec.kind!r} runs until t={spec.start + spec.duration:g}s "
                    f"but the scenario duration is only {self.duration:g}s"
                )
        if isinstance(self.checkpoint_interval, str) and self.checkpoint_interval != "inherit":
            raise ConfigurationError(
                f"checkpoint_interval must be a number, None, or 'inherit', "
                f"got {self.checkpoint_interval!r}"
            )
        self.dpc_config().validate()
        (self.sim_config or SimulationConfig()).validate()

    # ------------------------------------------------------------------ derived values
    def resolved_payload_factory(self) -> PayloadFactory:
        """The workload factory, with the hot-key knob bound to the final seed."""
        if self.hot_key_skew is not None:
            from ..workloads.generators import hot_key_payload_factory

            return hot_key_payload_factory(
                skew=self.hot_key_skew, keys=self.hot_key_count, seed=self.seed or 0
            )
        return self.payload_factory

    def dpc_config(self) -> DPCConfig:
        config = self.config or DPCConfig()
        if self.checkpoint_interval != "inherit":
            config = config.with_(checkpoint_interval=self.checkpoint_interval)
        return config

    def simulation_config(self) -> SimulationConfig:
        return self.sim_config or SimulationConfig()

    def deploy_options(self) -> dict:
        """The ``Placement.deploy`` arguments this spec fixes, for either backend."""
        return dict(
            config=self.dpc_config(),
            sim_config=self.sim_config,
            aggregate_rate=self.aggregate_rate,
            payload_factory=self.resolved_payload_factory(),
            join_state_size=self.join_state_size,
            per_node_delay=self.per_node_delay,
            diagram_factory=self.diagram_factory,
            seed=self.seed,
            rate_profile=self.rate_profile,
        )

    def total_duration(self) -> float:
        """Run length: explicit ``duration``, else ``settle`` past the end of
        the last failure (past ``warmup`` when none is scheduled)."""
        if self.duration is not None:
            return self.duration
        failures = self.resolved_failures()
        if not failures:
            return self.warmup + self.settle
        return max(spec.start + spec.duration for spec in failures) + self.settle

    def resolved_failures(self) -> tuple[FailureSpec, ...]:
        """Failures with ``start=None`` resolved to the *current* warmup.

        Resolution is deferred to use time so that
        ``spec.with_failure("disconnect").with_overrides(warmup=15.0)``
        injects the failure at the overridden warmup, not at the warmup in
        effect when :meth:`with_failure` was called.
        """
        return tuple(
            replace(spec, start=self.warmup) if spec.start is None else spec
            for spec in self.failures
        )

    # ------------------------------------------------------------------ derivation helpers
    def with_failure(
        self,
        kind: str,
        start: float | None = None,
        duration: float = 10.0,
        stream_index: int = 0,
        node: str | None = None,
        node_replica: int = 0,
    ) -> "ScenarioSpec":
        """A copy of this spec with one more scheduled failure.

        ``start=None`` means "at the end of the warmup" and is resolved
        lazily, so a later ``with_overrides(warmup=...)`` moves the failure
        with it.  A crash or partition targets logical node ``node`` by name
        (``None``: the first node in topological order).
        """
        spec = FailureSpec(
            kind=kind,
            start=start,
            duration=duration,
            stream_index=stream_index,
            node=node,
            node_replica=node_replica,
        )
        return replace(self, failures=self.failures + (spec,))

    def with_branch_crash(
        self, node: str, duration: float = 10.0, start: float | None = None
    ) -> "ScenarioSpec":
        """Crash *every* replica of ``node`` for ``duration`` seconds.

        This is the branch-kill schedule of the DAG experiments: with all
        replicas of one logical node down, downstream consumers cannot mask
        the failure by switching and must fall back to tentative processing.
        The replica set is resolved at injection time (``node_replica = -1``),
        so a later ``with_overrides(replicas_per_node=...)`` still kills the
        whole branch.
        """
        return self.with_failure(
            "crash", start=start, duration=duration, node=node, node_replica=-1
        )

    def with_partition(
        self,
        node: str | None = None,
        replica: int = 0,
        duration: float = 10.0,
        start: float | None = None,
    ) -> "ScenarioSpec":
        """Isolate one replica of ``node`` from the network for ``duration``.

        A network split, not a crash: the replica keeps processing but
        nothing crosses the partition in either direction until it heals
        (``replica=-1`` isolates every replica).  Both backends honour it --
        the simulator through ``FailureInjector.isolate_endpoint``, the live
        backend through the compiled :class:`~repro.live.faults.FaultPlan`.
        """
        return self.with_failure(
            "partition",
            start=start,
            duration=duration,
            node=node,
            node_replica=replica,
        )

    def with_shard_kill(
        self, shard: int | str = 1, duration: float = 10.0, start: float | None = None
    ) -> "ScenarioSpec":
        """Crash every replica of one shard of a sharded deployment.

        ``shard`` is the 1-based shard number (or the full node name, e.g.
        ``"shard2"``).  With both replicas of a shard down, the fan-in merge
        cannot mask the failure by switching: the dead shard's key-hash slice
        goes missing, the merge suspends for its delay budget and then
        processes the surviving shards' slices tentatively, and after the
        shard recovers reconciliation restores the gap-free ledger.
        """
        node = shard if isinstance(shard, str) else f"shard{shard}"
        return self.with_branch_crash(node, duration=duration, start=start)

    def with_overrides(self, **changes) -> "ScenarioSpec":
        """A copy of this spec with ``changes`` applied (dataclass replace)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ factories
    @classmethod
    def single_node(
        cls, replicated: bool = True, n_input_streams: int = 3, **changes
    ) -> "ScenarioSpec":
        """The Figure 10/12 deployment: one node, optionally replicated."""
        return cls(
            name=changes.pop("name", "single-node"),
            topology=Topology.chain(1, n_input_streams=n_input_streams),
            replicas_per_node=2 if replicated else 1,
            **changes,
        )

    @classmethod
    def chain(cls, depth: int, n_input_streams: int = 3, **changes) -> "ScenarioSpec":
        """The Figure 14 deployment: a chain of replicated nodes."""
        return cls(
            name=changes.pop("name", f"chain-{depth}"),
            topology=Topology.chain(depth, n_input_streams=n_input_streams),
            **changes,
        )

    @classmethod
    def diamond(cls, n_input_streams: int = 3, **changes) -> "ScenarioSpec":
        """Reconvergent DAG: ingest fans out to two partitioned branches that re-merge."""
        return cls(
            name=changes.pop("name", "diamond"),
            topology=Topology.diamond(n_input_streams=n_input_streams),
            **changes,
        )

    @classmethod
    def sharded(
        cls,
        shards: int = 4,
        key: str = "seq",
        n_input_streams: int = 3,
        buckets: int | None = None,
        skew: float | None = None,
        hot_keys: int = 64,
        **changes,
    ) -> "ScenarioSpec":
        """Key-hash sharded scale-out: split -> N shard fragments -> fan-in merge.

        The shard predicates come from a :class:`~repro.sharding.ShardPlanner`
        assignment (disjoint and exhaustive key-hash slices); pass a
        pre-built ``topology`` via :meth:`with_overrides` to deploy a
        rebalanced assignment.

        ``skew`` switches the workload to the zipfian hot-key generator
        (:func:`~repro.workloads.generators.hot_key_sequence`): tuples carry a
        skewed integer ``key`` attribute -- constant across each stime tie
        group -- and the deployment shards on it (``tie_group=1``), so
        per-bucket loads genuinely skew and a mid-run ``rebalance_at`` has
        real bucket moves to apply.  ``hot_keys`` sizes the key universe.
        """
        from ..sharding import DEFAULT_BUCKETS

        shard_key = key
        tie_group = None
        if skew is not None:
            shard_key = "key" if key == "seq" else key
            tie_group = 1
            if "payload_factory" not in changes:
                # Deferred: resolved_payload_factory() derives the generator
                # from the spec's *final* seed, so with_overrides(seed=...)
                # re-seeds the key sequence along with everything else.
                changes.setdefault("hot_key_skew", skew)
                changes.setdefault("hot_key_count", hot_keys)
        return cls(
            name=changes.pop("name", f"shard-{shards}"),
            topology=Topology.shard(
                shards,
                key=shard_key,
                n_input_streams=n_input_streams,
                buckets=DEFAULT_BUCKETS if buckets is None else buckets,
                tie_group=tie_group,
            ),
            **changes,
        )

    @classmethod
    def windowed_aggregate(
        cls,
        window_size: float = 1.0,
        window_slide: float | None = None,
        n_input_streams: int = 3,
        **changes,
    ) -> "ScenarioSpec":
        """Windowed-aggregation exerciser: sliding rollup over the value stream.

        A single replicated node runs
        :func:`~repro.workloads.queries.windowed_rollup_diagram`
        (SUnion -> sliding Aggregate -> seq-stamping Map -> SOutput), so the
        pane-based aggregation path -- including its checkpoint/restore during
        failures -- flows through the standard harness and the client-side
        consistency ledger.
        """
        from ..workloads.queries import windowed_rollup_factory

        return cls(
            name=changes.pop("name", "windowed-aggregate"),
            topology=Topology.chain(1, n_input_streams=n_input_streams),
            diagram_factory=windowed_rollup_factory(size=window_size, slide=window_slide),
            **changes,
        )

    @classmethod
    def fanin(cls, branches: int = 2, streams_per_branch: int = 2, **changes) -> "ScenarioSpec":
        """Cross-node fan-in: independent ingest branches merged by one node."""
        return cls(
            name=changes.pop("name", "fanin"),
            topology=Topology.fanin(branches=branches, streams_per_branch=streams_per_branch),
            **changes,
        )

    # ------------------------------------------------------------------ compilation
    def build(self) -> "SimulationRuntime":
        """Compile this spec into a runnable :class:`SimulationRuntime`."""
        from .runtime import SimulationRuntime

        return SimulationRuntime(self)

    def run(self) -> "SimulationRuntime":
        """Compile and run to completion (the one-liner most callers want)."""
        return self.build().run()

    def run_live(self, profile_dir: str | None = None) -> "LiveRunResult":
        """Run this spec as forked worker processes (see :func:`.runtime.run_live`)."""
        from .runtime import run_live

        return run_live(self, profile_dir)

    def oracle(self) -> "SimulationRuntime":
        """The drained simulator run whose stable ledger :meth:`run_live` must equal.

        Sources stop at :meth:`total_duration` exactly as the live run's do, so
        both backends hold the same finite workload; the simulation then keeps
        going until every in-flight bucket has stabilized.
        """
        from .runtime import ORACLE_DRAIN, SimulationRuntime

        stop = self.total_duration()
        return SimulationRuntime(self, source_stop_time=stop).run(stop + ORACLE_DRAIN)
