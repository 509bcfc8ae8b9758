"""Compiled scenario runtimes.

A :class:`SimulationRuntime` is the execution half of the runtime layer: it
owns everything one scenario run needs -- the deterministic simulator, the
network, the wired cluster (sources, replicated processing nodes, client),
the failure injector with the scenario's schedule, and the metrics the client
collects -- and exposes the handful of operations experiments perform (run,
inspect, summarize).  :func:`run_live` runs the same compiled spec as forked
worker processes instead; :func:`compile_spec` is the compile both share.

Typical use::

    from repro.runtime import ScenarioSpec, stable_ledger_rows

    spec = ScenarioSpec.chain(2, aggregate_rate=90.0, warmup=1.5, settle=1.5).with_failure(
        "disconnect", duration=1.0
    )
    runtime = spec.run()                      # the simulator
    print(runtime.client.proc_new, runtime.eventually_consistent())
    result = spec.run_live()                  # the same schedule on real processes
    assert result.stable_rows() == stable_ledger_rows(spec.oracle().client)
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from ..deploy import Autoscaler, Deployment, Placement, compile as compile_topology
from ..errors import ConfigurationError, SimulationError
from ..metrics.consistency import client_is_eventually_consistent
from ..sim.client import ClientApplication
from ..sim.cluster import Cluster
from ..sim.event_loop import Simulator
from ..sim.failures import FailureInjector, FailureRecord
from ..sim.network import Network
from ..sim.sources import DataSource
from ..spe import payload, tuples
from ..workloads.scenarios import resolve_failures
from .spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - the live backend is imported on use only
    from ..live.supervisor import LiveRunResult


#: Wall seconds a live run keeps going after its sources stop, so the last
#: boundary crosses the pipeline before the supervisor's drain poll takes over.
LIVE_POST_STOP_SLACK = 1.5
#: Bound on that drain poll (every client ledger must stop growing), wall seconds.
LIVE_DRAIN_TIMEOUT = 20.0
#: Virtual seconds an oracle run keeps going after its sources stop, so every
#: in-flight bucket stabilizes.
ORACLE_DRAIN = 6.0


def compile_spec(spec: ScenarioSpec) -> Placement:
    """The one compile both backends deploy: ``spec``'s placement, validated against it."""
    placement = compile_topology(spec.topology, replicas_per_node=spec.replicas_per_node)
    spec.validate(placement)
    return placement


def run_live(spec: ScenarioSpec, profile_dir: str | None = None) -> "LiveRunResult":
    """Run ``spec`` on the live backend: forked workers, wall-clock time.

    The same placement, deploy options and resolved failure schedule as
    :class:`SimulationRuntime`; crashes become SIGKILLs, disconnects and
    partitions wire-level window rules.  Sources stop at
    ``spec.total_duration()``, where the simulated schedule ends.  Everything
    the live backend cannot run is rejected before a process is forked.
    """
    from ..live.faults import compile_failures

    for name in ("rebalance_at", "autoscale"):
        if getattr(spec, name) is not None:
            raise ConfigurationError(
                f"{name} is simulator-only (the live backend has no control plane yet)"
            )
    placement = compile_spec(spec)
    faults, kills = compile_failures(placement, spec.resolved_failures(), seed=spec.seed or 0)
    stop = spec.total_duration()
    live = placement.deploy(**spec.deploy_options(), source_stop_time=stop, backend="live")
    return live.run(
        duration=stop + LIVE_POST_STOP_SLACK,
        kill=list(kills),
        faults=faults,
        drain_timeout=LIVE_DRAIN_TIMEOUT,
        profile_dir=profile_dir,
    )


class SimulationRuntime:
    """One compiled, runnable scenario (see :class:`ScenarioSpec`)."""

    def __init__(self, spec: ScenarioSpec, source_stop_time: float | None = None) -> None:
        self.spec = spec
        # Compile -> place -> deploy: the runtime owns the Deployment handle;
        # self.cluster stays as the familiar accessor for everything wired.
        self.placement = compile_spec(spec)
        self.topology = self.placement.topology
        self.deployment: Deployment = self.placement.deploy(
            **spec.deploy_options(), source_stop_time=source_stop_time
        )
        self.cluster: Cluster = self.deployment.cluster
        #: The elastic policy loop (armed at start when ``spec.autoscale``).
        self.autoscaler: Autoscaler | None = None
        self.injected: list[FailureRecord] = []
        self._started = False
        self._completed = False
        #: Host seconds spent inside :meth:`run` / :meth:`run_for` (wall
        #: clock, cumulative).  Deliberately *not* part of :meth:`summary`,
        #: which must stay byte-identical across hosts.
        self.wall_seconds = 0.0

    # ------------------------------------------------------------------ owned components
    @property
    def simulator(self) -> Simulator:
        return self.cluster.simulator

    @property
    def network(self) -> Network:
        return self.cluster.network

    @property
    def failures(self) -> FailureInjector:
        return self.cluster.failures

    @property
    def client(self) -> ClientApplication:
        return self.cluster.client

    @property
    def sources(self) -> list[DataSource]:
        return self.cluster.sources

    @property
    def clients(self) -> list[ClientApplication]:
        return self.cluster.clients

    def nodes(self):
        return self.cluster.all_nodes()

    def node(self, name: str, replica: int = 0):
        """Replica ``replica`` of logical node ``name``."""
        return self.cluster.node(name, replica)

    def node_group(self, name: str):
        """All replicas of logical node ``name``."""
        return self.cluster.node_group(name)

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> "SimulationRuntime":
        """Schedule the failure plan and start every component (idempotent)."""
        if self._started:
            return self
        self._started = True
        deployment = self.deployment
        self.injected = self.failures.inject(
            resolve_failures(deployment.placement, self.spec.resolved_failures()),
            deployment.wiring.sources,
            deployment.wiring.nodes,
            check_target=deployment.assert_kill_target_live,
        )
        if self.spec.rebalance_at is not None:
            self.simulator.schedule_at(
                self.spec.rebalance_at,
                lambda now: self.deployment.rebalance(),
            )
        if self.spec.autoscale is not None:
            self.autoscaler = Autoscaler(self.deployment, self.spec.autoscale)
            self.autoscaler.start()
        self.cluster.start()
        return self

    def run(self, duration: float | None = None) -> "SimulationRuntime":
        """Run the scenario to completion (or for an explicit ``duration``)."""
        if self._completed and duration is None:
            raise SimulationError(
                f"scenario {self.spec.name!r} already ran; build a new runtime to rerun it"
            )
        self.start()
        started = time.perf_counter()
        try:
            self.cluster.run_for(self.spec.total_duration() if duration is None else duration)
        finally:
            self.wall_seconds += time.perf_counter() - started
        if duration is None:
            self._completed = True
        return self

    def run_for(self, duration: float) -> "SimulationRuntime":
        """Advance the (started) simulation by ``duration`` seconds."""
        return self.run(duration=duration)

    def run_profiled(self) -> "tuple[pstats.Stats, dict[str, float]]":
        """Run the scenario under cProfile; returns the stats and three exact counters.

        Per source tuple produced: ``calls_per_source_tuple`` is every call
        the profiler saw, ``row_constructions_per_source_tuple`` the calls of
        the two functions of :mod:`repro.spe.tuples` that build a
        :class:`~repro.spe.tuples.StreamTuple` and ``mapping_...`` those of
        the one that builds a payload mapping.  All repeat exactly for a
        seed, so they gate the block data path where seconds cannot: a
        per-row loop on the stable spine shows up as >= 1 construction per
        tuple and hop.
        """
        stats, calls, rows, mappings = profile_calls(self.run)
        produced = sum(source.tuples_produced for source in self.sources)
        return stats, {
            "calls_per_source_tuple": calls / produced,
            "row_constructions_per_source_tuple": rows / produced,
            "mapping_constructions_per_source_tuple": mappings / produced,
        }

    # ------------------------------------------------------------------ results
    def eventually_consistent(self) -> bool:
        """True when *every* sink's stable ledger is gap-free, duplicate-free, and ordered.

        Single-sink deployments behave as before; a fan-out deployment is
        only consistent when each of its sinks is (a second sink silently
        dropping or reordering tuples must not hide behind the first).
        """
        return all(client_is_eventually_consistent(c) for c in self.clients)

    def sink_summaries(self) -> dict[str, dict]:
        """Per-sink client summaries plus each sink's own consistency verdict."""
        summaries: dict[str, dict] = {}
        for client in self.clients:
            summary = client.summary()
            summary["eventually_consistent"] = client_is_eventually_consistent(client)
            summaries[client.name] = summary
        return summaries

    def summary(self) -> dict:
        """Everything the run measured, keyed the way the experiments expect."""
        data = self.cluster.summary()
        data["scenario"] = self.spec.name
        data["seed"] = self.spec.seed
        data["topology"] = {
            "name": self.topology.name,
            "nodes": self.topology.node_names,
            "sources": self.topology.source_streams,
        }
        data["events_fired"] = self.simulator.events_fired
        verdicts = {
            client.name: client_is_eventually_consistent(client) for client in self.clients
        }
        data["eventually_consistent"] = all(verdicts.values())
        data["sinks_consistent"] = verdicts
        data["failures"] = [
            {
                "type": record.failure_type.value,
                "target": record.target,
                "start": record.start,
                "duration": record.duration,
            }
            for record in self.injected
        ]
        data["rebalances"] = [dict(record) for record in self.deployment.rebalances]
        data["recoveries"] = [
            dict(record, node=node.name)
            for group in self.cluster.nodes
            for node in group
            for record in node.recoveries
        ]
        # The autoscaler's report, on runs that armed one (``spec.autoscale``).
        if self.autoscaler is not None:
            autoscale = self.autoscaler.summary()
            autoscale["scale_events"] = [
                dict(event) for event in self.deployment.scale_events
            ]
            autoscale["final_shards"] = self.deployment.active_shards()
            data["autoscale"] = autoscale
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimulationRuntime {self.spec.name!r} topology={self.topology.name!r} "
            f"now={self.simulator.now:.3f}>"
        )


def run_scenario(spec: ScenarioSpec) -> SimulationRuntime:
    """Compile ``spec`` and run it to completion."""
    return SimulationRuntime(spec).run()


def profile_calls(run: "Callable[[], object]") -> "tuple[pstats.Stats, int, int, int]":
    """Call ``run()`` under cProfile: the stats, every call, the row constructions and
    the payload mappings built.

    The counts are summed over the profiler's raw entries, one per code
    object.  ``pstats.Stats`` keys functions by ``(file, line, name)``, under
    which every dataclass ``__init__`` is ``('<string>', 2, '__init__')``: it
    keeps one of them and drops the others' calls from ``total_calls``.
    """
    import cProfile  # not at module level: only profiled runs pay the import
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    entries = profiler.getstats()
    constructors = (tuples._row.__code__, tuples.StreamTuple.__init__.__code__)
    calls = sum(entry.callcount for entry in entries)
    rows = sum(entry.callcount for entry in entries if entry.code in constructors)
    mappings = sum(entry.callcount for entry in entries if entry.code is payload._mapping.__code__)
    return pstats.Stats(profiler), calls, rows, mappings
