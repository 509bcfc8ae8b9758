"""The benchmark's four workloads: what runs, at what size, and how it is checked.

Every workload builds a *fresh* deployment from ``(seed, quick, seconds)``
and nothing else, so the program under test sees only generated inputs.
The three ``sim-*`` workloads are :class:`~repro.runtime.ScenarioSpec` runs;
``live-chain2-steady`` forks real worker processes and is checked against a
simulator run of the same placement and seed (the *oracle*).  README.md says
why each workload was chosen and which layers it stresses.
"""

from __future__ import annotations

import inspect
import resource
import time
from dataclasses import dataclass
from typing import Callable

import repro.deploy.placement as placement_module
from repro import ScenarioSpec
from repro.config import DPCConfig
from repro.core.states import NodeState
from repro.live.supervisor import LiveDeployment, LiveRunResult
from repro.live.worker import stable_ledger_rows
from repro.topology import Topology

#: Seconds the supervisor sleeps between the fork and the shared epoch (its
#: public default; the live run is ``startup + duration + drain`` long).
LIVE_STARTUP_S = inspect.signature(LiveDeployment.run).parameters["startup_delay"].default

#: Virtual seconds the oracle keeps running after the sources stop, so every
#: in-flight bucket stabilizes (same slack as the live/sim parity tests).
_ORACLE_DRAIN = 6.0


class SimRun:
    """One fresh simulated deployment; :meth:`run` drives it to completion once."""

    def __init__(self, deployment, drive: Callable[[], object], failure=None) -> None:
        self.deployment = deployment
        self._drive = drive
        #: The scheduled :class:`~repro.workloads.FailureSpec`, if any.
        self.failure = failure
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def run(self) -> "SimRun":
        wall, cpu = time.perf_counter(), time.process_time()
        self._drive()
        self.wall_s = time.perf_counter() - wall
        self.cpu_s = time.process_time() - cpu
        return self

    @property
    def nodes(self) -> list:
        return self.deployment.cluster.all_nodes()

    @property
    def source_tuples(self) -> int:
        return sum(source.tuples_produced for source in self.deployment.cluster.sources)


def _scenario(spec: ScenarioSpec) -> SimRun:
    runtime = spec.build()
    return SimRun(runtime.deployment, runtime.run, spec.failures[0] if spec.failures else None)


def _shard4_steady(seed: int, quick: bool, seconds: float) -> SimRun:
    return _scenario(
        ScenarioSpec.sharded(
            shards=4,
            replicas_per_node=2,
            n_input_streams=3,
            aggregate_rate=2400,
            warmup=3 if quick else 30,
            settle=0,
            seed=seed,
        )
    )


def _chain4_disconnect(seed: int, quick: bool, seconds: float) -> SimRun:
    # Figures 15/16/19: D = 2 s at each of 4 nodes, so X = 8 s end to end.
    # The rate stays at 150: at 300 the modelled redo_rate=1200 never lets
    # the chain re-stabilise within the settle.
    warmup, outage, settle = (2, 4, 12) if quick else (10, 30, 45)
    return _scenario(
        ScenarioSpec.chain(
            4,
            replicas_per_node=2,
            aggregate_rate=150,
            per_node_delay=2.0,
            config=DPCConfig(max_incremental_latency=8.0),
            warmup=warmup,
            settle=settle,
            seed=seed,
        ).with_failure("silence", start=warmup, duration=outage, stream_index=0)
    )


def _window_crash(seed: int, quick: bool, seconds: float) -> SimRun:
    warmup, downtime, settle = (6, 3, 8) if quick else (20, 10, 30)
    return _scenario(
        ScenarioSpec.windowed_aggregate(
            window_size=100,
            window_slide=1,
            aggregate_rate=600 if quick else 2400,
            replicas_per_node=2,
            checkpoint_interval=2,
            warmup=warmup,
            settle=settle,
            seed=seed,
        ).with_failure("crash", start=warmup, duration=downtime, node_replica=0)
    )


# --------------------------------------------------------------------------- live
def live_duration(seconds: float) -> float:
    """Paced wall seconds of the live run; the sources stop one second earlier."""
    return max(float(seconds), 2.0)


def _live_deploy(seed: int, quick: bool, seconds: float, **backend):
    # 4000 tuples/s is about a quarter of the measured saturation rate of
    # this 3-process pipeline, so the run measures the program's CPU cost
    # per tuple rather than the scheduler of a shared 2-core box.
    return placement_module.compile(Topology.chain(2), replicas_per_node=1).deploy(
        seed=seed,
        aggregate_rate=400 if quick else 4000,
        source_stop_time=live_duration(seconds) - 1.0,
        **backend,
    )


def _live_oracle(seed: int, quick: bool, seconds: float) -> SimRun:
    deployment = _live_deploy(seed, quick, seconds)

    def drive() -> None:
        deployment.start()
        deployment.run_for(live_duration(seconds) - 1.0 + _ORACLE_DRAIN)

    return SimRun(deployment, drive)


def live_deployment(seed: int, quick: bool, seconds: float) -> LiveDeployment:
    return _live_deploy(seed, quick, seconds, backend="live")


@dataclass
class LiveObservation:
    result: LiveRunResult
    duration: float
    #: user + system CPU seconds of all worker processes (RUSAGE_CHILDREN delta).
    cpu_s: float
    #: Largest resident set of any child waited for so far, MB.
    peak_rss_mb: float

    @property
    def source_tuples(self) -> int:
        return sum(self.result.sources.values())

    @property
    def drain_s(self) -> float:
        """Wall seconds the supervisor waited for the ledgers to stop growing."""
        return self.result.wall_seconds - LIVE_STARTUP_S - self.duration


def run_live(seed: int, quick: bool, seconds: float) -> LiveObservation:
    live = live_deployment(seed, quick, seconds)
    duration = live_duration(seconds)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = live.run(duration=duration, drain_timeout=30.0)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return LiveObservation(
        result=result,
        duration=duration,
        cpu_s=(after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        peak_rss_mb=after.ru_maxrss / 1024.0,
    )


# --------------------------------------------------------------------------- registry
@dataclass(frozen=True)
class Workload:
    """BENCHMARK.json says in one line why each was chosen; README.md has the long form."""

    name: str
    #: (seed, quick, seconds) -> fresh simulated deployment (live: the oracle).
    build: Callable[[int, bool, float], SimRun]
    live: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-shard4-steady", _shard4_steady),
        Workload("sim-chain4-disconnect", _chain4_disconnect),
        Workload("sim-window-crash", _window_crash),
        Workload("live-chain2-steady", _live_oracle, live=True),
    )
}


# --------------------------------------------------------------------------- checks
def ledger_violations(sequence: list) -> tuple[int, int]:
    """(expected rows, missing + duplicate + out-of-order rows) of a stable ledger."""
    if not sequence:
        return 1, 1
    distinct = len(set(sequence))
    expected = max(sequence) - min(sequence) + 1
    out_of_order = sum(1 for a, b in zip(sequence, sequence[1:]) if b < a)
    return expected, (expected - distinct) + (len(sequence) - distinct) + out_of_order


def verify(run: SimRun) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one completed simulated run.

    ``eventually_consistent()`` alone is true for a chain that never
    re-stabilised, so the failure workloads also demand every replica back
    in STABLE, the recovery evidence of their failure kind, and Proc_new < X.
    """
    attempted = failed = 0
    problems: list[str] = []
    for client in run.deployment.clients:
        expected, bad = ledger_violations(client.stable_sequence)
        attempted += expected
        failed += bad
        if bad:
            problems.append(f"{client.name}: {bad} missing/duplicate/out-of-order stable rows")
    if run.failure is None:
        return attempted, failed, problems
    unstable = [node.name for node in run.nodes if node.state is not NodeState.STABLE]
    if unstable:
        failed += len(unstable)
        problems.append(f"not back in STABLE: {unstable}")
    if run.failure.kind == "crash":
        recovered = any(r["mode"] == "checkpoint" for n in run.nodes for r in n.recoveries)
    else:
        recovered = any(c.metrics.consistency.total_rec_done for c in run.deployment.clients)
    if not recovered:
        failed += 1
        problems.append(f"no recovery evidence for the {run.failure.kind} failure")
    bound = run.deployment.config.max_incremental_latency
    proc_new = max(client.proc_new for client in run.deployment.clients)
    if proc_new >= bound:
        failed += 1
        problems.append(f"Proc_new {proc_new:.3f} s is not below X = {bound:g} s")
    return attempted, failed, problems


def verify_live(observed: LiveObservation, oracle: SimRun) -> tuple[int, int, list[str]]:
    """Live stable rows must be byte-identical to the oracle's, and gap-free."""
    expected_rows = stable_ledger_rows(oracle.deployment.clients[0])
    rows = observed.result.stable_rows()
    differing = sum(1 for a, b in zip(rows, expected_rows) if a != b)
    differing += abs(len(rows) - len(expected_rows))
    _, bad = ledger_violations([row[0] for row in rows])
    problems = []
    if differing:
        problems.append(f"{differing} stable rows differ from the sim oracle")
    if bad:
        problems.append(f"{bad} missing/duplicate/out-of-order live stable rows")
    return max(len(expected_rows), 1), differing + bad, problems


def model_outputs(run: SimRun) -> dict[str, tuple[float, str]]:
    """The simulator's deterministic client-side outputs (the paper's numbers)."""
    clients = run.deployment.clients
    latencies = sorted(
        value for c in clients for value in c.metrics.latency.latencies(new_only=True)
    )
    recovery = 0.0
    if run.failure is not None and run.failure.kind == "crash":
        recovery = max(
            (n.recoveries[-1]["recovery_s"] for n in run.nodes if n.recoveries), default=0.0
        )
    elif run.failure is not None:
        corrections = [
            entry.time
            for c in clients
            for entry in c.metrics.trace
            if entry.tuple_type in ("undo", "rec_done")
        ]
        failure_end = run.failure.start + run.failure.duration
        recovery = max(corrections, default=failure_end) - failure_end
    return {
        "client.proc_new_s": (max(c.proc_new for c in clients), "virt_s"),
        "client.latency_p50_s": (latencies[len(latencies) // 2], "virt_s"),
        "client.latency_p99_s": (latencies[len(latencies) * 99 // 100], "virt_s"),
        "client.latency_samples": (len(latencies), "count"),
        "client.n_tentative": (sum(c.n_tentative for c in clients), "count"),
        "client.recovery_s": (recovery, "virt_s"),
    }
