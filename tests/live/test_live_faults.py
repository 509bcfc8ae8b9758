"""Live-backend fault injection tests: wire-level FaultPlan enforcement.

The deterministic simulator is the consistency oracle: a live run under a
disconnect/partition schedule must converge to the byte-identical stable
ledger (replica-independent rows) that the simulator produces for the same
schedule and seed.  Chaos soaks additionally exercise the hardened
transport -- drops, delays, duplicates, and reorders injected at the socket
layer must be fully absorbed by retries and receive-side dedup.

Everything here spawns real worker processes, so the suite only runs with
``REPRO_LIVE_TESTS=1`` (the CI live-smoke job sets it).
"""

from __future__ import annotations

import os

import pytest

from repro.deploy.placement import compile as compile_topology
from repro.live.faults import chaos_plan, compile_failures
from repro.live.supervisor import LivePause, require_fork
from repro.live.worker import stable_ledger_rows
from repro.topology import Topology
from repro.workloads.scenarios import FailureSpec, resolve_failures

live_only = pytest.mark.skipif(
    os.environ.get("REPRO_LIVE_TESTS") != "1",
    reason="live-backend tests spawn processes and take wall-clock time; "
    "set REPRO_LIVE_TESTS=1 to run them",
)

STOP = 4.0
ONSET = 1.5
OUTAGE = 1.0

#: (placement factory args, aggregate rate, partition target) per topology.
TOPOLOGIES = {
    "chain": (lambda: Topology.chain(2), 90.0, "node1"),
    "shard": (lambda: Topology.shard(4), 120.0, "shard1"),
}


def _fork_available() -> bool:
    try:
        require_fork()
    except Exception:
        return False
    return True


def _failure_spec(kind: str, target: str) -> FailureSpec:
    if kind == "partition":
        return FailureSpec("partition", ONSET, OUTAGE, node=target, node_replica=-1)
    return FailureSpec(kind, ONSET, OUTAGE)


def _sim_rows_with_failures(placement, seed, rate, failures):
    deployment = placement.deploy(seed=seed, aggregate_rate=rate, source_stop_time=STOP)
    deployment.cluster.failures.inject(
        resolve_failures(placement, failures), deployment.wiring.sources, deployment.wiring.nodes
    )
    deployment.start()
    deployment.run_for(STOP + 6.0)
    return stable_ledger_rows(deployment.clients[0])


def _run_live(placement, seed, rate, *, faults=None, kill=None, pause=None):
    live = placement.deploy(
        seed=seed, aggregate_rate=rate, source_stop_time=STOP, backend="live"
    )
    return live.run(
        duration=STOP + 1.5, faults=faults, kill=kill, pause=pause, drain_timeout=20.0
    )


def _assert_ledger_shape(rows):
    seqs = [row[0] for row in rows]
    assert seqs, "no stable output"
    assert seqs == sorted(seqs), "stable rows out of order"
    assert len(set(seqs)) == len(seqs), "duplicate stable rows"
    assert set(range(min(seqs), max(seqs) + 1)) == set(seqs), "gap in stable rows"


@live_only
@pytest.mark.skipif(not _fork_available(), reason="no fork start method")
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind", ["disconnect", "partition"])
def test_live_fault_schedule_matches_sim_oracle(topology, seed, kind):
    """The same FailureSpec schedule, run on both backends, must go
    tentative during the outage and converge to byte-identical ledgers."""
    make_topology, rate, target = TOPOLOGIES[topology]
    placement = compile_topology(make_topology(), replicas_per_node=2)
    failures = [_failure_spec(kind, target)]

    sim_rows = _sim_rows_with_failures(placement, seed, rate, failures)
    assert sim_rows, "oracle run produced no stable output"

    plan, kills = compile_failures(placement, failures, seed=seed)
    assert not kills
    result = _run_live(placement, seed, rate, faults=plan)

    assert result.total_tentative > 0, "outage produced no tentative output"
    assert result.injected_faults(), "plan injected nothing"
    if kind == "partition":
        # The partitioned node's own outputs are held back by its flush,
        # which asks can_communicate: those denials are counted as well.
        senders = {
            event["sender"]
            for stats in result.transport.values()
            for event in stats["fault_events"]
        }
        assert senders - {source.name for source in placement.sources}, senders
    assert result.dead_letters == 0
    assert result.eventually_consistent
    assert result.stable_rows() == sim_rows


@live_only
@pytest.mark.skipif(not _fork_available(), reason="no fork start method")
@pytest.mark.parametrize("seed", [1, 2])
def test_chaos_soak_is_absorbed_by_transport(seed):
    """Seed-deterministic wire chaos (drops, delays, duplicates, reorders)
    must be fully absorbed: the ledger stays gap-free, duplicate-free, and
    ordered, byte-identical to the undisturbed sim run, with zero frames
    dead-lettered and zero stranded state."""
    placement = compile_topology(Topology.chain(2), replicas_per_node=2)
    sim_rows = _sim_rows_with_failures(placement, seed, 90.0, [])

    plan = chaos_plan(seed, drop=0.02, delay=0.01, jitter=0.01,
                      duplicate=0.05, reorder=0.15)
    assert plan.describe() == chaos_plan(seed, drop=0.02, delay=0.01, jitter=0.01,
                                         duplicate=0.05, reorder=0.15).describe()
    result = _run_live(placement, seed, 90.0, faults=plan)

    injected = result.injected_faults()
    assert injected.get("drop", 0) > 0, injected
    assert injected.get("duplicate", 0) > 0, injected
    assert result.dead_letters == 0, "chaos exhausted a send's retry budget"
    assert result.faults == plan.describe()

    rows = result.stable_rows()
    _assert_ledger_shape(rows)
    assert rows == sim_rows
    assert result.eventually_consistent


@live_only
@pytest.mark.skipif(not _fork_available(), reason="no fork start method")
@pytest.mark.parametrize("seed", [1, 2])
def test_pause_raises_suspicion_without_false_crash(seed):
    """SIGSTOP a worker past the suspicion threshold but inside the
    confirmation grace window: peers must suspect it, clear the suspicion
    after SIGCONT, and never confirm it down or trigger a recovery."""
    placement = compile_topology(Topology.chain(2), replicas_per_node=2)
    sim_rows = _sim_rows_with_failures(placement, seed, 90.0, [])

    pause = LivePause(node="node1", replica=0, at=ONSET, duration=1.2)
    result = _run_live(placement, seed, 90.0, pause=pause)

    assert result.pauses and result.pauses[0]["worker"] == "node1-r0"
    transitions = [t for t in result.peer_transitions() if t["peer"] == "node1-r0"]
    suspected = [t for t in transitions if t["to"] == "suspect"]
    cleared = [t for t in transitions if t["from"] == "suspect" and t["to"] == "alive"]
    assert suspected, "pause raised no suspicion"
    assert all(ONSET < t["at"] < ONSET + 1.2 + 0.5 for t in suspected), suspected
    assert cleared, "suspicion was not cleared after resume"
    assert not any(t["to"] == "down" for t in transitions), (
        "grace window violated: paused worker was confirmed down"
    )
    assert not result.kills and not result.recoveries()
    assert result.eventually_consistent
    assert result.stable_rows() == sim_rows
