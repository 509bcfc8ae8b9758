"""Live-backend integration tests: parity oracle and SIGKILL recovery.

These spawn real worker processes and run for wall-clock seconds, so they
are **not** tier-1: they only run with ``REPRO_LIVE_TESTS=1`` (the CI
live-smoke job sets it).  The deterministic simulator stays the consistency
oracle -- a live no-failure run must produce the byte-identical stable
ledger, in replica-independent row form, at the same seed.
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import time

import pytest

from repro.config import DPCConfig
from repro.deploy.placement import compile as compile_topology
from repro.errors import SimulationError
from repro.live.supervisor import LiveDeployment, LiveKill, require_fork
from repro.live.transport import LiveTransport
from repro.live.worker import stable_ledger_rows
from repro.topology import Topology

#: Applied to every test that spawns worker processes; the cheap error-path
#: tests at the bottom run in tier-1 untagged.
live_only = pytest.mark.skipif(
    os.environ.get("REPRO_LIVE_TESTS") != "1",
    reason="live-backend tests spawn processes and take wall-clock time; "
    "set REPRO_LIVE_TESTS=1 to run them",
)

#: Sources stop producing at this stime; both backends then hold the exact
#: same finite workload (see DataSource._tick's stop_time clamp).
STOP = 4.0
RATE = 90.0


def _fork_available() -> bool:
    try:
        require_fork()
    except Exception:
        return False
    return True


def _sim_stable_rows(placement, seed: int, *, rate: float = RATE, config=None) -> list:
    deployment = placement.deploy(
        config, seed=seed, aggregate_rate=rate, source_stop_time=STOP
    )
    deployment.start()
    # Generous drain: production stops at STOP, stabilization needs only the
    # in-flight buckets after it.
    deployment.run_for(STOP + 6.0)
    return stable_ledger_rows(deployment.clients[0])


@live_only
@pytest.mark.skipif(not _fork_available(), reason="no fork start method")
@pytest.mark.parametrize("seed", [1, 2])
def test_live_chain_parity_with_simulator(seed):
    placement = compile_topology(Topology.chain(2), replicas_per_node=2)
    sim_rows = _sim_stable_rows(placement, seed)
    assert sim_rows, "oracle run produced no stable output"

    live = placement.deploy(
        seed=seed, aggregate_rate=RATE, source_stop_time=STOP, backend="live"
    )
    result = live.run(duration=STOP + 1.0, drain_timeout=15.0)
    assert result.eventually_consistent
    assert result.stable_rows() == sim_rows
    # Fork, build, bind, the ready handshake and the margin: well under the
    # one fixed second the supervisor used to sleep.
    assert 0.0 < result.startup_s < 1.0


@live_only
@pytest.mark.skipif(not _fork_available(), reason="no fork start method")
@pytest.mark.parametrize("seed", [1, 2])
def test_live_shard4_parity_with_simulator(seed):
    placement = compile_topology(Topology.shard(4), replicas_per_node=2)
    sim_rows = _sim_stable_rows(placement, seed, rate=120.0)
    assert sim_rows

    live = placement.deploy(
        seed=seed, aggregate_rate=120.0, source_stop_time=STOP, backend="live"
    )
    result = live.run(duration=STOP + 1.0, drain_timeout=15.0)
    assert result.eventually_consistent
    assert result.stable_rows() == sim_rows


@live_only
@pytest.mark.skipif(not _fork_available(), reason="no fork start method")
def test_live_sigkill_recovery_checkpoint_path():
    """SIGKILL one replica mid-run; it must rejoin via the statexfer
    checkpoint shipped from its partner over real sockets, and the merged
    ledger must stay gap-free and duplicate-free."""
    placement = compile_topology(Topology.chain(2), replicas_per_node=2)
    config = DPCConfig(checkpoint_interval=0.5)
    stop = 6.0
    live = placement.deploy(
        config, seed=1, aggregate_rate=RATE, source_stop_time=stop, backend="live"
    )
    target = placement.nodes[0]
    result = live.run(
        duration=stop + 1.5,
        kill=LiveKill(node=target.name, replica=0, at=2.5, downtime=1.0),
        drain_timeout=15.0,
    )
    assert result.kills and result.kills[0]["endpoint"] == target.replica_names[0]
    modes = [(r["endpoint"], r["mode"]) for r in result.recoveries()]
    assert (target.replica_names[0], "checkpoint") in modes, modes

    rows = result.stable_rows()
    seqs = [row[0] for row in rows]
    assert seqs, "no stable output after recovery"
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs), "duplicate stable rows"
    assert set(range(min(seqs), max(seqs) + 1)) == set(seqs), "gap in stable rows"
    assert result.eventually_consistent


@live_only
@pytest.mark.skipif(not _fork_available(), reason="no fork start method")
def test_live_retention_stops_growing():
    """CHECKPOINT_ACK frames cross real sockets: every worker's output
    buffers and the edge worker's source logs end the run holding a few
    checkpoint windows, not the run, with nothing dead-lettered and the
    ledger still byte-identical to the simulator's."""
    placement = compile_topology(Topology.chain(2), replicas_per_node=2)
    interval, rate, stop = 0.5, 400.0, 6.0
    config = DPCConfig(checkpoint_interval=interval)
    oracle = placement.deploy(config, seed=1, aggregate_rate=rate, source_stop_time=stop)
    oracle.start()
    oracle.run_for(stop + 6.0)

    live = placement.deploy(
        config, seed=1, aggregate_rate=rate, source_stop_time=stop, backend="live"
    )
    result = live.run(duration=stop + 1.0, drain_timeout=15.0)
    assert result.stable_rows() == stable_ledger_rows(oracle.clients[0])
    assert result.dead_letters == 0

    windows = 4 * interval * rate  # generous: acks trail captures by one interval
    produced = sum(result.sources.values())
    assert produced >= 10 * interval * rate
    for name, retained in result.source_logs.items():
        assert retained <= windows, (name, retained)
    for endpoint, node in result.nodes.items():
        for stream, stats in node["statistics"]["outputs"].items():
            assert stats["buffered"] <= windows, (endpoint, stream, stats)
            assert stats["truncated"] >= stats["stable"] - windows, (endpoint, stream, stats)
            assert stats["acked_through"] >= 0, (endpoint, stream, stats)


@live_only
@pytest.mark.skipif(not _fork_available(), reason="no fork start method")
def test_live_edge_worker_retention_matches_the_node_workers():
    """Each worker reports its own CPU and peak RSS, and the edge worker --
    every source, plus the client that logs every output tuple -- stays in
    the node workers' band: the ledger is sealed segments and the result is
    those segments, not a row list.  (With a StreamTuple, a record and a
    trace entry per tuple, plus ``repr`` rows and their pickle at "stop", the
    edge worker ended this run ~40 MB above the others.)  The CI live-smoke
    job selects this test with ``-k retention``."""
    placement = compile_topology(Topology.chain(2), replicas_per_node=1)
    stop = 6.0
    live = placement.deploy(seed=3, aggregate_rate=4000.0, source_stop_time=stop, backend="live")
    result = live.run(duration=stop + 1.0, drain_timeout=20.0)
    assert result.eventually_consistent and result.dead_letters == 0
    assert result.total_stable == len(result.stable_rows()) > 20_000
    assert sorted(result.workers) == ["edge", "node1-r0", "node2-r0"]
    assert all(usage["cpu_s"] > 0 for usage in result.workers.values())
    edge = result.workers["edge"]["peak_rss_mb"]
    nodes = [usage["peak_rss_mb"] for name, usage in result.workers.items() if name != "edge"]
    assert edge <= max(nodes) + 15.0, result.workers
    assert edge <= 2.0 * min(nodes), result.workers


@live_only
@pytest.mark.skipif(not _fork_available(), reason="no fork start method")
def test_live_worker_not_ready_fails_the_run_at_once(monkeypatch):
    """A worker that dies before reporting ready ends the run with an error
    naming it, instead of the run waiting out its duration; every child is
    reaped.  The patch reaches the workers because fork inherits it."""
    bind = LiveTransport.start

    async def failing_bind(self):
        if self.worker == "node1-r1":
            raise RuntimeError("injected start-up failure")
        await bind(self)

    monkeypatch.setattr(LiveTransport, "start", failing_bind)
    placement = compile_topology(Topology.chain(2), replicas_per_node=2)
    live = placement.deploy(seed=1, aggregate_rate=RATE, source_stop_time=STOP, backend="live")
    began = time.monotonic()
    with pytest.raises(SimulationError, match="'node1-r1' exited before reporting ready"):
        live.run(duration=30.0)
    assert time.monotonic() - began < 5.0
    assert multiprocessing.active_children() == []


def test_startup_delay_default_is_a_float_margin():
    """``benchmarks/e2e/workloads.py`` reads this default by name at import;
    it is the margin from the last "ready" to the epoch, not a fixed second."""
    default = inspect.signature(LiveDeployment.run).parameters["startup_delay"].default
    assert isinstance(default, float) and 0.0 < default < 1.0


def test_fork_unavailable_raises_cleanly(monkeypatch):
    """Platforms without fork get a typed, actionable error (runs untagged)."""
    import multiprocessing

    from repro.live.supervisor import LiveBackendUnavailable

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    placement = compile_topology(Topology.chain(1), replicas_per_node=2)
    with pytest.raises(LiveBackendUnavailable, match="fork"):
        placement.deploy(backend="live")


def test_unknown_backend_rejected():
    from repro.errors import ConfigurationError

    placement = compile_topology(Topology.chain(1), replicas_per_node=2)
    with pytest.raises(ConfigurationError, match="unknown deployment backend"):
        placement.deploy(backend="quantum")
