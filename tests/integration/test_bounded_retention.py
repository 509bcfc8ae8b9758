"""Bounded retention: checkpoint acknowledgments truncate output buffers (§8.1).

End-to-end properties of the acknowledgment rule on the simulator: retention
is flat in the run length, a consumer replica that is down pins exactly the
buffers it would need and rejoins with a clean ledger, ``checkpoint_interval
=None`` still retains everything, and no resubscribe path ever asks for a
truncated prefix.
"""

import gc
import sys
import types

import pytest

from repro.core.states import NodeState
from repro.metrics.ledger import SEGMENT_TUPLES
from repro.runtime import ScenarioSpec
from repro.spe.tuples import StreamTuple

CHECKPOINT_INTERVAL = 2.0


def running(spec, until):
    runtime = spec.build()
    runtime.start()
    runtime.run_for(until)
    return runtime


def output_stats(runtime):
    """``{(replica, stream): statistics()["outputs"][stream]}`` of every manager."""
    return {
        (node.name, stream): stats
        for node in runtime.cluster.all_nodes()
        for stream, stats in node.statistics()["outputs"].items()
    }


def assert_ledger_clean(runtime):
    for client in runtime.clients:
        sequence = client.stable_sequence
        assert sequence == sorted(sequence)
        assert len(set(sequence)) == len(sequence)
        assert set(range(min(sequence), max(sequence) + 1)) == set(sequence)


# --------------------------------------------------------------------------- flatness
def shard4(duration, rate=240.0):
    return ScenarioSpec.sharded(
        shards=4,
        replicas_per_node=2,
        n_input_streams=3,
        aggregate_rate=rate,
        warmup=duration,
        settle=0.0,
        seed=1,
    )


def peak_and_final_buffered(duration, rate=240.0):
    runtime = shard4(duration, rate).build()
    runtime.start()
    peak: dict = {}
    elapsed = 0.0
    while elapsed < duration:
        runtime.run_for(0.5)
        elapsed += 0.5
        for key, stats in output_stats(runtime).items():
            peak[key] = max(peak.get(key, 0), stats["buffered"])
    final = {key: stats["buffered"] for key, stats in output_stats(runtime).items()}
    return runtime, peak, final


def test_retention_is_flat_in_the_run_length():
    rate = 240.0
    short, peak_short, final_short = peak_and_final_buffered(30.0, rate)
    long, peak_long, final_long = peak_and_final_buffered(90.0, rate)
    assert short.client.metrics.consistency.total_stable * 2.9 < (
        long.client.metrics.consistency.total_stable
    )
    window = CHECKPOINT_INTERVAL * rate  # tuples one checkpoint interval produces
    assert peak_short.keys() == peak_long.keys() and len(peak_short) == 12
    for key in peak_short:
        # Tripling the run does not raise any manager's high-water mark (the
        # slack is the phase between the 0.5 s samples and the ack sawtooth) ...
        assert peak_long[key] <= peak_short[key] + 0.25 * window, key
        # ... the end states agree within one checkpoint window ...
        assert abs(final_long[key] - final_short[key]) <= window, key
        # ... and nothing holds more than a few windows, ever.
        assert peak_long[key] <= 3 * window, key
    # The producers did drop what the long run no longer needs.
    for key, stats in output_stats(long).items():
        assert stats["truncated"] > 10 * stats["buffered"], key
        assert stats["acked_through"] >= 0, key
    # Source logs follow the same rule.
    for source in long.sources:
        assert len(source.log) <= 3 * window
    assert_ledger_clean(long)


def test_checkpoint_interval_none_retains_the_whole_run():
    runtime = ScenarioSpec.chain(
        2, aggregate_rate=90.0, warmup=10.0, settle=0.0, seed=1, checkpoint_interval=None
    ).run()
    for key, stats in output_stats(runtime).items():
        assert stats["truncated"] == 0 and stats["acked_through"] == -1, key
        assert stats["buffered"] >= stats["stable"] > 0, key
    for source in runtime.sources:
        assert source.log.truncated_through == -1
        assert len(source.log) >= source.tuples_produced
    assert all(node.recovery_checkpoints_taken == 0 for node in runtime.cluster.all_nodes())


def test_client_does_not_accumulate_a_redo_buffer():
    runtime = ScenarioSpec.chain(2, aggregate_rate=90.0, warmup=10.0, settle=0.0, seed=1).run()
    for client in runtime.clients:
        assert client.metrics.consistency.total_stable > 500
        for monitor in client.cm.monitors.values():
            assert monitor.stable_buffer == []


def held_by(root) -> tuple[int, int]:
    """(bytes, StreamTuples) reachable from ``root``, every object counted once."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, size, tuples = set(), [root], 0, 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        size += sys.getsizeof(obj)
        tuples += type(obj) is StreamTuple
        stack.extend(gc.get_referents(obj))
    return size, tuples


def test_client_stores_hold_columns_not_one_object_per_tuple():
    """The instrument itself: sealed ledger segments + packed arrival columns.

    Before the ledger was sealed, shard(4) held ~600 bytes per delivered tuple
    in the client's stores (a StreamTuple, its payload dict and boxed values,
    an OutputRecord and a TraceEntry each).
    """
    runtime = shard4(30.0, rate=1200.0).run()
    metrics = runtime.client.metrics
    delivered = len(metrics.consistency.ledger)
    assert delivered > 30_000 and delivered == len(metrics.trace)
    size, tuples = held_by(metrics)
    assert size / delivered <= 120, f"{size / delivered:.0f} bytes per ledger tuple"
    # No StreamTuple older than one segment is alive in the stores.
    assert tuples < SEGMENT_TUPLES
    assert_ledger_clean(runtime)


# --------------------------------------------------------------------------- pinning
@pytest.mark.parametrize("seed", [1, 2])
def test_crashed_consumer_replica_pins_the_buffer_and_rejoins_cleanly(seed):
    """A downstream replica that is down for >= 3 checkpoint intervals stops
    acknowledging: both upstream replicas keep everything past its last
    acknowledgment, its partner alone cannot release it, and after the
    rejoin the backlog drains and the ledger is gap-free."""
    crash_at, downtime = 6.0, 4 * CHECKPOINT_INTERVAL
    spec = ScenarioSpec.chain(
        2, aggregate_rate=90.0, warmup=crash_at, settle=20.0, seed=seed
    ).with_failure("crash", start=crash_at, duration=downtime, node="node2", node_replica=0)
    runtime = running(spec, crash_at - 0.01)
    upstream = runtime.cluster.nodes[0]  # the replica group feeding the crashed node
    stream = upstream[0].diagram.output_streams[0]
    before = {node.name: node.statistics()["outputs"][stream] for node in upstream}

    runtime.run_for(downtime - 0.5)  # just before the replica comes back
    crashed = runtime.node("node2", 0)
    assert crashed._crashed
    for node in upstream:
        pinned = node.statistics()["outputs"][stream]
        # The dead replica's last acknowledgment is the minimum: at most one
        # more truncation (its partner catching up to it) since the crash.
        assert pinned["acked_through"] <= before[node.name]["acked_through"] + (
            CHECKPOINT_INTERVAL * 90.0
        )
        assert pinned["buffered"] >= 0.8 * (downtime - 0.5 - CHECKPOINT_INTERVAL) * 90.0
        frozen = pinned["acked_through"]
    runtime.run_for(0.4)
    assert all(
        node.statistics()["outputs"][stream]["acked_through"] == frozen for node in upstream
    )

    runtime.run_for(20.0)
    assert not crashed._crashed and crashed.state is NodeState.STABLE
    assert crashed.recoveries and crashed.recoveries[0]["mode"] in ("checkpoint", "replay")
    for node in upstream:
        released = node.statistics()["outputs"][stream]
        assert released["acked_through"] > frozen
        assert released["buffered"] <= 3 * CHECKPOINT_INTERVAL * 90.0
    assert runtime.eventually_consistent()
    assert_ledger_clean(runtime)


def test_replica_in_up_failure_pins_its_producers():
    """No capture happens outside STABLE, so a replica handling a failure
    keeps its upstream's buffer (it will need the replay to reconcile)."""
    spec = ScenarioSpec.chain(
        2, aggregate_rate=90.0, warmup=5.0, settle=25.0, seed=1
    ).with_failure("disconnect", start=5.0, duration=8.0)
    runtime = running(spec, 5.0 + 7.5)
    assert any(node.state is not NodeState.STABLE for node in runtime.cluster.all_nodes())
    sources_pinned = [len(source.log) for source in runtime.sources]
    assert max(sources_pinned) >= 0.8 * (7.5 - CHECKPOINT_INTERVAL) * 90.0 / len(sources_pinned)
    runtime.run_for(25.0)
    assert runtime.eventually_consistent()
    assert_ledger_clean(runtime)
    assert all(len(source.log) <= 3 * CHECKPOINT_INTERVAL * 90.0 for source in runtime.sources)


# --------------------------------------------------------------------------- resubscribe safety
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_upstream_switch_after_truncation_resumes_inside_the_retained_suffix(seed):
    """Killing the subscribed upstream replica long after its buffers were
    truncated forces every downstream replica to resubscribe to the backup
    -- which truncated on the same acknowledgments and must hold the cursor."""
    spec = ScenarioSpec.chain(
        3, aggregate_rate=90.0, warmup=12.0, settle=20.0, seed=seed
    ).with_failure("crash", start=12.0, duration=6.0, node="node2", node_replica=0)
    runtime = spec.run()  # a BufferTruncatedError would propagate out of the event loop
    assert runtime.client.cm.switches_performed + sum(
        node.cm.switches_performed for node in runtime.cluster.all_nodes()
    ) >= 1
    assert any(stats["truncated"] > 0 for stats in output_stats(runtime).values())
    assert runtime.eventually_consistent()
    assert_ledger_clean(runtime)
