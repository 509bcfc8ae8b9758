"""Integration tests: network partitions and node crashes in a replicated chain.

The failure-recovery integration tests exercise input-stream failures; these
exercise the other two failure classes of Section 2.2: network partitions
between processing nodes and fail-stop crashes of replicas, both of which DPC
must mask by switching to another replica of the affected upstream neighbor.
"""

from repro.config import DPCConfig
from repro.deploy import compile as compile_topology
from repro.runtime import ScenarioSpec, client_is_eventually_consistent
from repro.topology import Topology

RATE = 60.0
CONFIG = DPCConfig(max_incremental_latency=3.0)


def stable_sequence_is_complete(client) -> bool:
    seq = client.stable_sequence
    if not seq or seq != sorted(seq):
        return False
    return set(range(min(seq), max(seq) + 1)) == set(seq)


def test_partition_between_chain_levels_is_masked_by_switching():
    """node2 loses its link to node1 but can still reach node1's replica."""
    placement = compile_topology(Topology.chain(2), replicas_per_node=2)
    cluster = placement.deploy(CONFIG, aggregate_rate=RATE, join_state_size=None).cluster
    upstream = cluster.node("node1")
    downstream = cluster.node("node2")
    cluster.failures.partition(upstream.endpoint, downstream.endpoint, start=5.0, duration=10.0)
    cluster.start()
    cluster.run_for(40.0)

    client = cluster.client
    assert stable_sequence_is_complete(client)
    assert client_is_eventually_consistent(client)
    # The partition is masked by switching to the other replica of node1, so
    # the downstream node never has to process partial input.
    assert client.proc_new < 6.5  # within 2 * X for the 2-level chain
    assert downstream.cm.switches_performed >= 1


def test_crash_of_client_upstream_replica_is_invisible():
    spec = ScenarioSpec.chain(
        1, config=CONFIG, aggregate_rate=RATE, warmup=5.0, settle=25.0
    ).with_failure("crash", duration=12.0, node="node1", node_replica=0)
    client = spec.run().client
    assert client.n_tentative == 0
    assert stable_sequence_is_complete(client)
    assert client.proc_new < 3.75
    assert client.cm.switches_performed >= 1


def test_crashed_replica_recovers_and_catches_up():
    spec = ScenarioSpec.chain(
        1, config=CONFIG, aggregate_rate=RATE, warmup=5.0, settle=30.0
    ).with_failure("crash", duration=8.0, node="node1", node_replica=0)
    runtime = spec.run()
    crashed = runtime.node("node1", 0)
    # After recovery the crashed replica resubscribes to the sources and
    # processes data again: it must end up STABLE and have processed tuples
    # after the crash window.
    assert crashed.state.value == "stable"
    assert crashed.engine.tuples_processed > 0
    # The client never noticed: full, ordered, duplicate-free stable output.
    assert client_is_eventually_consistent(runtime.client)


def test_simultaneous_crash_and_stream_failure():
    """A crash of the client's replica overlapping a stream failure is still handled.

    Both replicas see the input-stream failure; on top of that, the replica
    the client reads from crashes.  The client must switch to the surviving
    replica, which later heals and corrects its output, so the client still
    converges to the complete stable stream.
    """
    spec = (
        ScenarioSpec.chain(1, config=CONFIG, aggregate_rate=RATE, warmup=5.0, settle=35.0)
        .with_failure("disconnect", start=5.0, duration=10.0, stream_index=0)
        .with_failure("crash", start=7.0, duration=6.0, node="node1", node_replica=0)
    )
    runtime = spec.run()
    client = runtime.client
    assert client.cm.switches_performed >= 1
    # Availability is maintained and a correction burst (undo + REC_DONE)
    # reaches the client once the surviving replica stabilizes.
    assert client.proc_new < 3.75
    assert client.metrics.consistency.total_undos >= 1
    assert client.metrics.consistency.total_rec_done >= 1
    assert all(node.state.value == "stable" for node in runtime.nodes())
    # Known limitation (see DESIGN.md "Known deviations"): crashed-replica
    # recovery is simplified -- the restarted replica rejoins at the current
    # stream position instead of rebuilding its full historical output, so a
    # client that switches to it mid-correction can miss part of the
    # correction burst.  The stable ledger must still be ordered,
    # duplicate-free, and cover the vast majority of the stream.
    seq = client.stable_sequence
    assert seq == sorted(seq)
    assert len(seq) == len(set(seq))
    covered = len(seq) / (max(seq) - min(seq) + 1)
    assert covered > 0.9
