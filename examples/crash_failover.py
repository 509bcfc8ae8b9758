#!/usr/bin/env python
"""Fail-stop crash of a processing-node replica, masked by replication.

The availability experiments of the paper fail input streams; this example
exercises the other failure mode DPC handles (Section 4.5): the replica a
client is reading from crashes outright.  The client's consistency manager
stops receiving heartbeat responses, consults the replica set, and switches
to the surviving replica -- which processed the same input all along, so the
output stream continues seamlessly, with no tentative tuples at all.

Run with::

    python examples/crash_failover.py
"""

from repro import DPCConfig, ScenarioSpec
from repro.analysis.traces import analyze_trace, output_gaps

CRASH_START = 5.0
CRASH_DURATION = 15.0


def main() -> None:
    spec = ScenarioSpec.single_node(
        name="crash-failover",
        aggregate_rate=120.0,
        config=DPCConfig(max_incremental_latency=3.0),
        warmup=CRASH_START,
        settle=30.0,
    ).with_failure(
        "crash",
        start=CRASH_START,
        duration=CRASH_DURATION,
        node="node1",
        node_replica=0,
    )
    runtime = spec.run()
    crashed = runtime.node("node1", 0)
    survivor = runtime.node("node1", 1)

    client = runtime.client
    analysis = analyze_trace(client.metrics.trace)
    gaps = output_gaps(client.metrics.trace, threshold=0.5)

    print(f"crashed replica:   {crashed.name} (down {CRASH_DURATION:.0f} s, then restarted)")
    print(f"surviving replica: {survivor.name}")
    print()
    print("=== client view ===")
    print(f"upstream switches performed:        {client.cm.switches_performed}")
    print(f"maximum latency of new results:     {client.proc_new:.2f} s (bound: 3 s + processing)")
    print(f"tentative results received:         {client.n_tentative}")
    print(f"gaps > 0.5 s in new data:           {len(gaps)}")
    print(f"eventually consistent:              {runtime.eventually_consistent()}")
    print(f"trace shows a failure episode:      {analysis.had_failure}")
    print()
    print("A crash of one replica is invisible to the application: the other replica")
    print("has the same state (replicas stay mutually consistent in the absence of")
    print("failures), so the switch introduces no inconsistency whatsoever.")


if __name__ == "__main__":
    main()
