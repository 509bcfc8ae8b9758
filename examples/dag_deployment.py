#!/usr/bin/env python
"""A diamond DAG: killing one branch of a reconvergent replicated deployment.

The paper evaluates single nodes and chains, but its query diagrams are
general DAGs.  This example deploys the diamond topology through the
declarative scenario layer:

* ``ingest`` merges three source streams and fans its output out to two
  branches (one multicast batch feeds both);
* ``left`` and ``right`` each process a disjoint partition of the stream
  (even vs odd sequence groups -- a sharded dataflow);
* ``merge`` re-unites the partitions with a 2-way fan-in SUnion, and a
  client measures the merged output.

The failure schedule crashes *both* replicas of ``left`` for 8 seconds, so
the merge cannot mask the failure by switching upstream replicas: it
suspends for its delay budget, then processes the surviving branch's slice
tentatively, and reconciles with checkpoint/redo once the branch recovers.

Run with::

    python examples/dag_deployment.py
"""

from repro import ScenarioSpec

FAILURE_DURATION = 8.0
RATE = 120.0  # aggregate tuples per simulated second (kept low for a quick run)


def main() -> None:
    spec = ScenarioSpec.diamond(
        aggregate_rate=RATE, warmup=5.0, settle=25.0, seed=7
    ).with_branch_crash("left", duration=FAILURE_DURATION)

    topology = spec.topology
    print(f"topology {topology.name!r}: nodes={topology.node_names}")
    for path in topology.paths():
        print(f"  path: {' -> '.join(path)}")
    print(f"failures: {len(spec.failures)} (both replicas of 'left' crash for "
          f"{FAILURE_DURATION:g} s)\n")

    print("running ...")
    runtime = spec.run()
    client = runtime.client

    print(f"\nProc_new (max latency of new results): {client.proc_new:.3f} s "
          f"(bound X = {spec.dpc_config().max_incremental_latency:g} s)")
    print(f"stable / tentative / undone: {client.metrics.consistency.total_stable} / "
          f"{client.n_tentative} / {client.metrics.consistency.total_undos}")
    for name in topology.node_names:
        group = runtime.node_group(name)
        tentative = sum(
            stats["tentative"]
            for replica in group
            for stats in replica.statistics()["outputs"].values()
        )
        states = ", ".join(replica.state.value for replica in group)
        print(f"  {name:<7} replicas=[{states}] tentative_produced={tentative}")
    print(f"eventually consistent: {runtime.eventually_consistent()}")
    print()
    print("The 'right' branch never produced a tentative tuple: its slice of the")
    print("stream was never in doubt.  The merge went tentative only for the")
    print("failed branch's slice, and reconciliation converged after recovery --")
    print("the DPC guarantees, transplanted from the paper's chains to a DAG.")


if __name__ == "__main__":
    main()
