#!/usr/bin/env python
"""Capacity planning: delay budgets and buffer sizes for a deployment.

Before deploying a fault-tolerant query diagram, an operator must answer two
questions the paper studies analytically:

* how should the application's end-to-end latency budget ``X`` be divided
  among the SUnions of the deployment (Section 6.3), and
* how much buffer space does each node need so that, after a failure heals,
  the system can correct a chosen window of recent results (Section 8.1)?

This example answers both for the intrusion-detection fragment shipped in
:mod:`repro.workloads.queries`, without running any simulation.

Run with::

    python examples/capacity_planning.py
"""

from repro.config import DelayAssignment
from repro.core import DelayPlanner, classify_diagram, compute_buffer_sizing
from repro.topology import Topology
from repro.workloads.queries import intrusion_detection_diagram

MONITORS = 3
PER_MONITOR_RATE = 500.0  # connection records per second per monitor
BUDGET = 8.0              # end-to-end incremental latency bound X (seconds)
CORRECTION_WINDOW = 300.0  # want the last 5 minutes of alerts corrected after healing


def main() -> None:
    streams = [f"monitor{i + 1}" for i in range(MONITORS)]
    diagram = intrusion_detection_diagram(
        "ids", streams, "alerts", window=5.0, min_probes=3
    )

    # ----------------------------------------------------------------- convergence analysis
    classification = classify_diagram(diagram)
    print("=== fragment analysis ===")
    print(f"operators: {len(diagram)}   convergent-capable: {classification.is_convergent_capable}")
    print(f"state horizon: {classification.state_horizon:.1f} s "
          "(how far back current state depends on input)")
    for name, operator_class in classification.operators.items():
        print(f"  {name:<20} {operator_class.category.value:<11} horizon={operator_class.horizon:g} s")
    print()

    # ----------------------------------------------------------------- delay planning
    print("=== delay assignment (X = %.0f s, 2-node chain) ===" % BUDGET)
    planner = DelayPlanner(Topology.chain(2), total_budget=BUDGET)
    for strategy in (DelayAssignment.UNIFORM, DelayAssignment.FULL):
        plan = planner.plan(strategy)
        budgets = ", ".join(f"{node}={delay:g}s" for node, delay in plan.per_node.items())
        print(f"  {strategy.value:>8}: {budgets}  -> masks failures up to {plan.masked_failure:g} s")
    print()

    # ----------------------------------------------------------------- buffer sizing
    sizing = compute_buffer_sizing(
        diagram,
        correction_window=CORRECTION_WINDOW,
        input_rates={stream: PER_MONITOR_RATE for stream in streams},
    )
    print("=== buffer sizing (correct the last %.0f s after healing) ===" % CORRECTION_WINDOW)
    print(f"input buffer span: {sizing.input_span:.1f} s of stime per input stream")
    for stream, tuples in sizing.input_tuples.items():
        print(f"  input  {stream:<10} {tuples:>9,d} tuples")
    for stream, tuples in sizing.output_tuples.items():
        print(f"  output {stream:<10} {tuples:>9,d} tuples")
    policy = sizing.to_buffer_policy()
    print(f"suggested BufferPolicy: max_output={policy.max_output_tuples:,}, "
          f"block_on_full={policy.block_on_full}")
    for note in sizing.notes:
        print(f"note: {note}")


if __name__ == "__main__":
    main()
