#!/usr/bin/env python
"""Live rebalance: compile -> place -> deploy, then re-shard a running system.

This example walks the full `repro.deploy` control plane instead of the
one-shot scenario sugar:

1. **compile** -- ``deploy.compile(Topology.shard(4, ...))`` produces a
   :class:`~repro.deploy.Placement`: a pure plan of sources, replica groups,
   fragment shapes, and the four *filtered subscriptions* through which the
   split router sends each shard fragment only its key-hash slice;
2. **deploy** -- ``placement.deploy(...)`` materializes the plan and returns
   a live :class:`~repro.deploy.Deployment` handle;
3. **observe** -- the workload is a zipfian hot-key stream, so the split's
   observed per-bucket loads skew far beyond tolerance;
4. **apply** -- ``deployment.apply(plan)`` performs the bucket handoff on
   the *running* deployment: every shard's subscription filter is advanced
   to the new predicate at the next bucket boundary of the serialization
   time axis (routing stays a pure function of each tuple, so nothing is
   lost or duplicated), and once the boundary drains, the moved buckets'
   SJoin state ships from the old owners to the new ones through the
   checkpoint containers;
5. **verify** -- the merged client ledger is gap-free, duplicate-free, and
   ordered across the handoff, and the shard imbalance has dropped.

Run with::

    python examples/live_rebalance.py
"""

from repro import deploy
from repro.topology import Topology
from repro.workloads.generators import hot_key_payload_factory

SHARDS = 4
RATE = 150.0  # aggregate tuples per simulated second
OBSERVE_FOR = 20.0  # skew-observation window before the rebalance
SETTLE_FOR = 20.0  # run time after the handoff
SKEW = 1.2


def main() -> None:
    # --- 1. compile: a pure, inspectable plan --------------------------------
    topology = Topology.shard(SHARDS, key="key", tie_group=1)
    placement = deploy.compile(topology, replicas_per_node=2)
    print(f"placement: {placement!r}")
    for edge in placement.filtered_subscriptions():
        print(f"  filtered subscription: {edge.producer} -> {edge.consumer} "
              f"({edge.filter_name})")

    # --- 2. deploy: materialize the plan -------------------------------------
    deployment = placement.deploy(
        aggregate_rate=RATE,
        payload_factory=hot_key_payload_factory(skew=SKEW),
        seed=7,
    )
    deployment.start()
    deployment.run_for(OBSERVE_FOR)

    # --- 3. observe the skew --------------------------------------------------
    loads = deployment.observed_bucket_loads()
    assignment = deployment.current_assignment
    print(f"\nafter {OBSERVE_FOR:g}s of zipf({SKEW}) hot-key load:")
    print(f"  shard loads: {[int(x) for x in assignment.load_by_shard(loads)]}")
    print(f"  peak-to-mean imbalance: {assignment.imbalance(loads):.3f}")

    # --- 4. plan and apply the live rebalance ---------------------------------
    plan = deployment.plan_rebalance(tolerance=0.10)
    print(f"\nplanner: {len(plan.moves)} bucket move(s), "
          f"imbalance {plan.imbalance_before:.3f} -> {plan.imbalance_after:.3f}")
    record = deployment.apply(plan)
    print(f"applied at t={record['applied_at']:g}s, cut at stime {record['cut_stime']:g} "
          f"(the next bucket boundary); state handoff at t={record['state_handoff_at']:g}s")
    deployment.run_for(SETTLE_FOR)
    print(f"join-state tuples shipped: {record['state_tuples_shipped']}")

    # --- 5. verify the ledger survived the handoff ----------------------------
    client = deployment.clients[0]
    sequence = client.stable_sequence
    gap_free = set(range(min(sequence), max(sequence) + 1)) == set(sequence)
    ordered = sequence == sorted(sequence)
    duplicate_free = len(set(sequence)) == len(sequence)
    print(f"\nmerged ledger: {len(sequence)} stable tuples, "
          f"gap-free={gap_free}, duplicate-free={duplicate_free}, ordered={ordered}")
    loads_after = deployment.observed_bucket_loads()
    print(f"imbalance under the new assignment: "
          f"{deployment.current_assignment.imbalance(loads_after):.3f}")
    if not (gap_free and duplicate_free and ordered):
        raise SystemExit("ledger lost or duplicated tuples across the handoff")
    print("\nthe deployment re-sharded itself without dropping or duplicating a tuple")


if __name__ == "__main__":
    main()
