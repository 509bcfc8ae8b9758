"""Filtered subscriptions: what the split router puts on the wire.

Not a paper figure: the paper's deployments never fan one stream out to
parallel consumers of disjoint slices.  The sharded scale-out does, through
filtered subscriptions: the slice predicate runs at the producer, so each
shard replica only ever receives its 1/N of the split's output.

Measured for shard(4):

* **split egress** -- tuples put on the wire by the split replicas and
  (batch, receiver) sends.  With one replica per shard every stable tuple
  leaves the split about once; a split shipping its full stream to every
  shard would send N times that (72 104 against 18 473 tuples here), which
  is what the ``BENCH_baseline.json`` gate on the absolute count catches;
* **throughput** -- wall-clock tuples/sec (informational) and the
  deterministic event / Proc_new / delivered-tuple metrics, also tracked.

A second benchmark closes the control loop the ROADMAP named: a zipfian
hot-key workload, a mid-run ``Deployment.apply(plan)`` bucket handoff, and
the merged ledger staying gap-free / duplicate-free / ordered across seeds.
"""

from __future__ import annotations

import time

from conftest import print_results

from repro.experiments import rebalance_run
from repro.runtime import ScenarioSpec

RATE = 1200.0
DURATION = 15.0
SHARDS = 4
SEED = 1
REBALANCE_SEEDS = (1, 2, 3)
#: Availability bound X (DPCConfig default) for the routing run.
BOUND_X = 3.0


def routing_run() -> dict:
    spec = ScenarioSpec.sharded(
        shards=SHARDS,
        aggregate_rate=RATE,
        replicas_per_node=1,
        warmup=DURATION,
        settle=0.0,
        seed=SEED,
    )
    runtime = spec.build()
    started = time.perf_counter()
    runtime.run()
    wall = time.perf_counter() - started
    split = runtime.node_group("split")
    summary = runtime.client.summary()
    return {
        "egress_tuples": sum(node.tuples_sent for node in split),
        "egress_batches": sum(node.batches_sent for node in split),
        "events_fired": runtime.simulator.events_fired,
        "stable_tuples": summary["total_stable"],
        "proc_new": summary["proc_new"],
        "tuples_per_second": summary["total_stable"] / wall if wall > 0 else float("inf"),
        "consistent": runtime.eventually_consistent(),
    }


def test_filtered_subscription_split_egress(run_once, benchmark):
    row = run_once(routing_run)
    print_results(
        f"Filtered subscriptions: shard({SHARDS}) split egress",
        [
            f"egress_tuples={row['egress_tuples']:>7} "
            f"sends={row['egress_batches']:>5} events={row['events_fired']:>6} "
            f"tuples/s={row['tuples_per_second']:>8.0f} Proc_new={row['proc_new']:.3f}s "
            f"consistent={'yes' if row['consistent'] else 'NO'}"
        ],
    )
    benchmark.extra_info["filtered_split_egress_tuples"] = row["egress_tuples"]
    benchmark.extra_info["filtered_events"] = row["events_fired"]
    benchmark.extra_info["filtered_proc_new"] = round(row["proc_new"], 6)
    benchmark.extra_info["filtered_stable_tuples"] = row["stable_tuples"]

    assert row["consistent"]
    assert row["proc_new"] < BOUND_X, f"{row['proc_new']:.3f}"


def test_live_rebalance_consistency(run_once, benchmark):
    results = run_once(
        lambda: [rebalance_run(seed, shards=SHARDS) for seed in REBALANCE_SEEDS]
    )
    lines = []
    for seed, result in zip(REBALANCE_SEEDS, results):
        rebalance = result.extra["rebalance"]
        lines.append(result.row())
        lines.append(
            f"    seed={seed} moves={rebalance['moves']} "
            f"imbalance {rebalance['imbalance_before']:.3f} -> {rebalance['imbalance_after']:.3f} "
            f"shipped={rebalance['state_tuples_shipped']} completed={rebalance['completed']}"
        )
    print_results(
        "Live rebalance: skewed hot-key load, mid-run bucket handoff between shards",
        lines,
    )

    for seed, result in zip(REBALANCE_SEEDS, results):
        label = f"rebalance seed={seed}"
        rebalance = result.extra["rebalance"]
        assert not rebalance["noop"], label
        assert rebalance["moves"] > 0, label
        assert rebalance["imbalance_after"] < rebalance["imbalance_before"], label
        assert rebalance["completed"], label
        # The handoff neither loses nor duplicates anything: the merged
        # ledger reconciles gap-free, duplicate-free, and ordered.
        assert result.eventually_consistent, label
        # Every replica group ends the run STABLE (the handoff is not a failure).
        for name, states in result.extra["shard_states"].items():
            assert all(state == "stable" for state in states), f"{label}: {name}={states}"
    benchmark.extra_info["rebalance_seed1_stable_tuples"] = results[0].n_stable
    benchmark.extra_info["rebalance_seed1_proc_new"] = round(results[0].proc_new, 6)
