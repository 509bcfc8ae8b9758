"""Live reconfiguration: Deployment.apply on a running sharded deployment.

Covers the acceptance properties of the control-plane redesign: a mid-run
rebalance of a genuinely skewed workload moves buckets, ships join state,
and leaves the merged ledger gap-free / duplicate-free / ordered across
seeds; drained shards reject later kill events; invalid applications are
refused with clear errors.
"""

import pytest

from repro.config import DPCConfig
from repro.errors import ConfigurationError, SimulationError
from repro.runtime import ScenarioSpec
from repro.sharding import ShardPlanner, ShardSpec
from repro.spe.operators import SJoin
from repro.statexfer import transfer_delay
from repro.topology import NodeSpec, Topology


def skewed_spec(seed, *, shards=4, rebalance_at=16.0, settle=18.0, **changes):
    return ScenarioSpec.sharded(
        shards=shards,
        skew=1.2,
        aggregate_rate=changes.pop("aggregate_rate", 120.0),
        warmup=rebalance_at,
        settle=settle,
        seed=seed,
        rebalance_at=rebalance_at,
        **changes,
    )


# --------------------------------------------------------------------------- the headline property
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_midrun_rebalance_stays_consistent_across_seeds(seed):
    runtime = skewed_spec(seed).run()
    record = runtime.deployment.rebalances[0]
    # The skewed load gives the planner real work...
    assert not record["noop"]
    assert len(record["moves"]) > 0
    assert record["imbalance_after"] < record["imbalance_before"]
    # ...the handoff completes (join state shipped at the drained boundary)...
    assert record["completed"]
    assert record["state_tuples_shipped"] > 0
    # ...and the merged ledger survives the handoff gap-free, duplicate-free,
    # and ordered.
    assert runtime.eventually_consistent()
    sequence = runtime.client.stable_sequence
    assert sequence == sorted(sequence)
    assert len(set(sequence)) == len(sequence)
    assert set(range(min(sequence), max(sequence) + 1)) == set(sequence)


def test_rebalance_reroutes_the_moved_buckets():
    runtime = skewed_spec(1).run()
    deployment = runtime.deployment
    record = deployment.rebalances[0]
    assignment = deployment.current_assignment
    before = deployment.placement.topology.shard_assignment
    assert assignment != before
    for move in record["moves"]:
        assert assignment.shard_of_bucket(move["bucket"]) == move["target"]
        assert before.shard_of_bucket(move["bucket"]) == move["source"]


def test_summary_reports_the_rebalance():
    runtime = skewed_spec(1).run()
    summary = runtime.summary()
    assert summary["eventually_consistent"]
    assert len(summary["rebalances"]) == 1
    assert summary["rebalances"][0]["moves"]


def test_default_config_rebalance_is_a_priced_transfer():
    """Every handoff is extract -> transfer_delay -> merge, with no opt-in flag."""
    runtime = skewed_spec(1).run()
    assert runtime.spec.dpc_config() == DPCConfig()
    record = runtime.deployment.rebalances[0]
    assert record["completed"] and record["state_tuples_shipped"] > 0
    assert record["transfer_started_at"] >= record["state_handoff_at"]
    assert record["transfer_delay"] == transfer_delay(DPCConfig(), record["state_tuples_shipped"])
    assert record["completed_at"] == pytest.approx(
        record["transfer_started_at"] + record["transfer_delay"]
    )
    assert record["state_tuples_trimmed"] == 0


# --------------------------------------------------------------------------- drain + kill guard
def drained_runtime(kill_start=None, settle=20.0):
    spec = ScenarioSpec.sharded(
        shards=3, aggregate_rate=90.0, warmup=10.0, settle=settle, seed=1
    )
    if kill_start is not None:
        spec = spec.with_shard_kill(3, duration=4.0, start=kill_start)
    runtime = spec.build()
    runtime.start()
    runtime.run_for(10.0)
    plan = runtime.deployment.plan_drain(2)
    record = runtime.deployment.apply(plan)
    return runtime, record


def test_drain_marks_the_fragment_and_stops_routing_data():
    runtime, record = drained_runtime()
    assert record["drained"] == ["shard3"]
    assert runtime.deployment.is_drained("shard3")
    stable_before = sum(
        stats["stable"]
        for node in runtime.node_group("shard3")
        for stats in node.statistics()["outputs"].values()
    )
    runtime.run_for(10.0)
    stable_after = sum(
        stats["stable"]
        for node in runtime.node_group("shard3")
        for stats in node.statistics()["outputs"].values()
    )
    # A handful of pre-cut tuples may still drain through; beyond that the
    # drained shard contributes punctuation only.
    assert stable_after - stable_before < 60
    assert runtime.eventually_consistent()


def test_kill_of_a_drained_shard_is_rejected_at_fire_time():
    runtime, _record = drained_runtime(kill_start=15.0)
    with pytest.raises(ConfigurationError, match="drained"):
        runtime.run_for(20.0)


def test_repopulating_a_drained_shard_makes_it_a_legal_kill_target_again():
    runtime, _record = drained_runtime()
    deployment = runtime.deployment
    runtime.run_for(5.0)
    # Move a bucket back onto the evacuated shard: it routes data again.
    from repro.sharding import RebalancePlan, ShardMove

    assignment = deployment.current_assignment
    bucket = assignment.buckets_by_shard[0][0]
    refill = assignment.move(bucket, 2)
    plan = RebalancePlan(
        before=assignment,
        after=refill,
        moves=(ShardMove(bucket=bucket, source=0, target=2),),
        imbalance_before=1.0,
        imbalance_after=1.0,
    )
    deployment.apply(plan)
    assert not deployment.is_drained("shard3")
    deployment.assert_kill_target_live("shard3")  # no raise


def test_state_handoff_with_unequal_replica_counts_neither_duplicates_nor_drops():
    """Source shard has 2 replicas, target has 1 (and vice versa): every
    target replica receives exactly one copy of the moved join state."""
    shard_spec = ShardSpec(shards=2, key="seq", buckets=8, group=3)
    assignment = ShardPlanner(shard_spec).plan()
    nodes = [
        NodeSpec(name="split", inputs=("s1", "s2", "s3"), stateful=False),
        NodeSpec(
            name="shard1",
            inputs=("split",),
            select=assignment.predicate(0),
            stateful=True,
            replicas=2,
        ),
        NodeSpec(
            name="shard2",
            inputs=("split",),
            select=assignment.predicate(1),
            stateful=True,
            replicas=1,
        ),
        NodeSpec(name="merge", inputs=("shard1", "shard2")),
    ]
    topology = Topology(nodes, name="uneven-shard")
    topology.shard_assignment = assignment
    from repro import deploy

    deployment = deploy.compile(topology).deploy(aggregate_rate=90.0, seed=1)
    deployment.start()
    deployment.run_for(10.0)
    # Move one shard1 bucket (2 source replicas) to shard2 (1 target replica).
    from repro.sharding import RebalancePlan, ShardMove

    bucket = next(
        b
        for b in assignment.buckets_by_shard[0]
        if any(
            item.stime < 10.1
            and shard_spec.bucket_of(shard_spec.key_of(item.values)) == b
            for op in deployment.node("shard1").diagram
            if isinstance(op, SJoin)
            for item in op._state
        )
    )
    plan = RebalancePlan(
        before=assignment,
        after=assignment.move(bucket, 1),
        moves=(ShardMove(bucket=bucket, source=0, target=1),),
        imbalance_before=1.0,
        imbalance_after=1.0,
    )
    record = deployment.apply(plan)
    deployment.run_for(5.0)
    assert record["completed"]
    assert record["state_tuples_shipped"] > 0
    # The single target replica holds each shipped tuple exactly once.
    [target_join] = [
        op for op in deployment.node("shard2").diagram if isinstance(op, SJoin)
    ]
    keys = [(item.stime, item.values.get("seq")) for item in target_join._state]
    assert len(keys) == len(set(keys)), "moved join state was duplicated"
    # And both source replicas gave the moved bucket's pre-cut state up.
    for replica in deployment.node_group("shard1"):
        for op in replica.diagram:
            if isinstance(op, SJoin):
                assert not any(
                    item.stime < record["cut_stime"]
                    and shard_spec.bucket_of(shard_spec.key_of(item.values)) == bucket
                    for item in op._state
                )
    # The merged ledger survives the uneven handoff.
    sequence = deployment.clients[0].stable_sequence
    assert sequence == sorted(sequence)
    assert len(set(sequence)) == len(sequence)


def test_kill_before_the_drain_is_still_legal():
    spec = ScenarioSpec.sharded(
        shards=3, aggregate_rate=90.0, warmup=10.0, settle=25.0, seed=1
    ).with_shard_kill(2, duration=4.0, start=10.0)
    runtime = spec.run()
    assert runtime.eventually_consistent()


# --------------------------------------------------------------------------- validation
def test_apply_rejects_stale_plans():
    runtime = skewed_spec(1).build()
    runtime.start()
    runtime.run_for(16.5)  # the scheduled rebalance has fired
    deployment = runtime.deployment
    stale = ShardPlanner(deployment.current_assignment.spec).plan()
    loads = deployment.observed_bucket_loads()
    plan = ShardPlanner(deployment.current_assignment.spec).rebalance(stale, loads)
    if plan.before != deployment.current_assignment:
        with pytest.raises(ConfigurationError, match="different assignment"):
            deployment.apply(plan)


def test_apply_requires_a_sharded_deployment():
    runtime = ScenarioSpec.chain(1, warmup=2.0, settle=2.0).build()
    with pytest.raises(ConfigurationError, match="not sharded"):
        runtime.deployment.plan_rebalance()


def test_apply_refuses_mid_failure():
    spec = ScenarioSpec.sharded(
        shards=2, aggregate_rate=90.0, warmup=6.0, settle=25.0, seed=1
    ).with_shard_kill(1, duration=8.0, start=6.0)
    runtime = spec.build()
    runtime.start()
    runtime.run_for(11.0)  # mid-failure: shard1 down, merge handling it
    deployment = runtime.deployment
    plan = deployment.plan_drain(0)
    with pytest.raises(SimulationError, match="failure"):
        deployment.apply(plan)


def test_noop_plan_is_recorded_without_reconfiguring():
    spec = ScenarioSpec.sharded(shards=2, aggregate_rate=90.0, warmup=6.0, settle=4.0, seed=1)
    runtime = spec.build()
    runtime.start()
    runtime.run_for(6.0)
    deployment = runtime.deployment
    plan = ShardPlanner(deployment.current_assignment.spec).rebalance(
        deployment.current_assignment, {}, tolerance=10.0
    )
    record = deployment.apply(plan)
    assert record["noop"]
    assert deployment.subscription_filters["shard1"].epochs == 1


# --------------------------------------------------------------------------- spec validation
def test_rebalance_at_requires_sharded_topology():
    with pytest.raises(ConfigurationError, match="sharded"):
        ScenarioSpec.chain(1, rebalance_at=5.0).validate()


def test_rebalance_at_must_fall_inside_the_run():
    with pytest.raises(ConfigurationError, match="beyond the run"):
        skewed_spec(1).with_overrides(rebalance_at=500.0).validate()


def test_rebalance_without_handoff_slack_is_rejected():
    # 16 + 18 = 34s run: a rebalance at 33.9s is inside the run but would
    # switch routing without the state handoff ever draining before the end.
    with pytest.raises(ConfigurationError, match="drain slack"):
        skewed_spec(1).with_overrides(rebalance_at=33.9).validate()


def test_rebalance_at_inside_a_failure_window_is_rejected():
    spec = skewed_spec(1, settle=30.0).with_shard_kill(1, duration=8.0, start=14.0)
    # rebalance_at=16 lands inside [14, 22): rejected up front instead of
    # dying mid-simulation on the quiesce check.
    with pytest.raises(ConfigurationError, match="failure window"):
        spec.validate()
    # Before the failure starts (or after it ends) is fine.
    spec.with_overrides(rebalance_at=10.0, warmup=10.0).validate()
