"""Elastic scale-out / scale-in and the hardened (priced, abortable) handoff.

Covers the elasticity control plane end to end: the autoscaler loop scales a
live deployment out under a load surge and back in when it subsides with a
gap-free ledger across seeds; scale-out attaches fragments to the *running*
cluster (seeded cursors, widened merge fan-in); scale-in actually
decommissions (merge arity rewired down, endpoints unregistered); and a
crash landing between the filter cut and the priced state transfer aborts
the handoff cleanly -- restoring the extracted state to the old owner and
re-arming -- instead of leaving the moved buckets' state in limbo.
"""

import pytest

from repro.deploy import AutoscalePolicy
from repro.errors import ConfigurationError, SimulationError
from repro.experiments import summarize_run
from repro.runtime import ScenarioSpec
from repro.sharding import ShardPlanner
from repro.workloads.catalogue import CATALOGUE


def priced_spec(seed=1, *, shards=2, warmup=12.0, settle=22.0, rate=120.0, **changes):
    """A skewed sharded deployment (every handoff is priced and two-phase)."""
    return ScenarioSpec.sharded(
        shards=shards,
        skew=1.2,
        aggregate_rate=rate,
        warmup=warmup,
        settle=settle,
        seed=seed,
        **changes,
    )


def running(spec, until):
    runtime = spec.build()
    runtime.start()
    runtime.run_for(until)
    return runtime


def assert_ledger_clean(runtime):
    for client in runtime.clients:
        sequence = client.stable_sequence
        assert sequence == sorted(sequence)
        assert len(set(sequence)) == len(sequence)
        assert set(range(min(sequence), max(sequence) + 1)) == set(sequence)


def merge_arity(runtime):
    node = runtime.node_group("merge")[0]
    return node.diagram.operator(f"{node.name}.sunion").arity


# --------------------------------------------------------------------------- the headline property
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_autoscale_surge_scales_out_and_back_with_clean_ledgers(seed):
    result = summarize_run(CATALOGUE["shard2-autoscale"](seed=seed).run())
    autoscale = result.extra["autoscale"]
    # The surge doubles the load: 2 shards -> 4; the subsidence drains back.
    assert autoscale["peak_shards"] == 4
    assert autoscale["final_shards"] == 2
    # Failure-free schedule: every handoff completes, nothing aborts.
    assert autoscale["handoff_aborts"] == 0
    assert autoscale["handoffs_completed"] >= 3
    assert autoscale["state_tuples_shipped"] > 0
    # And elasticity loses and duplicates nothing.
    assert result.eventually_consistent


def test_autoscale_summary_is_surfaced_only_on_elastic_runs():
    spec = priced_spec(1, warmup=4.0, settle=4.0)
    plain = spec.run().summary()
    assert "autoscale" not in plain
    policy = AutoscalePolicy(min_shards=2, max_shards=4, high_watermark=1e9, low_watermark=1.0)
    elastic = (
        spec.with_overrides(autoscale=policy, name="autoscale-smoke").run().summary()
    )
    assert "autoscale" in elastic
    assert elastic["autoscale"]["final_shards"] == 2
    assert elastic["autoscale"]["policy"]["max_shards"] == 4


# --------------------------------------------------------------------------- scale-out
def test_scale_out_attaches_a_live_fragment():
    runtime = running(priced_spec(1), 12.0)
    deployment = runtime.deployment
    arity_before = merge_arity(runtime)
    record = deployment.scale_out(count=1)
    assert record["scale_out"]["added"] == ["shard3"]
    assert deployment.active_shards() == 3
    assert "shard3" in runtime.cluster.node_groups
    assert "shard3" in deployment.subscription_filters
    assert merge_arity(runtime) == arity_before + 1
    # The expansion cut buckets onto the new shard and priced the transfer.
    assert not record["noop"]
    assert any(move["target"] == 2 for move in record["moves"])
    runtime.run_for(15.0)
    assert record["completed"]
    assert record["state_tuples_shipped"] > 0
    assert "transfer_delay" in record
    # The new fragment genuinely routes data (not just punctuation).
    stable = sum(
        stats["stable"]
        for node in runtime.cluster.node_groups["shard3"]
        for stats in node.statistics()["outputs"].values()
    )
    assert stable > 0
    assert_ledger_clean(runtime)


def test_resubscribe_replays_the_uncovered_suffix():
    runtime = running(priced_spec(1), 12.0)
    deployment = runtime.deployment
    deployment.scale_out(count=1)
    new_node = runtime.cluster.node_groups["shard3"][0]
    split_name = deployment.placement.shard_producer
    split_stream = deployment.placement.node_plan(split_name).output_stream
    # Drop the build-time wiring, then send a real SUBSCRIBE quoting the
    # seeded cursor, gated until the replay arrives.
    split0 = runtime.node_group(split_name)[0]
    split0.data_path.output(split_stream).unsubscribe(new_node.endpoint)
    monitor = new_node.cm.monitor(split_stream)
    monitor.awaiting_replay = True
    new_node.cm.resubscribe(monitor)
    runtime.run_for(1.0)
    assert not monitor.awaiting_replay
    assert new_node.endpoint in split0.data_path.output(split_stream).subscribers()
    runtime.run_for(14.0)
    assert_ledger_clean(runtime)


# --------------------------------------------------------------------------- scale-in
def test_scale_in_decommissions_the_drained_fragment():
    runtime = running(priced_spec(1, shards=3, rate=90.0), 12.0)
    deployment = runtime.deployment
    arity_before = merge_arity(runtime)
    split_name = deployment.placement.shard_producer
    split_stream = deployment.placement.node_plan(split_name).output_stream
    retired_endpoints = [n.endpoint for n in runtime.cluster.node_groups["shard3"]]
    before = deployment.placement
    record = deployment.scale_in(2)
    assert record["scale_in"] == {"retired": "shard3", "shards": 2}
    runtime.run_for(15.0)
    assert record["completed"]
    assert "decommissioned_at" in record
    # The fragment is actually gone, not a punctuation-relaying ghost.
    assert deployment.active_shards() == 2
    assert "shard3" not in runtime.cluster.node_groups
    assert all(node._retired for node in deployment.retired_groups["shard3"])
    assert merge_arity(runtime) == arity_before - 1
    for split_node in runtime.node_group(split_name):
        remaining = split_node.data_path.output(split_stream).subscribers()
        assert not set(retired_endpoints) & set(remaining)
    for endpoint in retired_endpoints:
        assert endpoint not in deployment.registry._nodes
    # The plan follows the deployment: both edges of the retired fragment and
    # its filter are gone; its NodePlan stays (shard indexing is positional).
    after = deployment.placement
    changes = before.diff(after)
    assert "subscription split -> shard3 removed" in changes
    assert "subscription shard3 -> merge removed" in changes
    assert "shard3" not in deployment.subscription_filters
    assert "shard3" not in [edge.consumer for edge in after.filtered_subscriptions()]
    assert after.shard_fragments == before.shard_fragments
    assert after.node_plan("merge").inputs == ("shard1.out", "shard2.out")
    runtime.run_for(7.0)
    assert_ledger_clean(runtime)
    # With shard 0 retired too, a scale-out still finds the split and the
    # merge -- through an active fragment's edges.
    deployment.scale_in(0)
    runtime.run_for(12.0)
    assert 0 in deployment.decommissioned
    record = deployment.scale_out(count=1)
    assert record["scale_out"]["added"] == ["shard4"]
    runtime.run_for(12.0)
    assert record["completed"]
    assert_ledger_clean(runtime)


def test_scale_in_validates_its_target():
    runtime = running(priced_spec(1, shards=2, rate=90.0), 12.0)
    deployment = runtime.deployment
    with pytest.raises(ConfigurationError, match="out of range"):
        deployment.scale_in(5)
    deployment.scale_in(1)
    runtime.run_for(10.0)
    assert 1 in deployment.decommissioned
    with pytest.raises(ConfigurationError, match="already decommissioned"):
        deployment.scale_in(1)
    with pytest.raises(ConfigurationError, match="last active shard"):
        deployment.scale_in(0)
    runtime.run_for(5.0)
    assert_ledger_clean(runtime)


def test_scale_out_after_scale_in_reuses_no_retired_slot():
    runtime = running(priced_spec(1, shards=2, rate=90.0), 12.0)
    deployment = runtime.deployment
    deployment.scale_in(1)
    runtime.run_for(10.0)
    record = deployment.scale_out(count=1)
    # The retired slot (index 1) stays retired; the new fragment takes a
    # fresh index so positional shard addressing never aliases.
    assert record["scale_out"]["added"] == ["shard3"]
    assert deployment.active_shards() == 2
    assert 1 in deployment.decommissioned
    runtime.run_for(12.0)
    assert record["completed"]
    assert_ledger_clean(runtime)


# --------------------------------------------------------------------------- handoff hardening
def test_second_reconfiguration_is_rejected_while_a_handoff_is_pending():
    runtime = running(priced_spec(1), 12.0)
    deployment = runtime.deployment
    record = deployment.rebalance()
    assert not record["completed"]
    with pytest.raises(SimulationError, match="pending"):
        deployment.rebalance()
    with pytest.raises(SimulationError, match="pending"):
        deployment.scale_out()
    with pytest.raises(SimulationError, match="pending"):
        deployment.scale_in(0)
    runtime.run_for(10.0)
    assert record["completed"]
    # Resolved: the control plane accepts new plans again.
    deployment.rebalance()


def test_noop_and_applied_records_share_one_schema():
    runtime = running(priced_spec(1, warmup=6.0, settle=6.0), 6.0)
    deployment = runtime.deployment
    plan = ShardPlanner(deployment.current_assignment.spec).rebalance(
        deployment.current_assignment, {}, tolerance=10.0
    )
    record = deployment.apply(plan)
    assert record["noop"]
    for key, value in {
        "cut_stime": None,
        "state_handoff_at": None,
        "completed": True,
        "state_tuples_shipped": 0,
        "state_tuples_trimmed": 0,
    }.items():
        assert record[key] == value
    assert "completed_at" in record and "drained" in record
    # Downstream consumers can read the same keys off either record shape.
    applied = deployment.rebalance()
    runtime.run_for(10.0)
    missing = {
        "cut_stime",
        "drained",
        "state_handoff_at",
        "completed",
        "completed_at",
        "state_tuples_shipped",
        "state_tuples_trimmed",
    } - set(applied)
    assert not missing


def test_crash_of_the_old_owner_between_cut_and_handoff_retries_then_completes():
    runtime = running(priced_spec(1), 12.0)
    deployment = runtime.deployment
    record = deployment.rebalance()
    source = record["moves"][0]["source"]
    name = deployment.placement.shard_fragments[source]
    victim = runtime.cluster.node_groups[name][0]
    now = runtime.simulator.now
    runtime.cluster.failures.crash_processing_node(victim, start=now + 0.01, duration=0.6)
    runtime.run_for(15.0)
    # The handoff refused to extract state while the deployment was unstable
    # (a recovering old owner would rebuild the shipped buckets from replay),
    # then completed once it re-stabilized.
    assert record.get("handoff_retries", 0) >= 1
    assert record["completed"]
    assert record["state_tuples_shipped"] > 0
    assert_ledger_clean(runtime)


def test_crash_of_the_new_owner_mid_transfer_aborts_and_rearms():
    runtime = running(priced_spec(1), 12.0)
    deployment = runtime.deployment
    record = deployment.rebalance()
    target = record["moves"][0]["target"]
    name = deployment.placement.shard_fragments[target]
    # Step to the instant the state has been extracted and is in flight...
    while "transfer_started_at" not in record:
        runtime.run_for(0.02)
    assert not record["completed"]
    # ...then kill every replica of the new owner inside the transfer window.
    now = runtime.simulator.now
    for victim in runtime.cluster.node_groups[name]:
        runtime.cluster.failures.crash_processing_node(
            victim, start=now + 0.001, duration=2.0
        )
    runtime.run_for(18.0)
    # The transfer aborted: the extracted state went back to the old owner
    # (not into limbo -- restored_tuples counts what was re-admitted there),
    # and the handoff re-armed and eventually completed.  By then the moved
    # buckets' pre-cut tuples may have aged out of the bounded join window,
    # so the final shipment can legitimately be empty; what must never
    # happen is a lost or duplicated ledger entry.
    aborts = record["aborts"]
    assert aborts and aborts[0]["restored_tuples"] > 0
    assert "crashed mid-transfer" in aborts[0]["reason"]
    assert record["completed"]
    assert record["state_tuples_shipped"] >= 0
    assert_ledger_clean(runtime)


def test_priced_records_count_trimmed_state_and_warn():
    runtime = running(priced_spec(1, join_state_size=50), 12.0)
    deployment = runtime.deployment
    record = deployment.rebalance()
    with pytest.warns(RuntimeWarning, match="trimmed"):
        runtime.run_for(10.0)
    assert record["completed"]
    assert record["state_tuples_trimmed"] > 0
    assert_ledger_clean(runtime)


# --------------------------------------------------------------------------- load observation
def test_observed_bucket_loads_survive_a_truncated_replica_buffer():
    runtime = running(priced_spec(1, warmup=10.0, settle=10.0), 10.0)
    deployment = runtime.deployment
    full = deployment.observed_bucket_loads()
    assert sum(full.values()) > 0
    split_name = deployment.placement.shard_producer
    stream = deployment.placement.node_plan(split_name).output_stream
    manager = runtime.node_group(split_name)[0].data_path.output(stream)
    # A replica that recovered through checkpoint adoption retains only a
    # suffix; reading it blindly would undercount every bucket's history.
    manager._drop_oldest(manager.buffered_tuples // 2)
    assert deployment.observed_bucket_loads() == full


def test_observed_bucket_loads_equal_a_per_row_count_across_a_truncation():
    """Counting distinct keys (and reading the buffer's columns in place) is the
    same measurement as hashing every stable tuple, before and after a truncation."""
    spec = ScenarioSpec.sharded(
        shards=4, skew=1.2, aggregate_rate=120.0, warmup=12.0, settle=0.0, seed=1,
        checkpoint_interval=None,
    )
    runtime = running(spec, 12.0)
    deployment = runtime.deployment
    shard_spec = deployment.current_assignment.spec
    split_name = deployment.placement.shard_producer
    stream = deployment.placement.node_plan(split_name).output_stream
    manager = runtime.node_group(split_name)[0].data_path.output(stream)
    reference: dict[int, float] = {}
    for item in manager.buffered_items():  # nothing truncated yet: the whole history
        if item.is_stable:
            bucket = shard_spec.bucket_of(shard_spec.key_of(item.values))
            reference[bucket] = reference.get(bucket, 0.0) + 1.0
    assert manager.truncated_tuples == 0 and len(reference) > 4
    assert deployment.observed_bucket_loads() == reference
    plan = deployment.plan_rebalance()
    manager._drop_oldest(manager.buffered_tuples // 2)
    for replica in runtime.node_group(split_name)[1:]:
        replica.crash()  # leave only the truncated replica to read
    assert manager.truncated_tuples > 0
    assert deployment.observed_bucket_loads() == reference
    assert deployment.plan_rebalance() == plan and not plan.is_noop


def test_observed_bucket_loads_skip_crashed_replicas():
    runtime = running(priced_spec(1, warmup=10.0, settle=10.0), 10.0)
    deployment = runtime.deployment
    full = deployment.observed_bucket_loads()
    runtime.node_group(deployment.placement.shard_producer)[0].crash()
    assert deployment.observed_bucket_loads() == full


# --------------------------------------------------------------------------- spec validation
def test_autoscale_requires_a_sharded_topology():
    with pytest.raises(ConfigurationError, match="sharded"):
        ScenarioSpec.chain(1, autoscale=AutoscalePolicy()).validate()


def test_autoscale_floor_cannot_exceed_the_deployed_shards():
    with pytest.raises(ConfigurationError, match="min_shards"):
        priced_spec(1, shards=2, autoscale=AutoscalePolicy(min_shards=3)).validate()


def test_autoscale_policy_validates_its_watermarks():
    with pytest.raises(ConfigurationError, match="watermarks"):
        AutoscalePolicy(high_watermark=10.0, low_watermark=20.0).validate()
    with pytest.raises(ConfigurationError, match="period"):
        AutoscalePolicy(period=0.0).validate()
    with pytest.raises(ConfigurationError, match="shard bounds"):
        AutoscalePolicy(min_shards=4, max_shards=2).validate()


def test_autoscale_keeps_the_spec_config():
    spec = ScenarioSpec.sharded(shards=2, autoscale=AutoscalePolicy())
    assert spec.dpc_config() == ScenarioSpec.sharded(shards=2).dpc_config()
