"""Sharded scenarios: spec compilation, shard-kill, and schedule validation.

The failure-schedule edge cases ride on the shard topology: unknown shard
names, killing the split node (legal -- it is just a replicated node),
replica indices out of range, and schedules that outlive an explicitly
truncated run.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import summarize_run
from repro.runtime import ScenarioSpec
from repro.spe.operators import Filter, SJoin, SUnion
from repro.workloads.catalogue import CATALOGUE


def small_shard_spec(shards=2, **changes):
    return ScenarioSpec.sharded(
        shards=shards,
        aggregate_rate=changes.pop("aggregate_rate", 90.0),
        warmup=changes.pop("warmup", 4.0),
        settle=changes.pop("settle", 16.0),
        seed=changes.pop("seed", 1),
        **changes,
    )


# --------------------------------------------------------------------------- compilation
def test_sharded_spec_compiles_split_shards_merge():
    runtime = small_shard_spec(shards=3).build()
    assert runtime.topology.node_names == ["split", "shard1", "shard2", "shard3", "merge"]
    assert runtime.topology.depth() == 3
    assert runtime.topology.shard_assignment is not None
    # One replica group per logical node, one client for the single sink.
    assert set(runtime.cluster.node_groups) == set(runtime.topology.node_names)
    assert [c.name for c in runtime.clients] == ["client"]


def test_shard_fragments_receive_their_slice_and_own_the_join():
    """Default routing: the slice is cut at the producer, fragments relay."""
    runtime = small_shard_spec(shards=2).build()
    shard_node = runtime.node("shard1")
    ops = shard_node.diagram.operators
    # The slice predicate runs at the split (filtered subscription), so the
    # fragment is SUnion -> SJoin -> SOutput with no Filter of its own.
    entry = shard_node.diagram.inputs[0].operator
    assert isinstance(ops[entry], SUnion)
    assert not any(isinstance(op, Filter) for op in ops.values())
    assert any(isinstance(op, SJoin) for op in ops.values())
    # The consumer carries the shared filter for later re-subscriptions.
    monitor = shard_node.cm.monitor("split.out")
    assert monitor.subscription_filter is not None
    assert monitor.subscription_filter.name == "shard1.slice"
    # The split is a stateless router: SUnion + SOutput only.
    split_ops = runtime.node("split").diagram.operators.values()
    assert not any(isinstance(op, SJoin) for op in split_ops)
    assert any(isinstance(op, SUnion) for op in split_ops)


def test_shard_slices_are_disjoint_and_cover_the_stream():
    runtime = small_shard_spec(shards=4, settle=8.0).run()
    groups = summarize_run(runtime).extra["groups"]
    merge_counts = groups["merge"]
    shard_totals = [groups[f"shard{i + 1}"]["stable"] for i in range(4)]
    # Every shard produced its slice, and the slices reassemble the full
    # stream at the merge (each replica group emits the same stream, so the
    # per-group totals compare directly).
    assert merge_counts["stable"] > 0
    assert all(total > 0 for total in shard_totals)
    assert sum(shard_totals) >= merge_counts["stable"]
    assignment = runtime.topology.shard_assignment
    sequence = runtime.client.stable_sequence
    assert sequence == sorted(sequence)
    owners = {assignment.shard_of({"seq": value}) for value in sequence}
    assert owners == set(range(4)), "every shard must own part of the stream"


# --------------------------------------------------------------------------- shard-kill
def test_shard_kill_experiment_properties():
    spec = CATALOGUE["shard-kill"](failure_duration=6.0, shards=2, seed=1)
    result = summarize_run(spec.with_overrides(aggregate_rate=90.0, settle=25.0).run())
    assert result.eventually_consistent
    shards = result.extra["groups"]
    [killed] = {failure.node for failure in spec.failures}
    assert killed == "shard1"
    assert [name for name in shards if name.startswith("shard") and name != killed] == ["shard2"]
    assert shards["shard2"]["tentative"] == 0
    assert shards["merge"]["tentative"] > 0
    assert result.proc_new < result.extra["availability_bound"]


def test_shard_kill_by_name_matches_by_index():
    by_index = small_shard_spec().with_shard_kill(2, duration=5.0)
    by_name = small_shard_spec().with_shard_kill("shard2", duration=5.0)
    assert by_index.failures == by_name.failures
    by_index.validate()


# --------------------------------------------------------------------------- schedule validation
def test_unknown_shard_name_is_rejected_at_build_time():
    spec = small_shard_spec(shards=2).with_shard_kill(3, duration=5.0)
    with pytest.raises(ConfigurationError, match="shard3"):
        spec.validate()
    with pytest.raises(ConfigurationError):
        spec.build()


def test_killing_the_split_node_is_legal_and_recovers():
    """The split is an ordinary replicated node; killing one replica masks."""
    spec = small_shard_spec().with_failure("crash", duration=5.0, node="split")
    spec.validate()
    runtime = spec.run()
    assert runtime.eventually_consistent()
    # The surviving split replica keeps routing: switches, no data loss.
    assert runtime.client.summary()["total_stable"] > 0


def test_killing_every_split_replica_is_schedulable():
    spec = small_shard_spec(settle=25.0).with_branch_crash("split", duration=4.0)
    spec.validate()  # -1 means every replica; always in range


def test_shard_replica_out_of_range_is_rejected():
    spec = small_shard_spec().with_failure(
        "crash", duration=5.0, node="shard1", node_replica=2
    )
    with pytest.raises(ConfigurationError, match="replica"):
        spec.validate()


def test_schedule_outliving_an_explicit_duration_is_rejected():
    spec = small_shard_spec().with_shard_kill(1, duration=10.0)
    # Derived duration covers the failure: fine.
    spec.validate()
    truncated = spec.with_overrides(duration=8.0)
    with pytest.raises(ConfigurationError, match="duration"):
        truncated.validate()
    # A duration long enough for the failure (start 4 + 10) is accepted.
    spec.with_overrides(duration=14.0).validate()


def test_schedule_outliving_the_run_applies_to_chains_too():
    spec = ScenarioSpec.chain(1).with_failure("disconnect", start=5.0, duration=10.0)
    with pytest.raises(ConfigurationError):
        spec.with_overrides(duration=7.5).validate()


# --------------------------------------------------------------------------- invalid shapes
def test_shard_count_and_bucket_validation():
    with pytest.raises(ConfigurationError):
        ScenarioSpec.sharded(shards=0)
    with pytest.raises(ConfigurationError):
        ScenarioSpec.sharded(shards=4, buckets=2)


def test_harness_summarize_reports_shard_runs():
    runtime = small_shard_spec(settle=8.0).run()
    result = summarize_run(runtime)
    assert result.n_stable == runtime.client.summary()["total_stable"]
    assert "per_sink" not in result.extra  # single sink
