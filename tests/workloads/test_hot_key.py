"""The zipfian hot-key workload generator (the rebalancer's raison d'etre)."""

import pytest

from repro.sharding import ShardPlanner, ShardSpec, bucket_loads_from_keys
from repro.workloads.generators import hot_key_payload_factory, hot_key_sequence


def row(generate, tick, stime=0.0):
    """One tuple's payload: the generator's columns for a one-tick call."""
    columns = generate(range(tick, tick + 1), [stime])
    return {key: column[0] for key, column in columns.items()}


def test_key_is_constant_across_a_tie_group():
    n_streams = 3
    generators = [hot_key_sequence(i, n_streams) for i in range(n_streams)]
    for tick in range(200):
        keys = {row(gen, tick, tick * 0.01)["key"] for gen in generators}
        assert len(keys) == 1, f"tick {tick} straddles keys {keys}"


def test_seq_attribute_stays_the_interleaved_global_sequence():
    n_streams = 3
    generators = [hot_key_sequence(i, n_streams) for i in range(n_streams)]
    seqs = sorted(
        row(gen, tick)["seq"] for tick in range(50) for gen in generators
    )
    assert seqs == list(range(150))


def test_generator_is_deterministic_across_instances():
    a = hot_key_sequence(0, 3, seed=5)
    b = hot_key_sequence(0, 3, seed=5)
    assert [row(a, t) for t in range(100)] == [row(b, t) for t in range(100)]
    c = hot_key_sequence(0, 3, seed=6)
    assert [row(a, t) for t in range(100)] != [row(c, t) for t in range(100)]


def test_skew_concentrates_load_enough_to_trigger_the_planner():
    gen = hot_key_sequence(0, 1, skew=1.2, keys=64)
    keys = gen(range(3000), [0.0] * 3000)["key"]
    counts = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    # The hot key dominates...
    hot_share = counts[0] / len(keys)
    assert hot_share > 0.2
    # ...and the induced bucket loads are skewed enough that the planner has
    # real moves to emit for the default contiguous assignment.
    spec = ShardSpec(shards=4, key="key", group=1)
    loads = bucket_loads_from_keys(spec, keys)
    planner = ShardPlanner(spec)
    assignment = planner.plan()
    assert assignment.imbalance(loads) > 1.2
    plan = planner.rebalance(assignment, loads, tolerance=0.10)
    assert plan.moves
    assert plan.imbalance_after < plan.imbalance_before


def test_factory_binds_skew_and_seed():
    factory = hot_key_payload_factory(skew=1.5, keys=8, seed=2)
    gen = factory(1, 3)
    payload = row(gen, 0)
    assert set(payload) == {"seq", "value", "stream", "key"}
    assert 0 <= payload["key"] < 8


def test_parameter_validation():
    with pytest.raises(ValueError):
        hot_key_sequence(3, 3)
    with pytest.raises(ValueError):
        hot_key_sequence(0, 3, skew=0.0)
    with pytest.raises(ValueError):
        hot_key_sequence(0, 3, keys=0)


def test_non_numeric_key_requires_tie_group_one():
    from repro.errors import ConfigurationError

    spec = ShardSpec(shards=2, key="name", group=3)
    with pytest.raises(ConfigurationError, match="group == 1"):
        spec.key_of({"name": "alice"})
    # With group=1 opaque keys route fine.
    assert ShardSpec(shards=2, key="name", group=1).key_of({"name": "alice"}) == "alice"
