"""Tests for the declarative scenario layer (spec validation + compilation)."""

import pytest

from repro.config import DPCConfig
from repro.errors import ConfigurationError, SimulationError
from repro.runtime import FailureSpec, ScenarioSpec, run_scenario


def test_defaults_validate_and_derive_duration():
    spec = ScenarioSpec()
    spec.validate()
    assert spec.total_duration() == spec.warmup + spec.settle
    failing = spec.with_failure("disconnect", start=5.0, duration=10.0)
    assert failing.total_duration() == 15.0 + failing.settle
    assert failing.with_overrides(duration=7.5).total_duration() == 7.5


def test_validation_rejects_bad_specs():
    with pytest.raises(ConfigurationError):
        ScenarioSpec(replicas_per_node=0).validate()
    with pytest.raises(ConfigurationError):
        ScenarioSpec(aggregate_rate=0.0).validate()
    with pytest.raises(ConfigurationError):
        ScenarioSpec(duration=-1.0).validate()
    with pytest.raises(ConfigurationError):
        ScenarioSpec(failures=(FailureSpec(kind="disconnect", start=1.0, duration=0.0),)).validate()


def test_factories_shape_the_topology():
    single = ScenarioSpec.single_node(replicated=False, n_input_streams=1)
    assert single.topology.node_names == ["node1"]
    assert single.topology.source_streams == ["s1"]
    assert single.replicas_per_node == 1
    chain = ScenarioSpec.chain(3)
    assert (chain.topology.depth(), chain.replicas_per_node) == (3, 2)
    assert chain.topology.source_streams == ["s1", "s2", "s3"]
    assert chain.name == "chain-3"
    assert ScenarioSpec().topology.node_names == ["node1"]


def test_compiled_runtime_owns_a_wired_cluster():
    runtime = ScenarioSpec.single_node(
        aggregate_rate=60.0, config=DPCConfig(max_incremental_latency=3.0)
    ).with_failure("disconnect", start=2.0, duration=3.0).with_overrides(warmup=2.0, settle=8.0).build()
    assert len(runtime.sources) == 3
    assert len(runtime.nodes()) == 2
    runtime.run()
    assert runtime.simulator.now == pytest.approx(13.0)
    assert len(runtime.injected) == 2  # one record per disconnected replica
    assert runtime.client.metrics.consistency.total_stable > 0
    summary = runtime.summary()
    assert summary["events_fired"] == runtime.simulator.events_fired
    assert summary["eventually_consistent"] is True
    # A completed scenario refuses to silently rerun.
    with pytest.raises(SimulationError):
        runtime.run()


def test_run_scenario_convenience():
    runtime = run_scenario(ScenarioSpec.single_node(aggregate_rate=60.0, settle=5.0))
    assert runtime.eventually_consistent()


def test_runtime_tracks_wall_clock_outside_the_summary():
    """Wall time is measured on the runtime but kept out of summary()."""
    runtime = ScenarioSpec.single_node(
        replicated=False, aggregate_rate=60.0, warmup=2.0, settle=2.0, seed=1
    ).run()
    assert runtime.wall_seconds > 0.0
    # summary() must stay byte-identical across hosts: no wall-clock fields
    # anywhere in the tree (str() of the dict covers nested keys too).
    assert "wall" not in str(runtime.summary())
