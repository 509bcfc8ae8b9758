"""Unit tests for workload generators and failure scenarios."""

import pytest

from repro.deploy import compile as compile_topology
from repro.errors import ConfigurationError
from repro.runtime import ScenarioSpec
from repro.topology import Topology
from repro.workloads.generators import (
    interleaved_sequence,
    network_monitoring,
    sensor_readings,
    sequential_sequence,
)
from repro.workloads.scenarios import FailureSpec, resolve_failures


def row(generate, sequence, stime=0.0):
    """One tuple's payload: the generator's columns for a one-sequence tick."""
    columns = generate(range(sequence, sequence + 1), [stime])
    return {key: column[0] for key, column in columns.items()}


def test_sequential_sequence():
    generate = sequential_sequence()
    assert row(generate, 0)["seq"] == 0
    assert row(generate, 5, 0.5)["seq"] == 5


def test_interleaved_sequence_covers_all_integers():
    generators = [interleaved_sequence(i, 3) for i in range(3)]
    values = sorted(row(g, k)["seq"] for k in range(4) for g in generators)
    assert values == list(range(12))


def test_interleaved_sequence_validates_index():
    with pytest.raises(ValueError):
        interleaved_sequence(3, 3)


def test_network_monitoring_is_deterministic_per_seed():
    a = network_monitoring(0, 3, seed=1)
    b = network_monitoring(0, 3, seed=1)
    assert [row(a, i) for i in range(10)] == [row(b, i) for i in range(10)]
    record = row(a, 10)
    assert {"src", "dst", "dst_port", "bytes", "suspicious"} <= set(record)


def test_sensor_readings_shape():
    generate = sensor_readings(1, 3, seed=2)
    record = row(generate, 0)
    assert {"sensor", "location", "temperature", "co2"} <= set(record)
    assert record["sensor"] == 1


def test_spec_total_duration_runs_settle_past_the_last_failure():
    spec = ScenarioSpec(warmup=5.0, settle=10.0)
    assert spec.total_duration() == 15.0
    assert spec.with_failure("silence", start=5.0, duration=20.0).total_duration() == 35.0
    # The latest *end* counts, not the latest start; start=None is the warmup.
    overlapping = spec.with_failure("disconnect", duration=8.0).with_failure(
        "crash", start=6.0, duration=1.0
    )
    assert overlapping.total_duration() == 23.0
    assert spec.with_overrides(duration=4.0).total_duration() == 4.0


def test_one_failure_at_the_warmup_end():
    spec = ScenarioSpec(warmup=3.0, settle=6.0).with_failure("disconnect", duration=4.0)
    assert [failure.kind for failure in spec.resolved_failures()] == ["disconnect"]
    assert spec.resolved_failures()[0].start == 3.0
    assert spec.total_duration() == 13.0


def test_resolve_rejects_unknown_failure_kind():
    placement = compile_topology(Topology.chain(1), replicas_per_node=1)
    with pytest.raises(ConfigurationError, match="unknown failure kind"):
        resolve_failures(placement, [FailureSpec("meteor", 1.0, 1.0)])


def test_inject_schedules_one_primitive_per_resolved_action():
    placement = compile_topology(Topology.chain(1), replicas_per_node=1)
    deployment = placement.deploy(aggregate_rate=30.0, join_state_size=None)
    actions = resolve_failures(
        placement,
        [
            FailureSpec("disconnect", 1.0, 1.0, stream_index=0),
            FailureSpec("silence", 1.5, 1.0, stream_index=1),
            FailureSpec("crash", 2.0, 1.0),
        ],
    )
    injector = deployment.cluster.failures
    records = injector.inject(actions, deployment.wiring.sources, deployment.wiring.nodes)
    assert [(r.failure_type.value, r.target) for r in records] == [
        ("stream_disconnect", "source.s1->node1"),
        ("boundary_silence", "source.s2"),
        ("node_crash", "node1"),
    ]
    assert injector.history == records
    # Every failure is scheduled with its heal: two events per action.
    assert deployment.simulator.pending_events == 2 * len(records)


# --------------------------------------------------------------------------- rate profiles
def test_bursty_rate_square_wave():
    from repro.workloads.generators import bursty_rate

    profile = bursty_rate(period=60.0, burst_length=10.0, burst_factor=4.0)
    assert profile(0.0) == 4.0
    assert profile(9.9) == 4.0
    assert profile(10.0) == 1.0
    assert profile(59.9) == 1.0
    assert profile(60.0) == 4.0  # periodic


def test_diurnal_rate_oscillates_around_one():
    from repro.workloads.generators import diurnal_rate

    profile = diurnal_rate(day_length=600.0, amplitude=0.5)
    assert profile(0.0) == pytest.approx(1.0)
    assert profile(150.0) == pytest.approx(1.5)
    assert profile(450.0) == pytest.approx(0.5)
    assert min(profile(t * 10.0) for t in range(120)) > 0.0


def test_rate_profile_validation():
    from repro.workloads.generators import bursty_rate, diurnal_rate

    with pytest.raises(ValueError):
        bursty_rate(period=0.0)
    with pytest.raises(ValueError):
        bursty_rate(period=10.0, burst_length=10.0)
    with pytest.raises(ValueError):
        bursty_rate(burst_factor=0.0)
    with pytest.raises(ValueError):
        diurnal_rate(day_length=-1.0)
    with pytest.raises(ValueError):
        diurnal_rate(amplitude=1.0)


def test_bursty_source_produces_more_tuples_during_bursts():
    from repro.sim.event_loop import Simulator
    from repro.sim.network import Network
    from repro.sim.sources import DataSource
    from repro.workloads.generators import bursty_rate

    def produced(profile):
        simulator = Simulator()
        network = Network(simulator)
        source = DataSource(
            "s", "s1", simulator, network, rate=100.0, rate_profile=profile
        )
        source.start()
        simulator.run_until(20.0)
        return source.tuples_produced

    flat = produced(None)
    bursty = produced(bursty_rate(period=10.0, burst_length=5.0, burst_factor=3.0))
    # Half the time at 3x, half at 1x -> ~2x the flat tuple count.
    assert bursty > flat * 1.5
