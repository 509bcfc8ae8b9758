"""Unit tests for the failure injector."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.event_loop import Simulator
from repro.sim.failures import FailureInjector, FailureType
from repro.sim.network import Network
from repro.sim.sources import DataSource
from repro.workloads.scenarios import FailureAction


def setup():
    sim = Simulator()
    net = Network(sim)
    net.register("node", lambda msg, now: None)
    source = DataSource("src", "s1", sim, net, rate=50.0)
    source.subscribe("node")
    injector = FailureInjector(simulator=sim, network=net)
    return sim, net, source, injector


def test_disconnect_stream_schedules_failure_and_recovery():
    sim, _net, source, injector = setup()
    record = injector.disconnect_stream(source, "node", start=1.0, duration=2.0)
    assert record.failure_type is FailureType.STREAM_DISCONNECT
    assert record.end == 3.0
    source.start()
    sim.run_until(1.5)
    assert not source.is_connected("node")
    sim.run_until(3.5)
    assert source.is_connected("node")


def test_silence_boundaries_toggles_flag():
    sim, _net, source, injector = setup()
    injector.silence_boundaries(source, start=1.0, duration=1.0)
    source.start()
    sim.run_until(1.5)
    assert not source.boundaries_enabled
    sim.run_until(2.5)
    assert source.boundaries_enabled


def test_crash_node_and_partition_affect_network():
    sim, net, _source, injector = setup()
    injector.crash_node("node", start=1.0, duration=1.0)
    injector.partition("node", "src", start=1.0, duration=1.0)
    sim.run_until(1.5)
    assert net.is_down("node")
    assert net.is_partitioned("node", "src")
    sim.run_until(2.5)
    assert not net.is_down("node")
    assert not net.is_partitioned("node", "src")


def test_invalid_failure_times_rejected():
    sim, _net, source, injector = setup()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        injector.disconnect_stream(source, "node", start=1.0, duration=1.0)
    with pytest.raises(SimulationError):
        injector.silence_boundaries(source, start=6.0, duration=0.0)


def test_overlap_detection():
    _sim, _net, source, injector = setup()
    injector.disconnect_stream(source, "node", start=1.0, duration=5.0)
    assert not injector.overlapping()
    injector.silence_boundaries(source, start=3.0, duration=1.0)
    assert injector.overlapping()


class _Replica:
    """The crash/recover surface of a ProcessingNode, recording its calls."""

    def __init__(self, name, sim, log):
        self.name, self._sim, self._log = name, sim, log

    def crash(self):
        self._log.append(("crash", self._sim.now))

    def recover(self):
        self._log.append(("recover", self._sim.now))


def test_inject_schedules_each_action_and_checks_crash_targets_at_fire_time():
    sim, _net, source, injector = setup()
    log = []
    actions = [
        FailureAction("silence", 0.5, 1.0, source="src"),
        FailureAction("crash", 1.0, 1.0, endpoint="node'", node="node", replica=1),
    ]
    silence, crash = injector.inject(
        actions,
        {"src": source},
        {"node'": _Replica("node'", sim, log)},
        check_target=lambda name: log.append(("check", name, sim.now)),
    )
    assert silence.failure_type is FailureType.BOUNDARY_SILENCE
    assert (crash.failure_type, crash.target, crash.end) == (FailureType.NODE_CRASH, "node'", 2.0)
    assert log == []  # nothing is checked or crashed while scheduling
    sim.run_until(3.0)
    assert log == [("check", "node", 1.0), ("crash", 1.0), ("recover", 2.0)]


def test_inject_crash_whose_target_check_fails_never_crashes():
    sim, _net, source, injector = setup()
    log = []

    def reject(name):
        raise ConfigurationError(f"{name} was drained")

    injector.inject(
        [FailureAction("crash", 1.0, 1.0, endpoint="node", node="node", replica=0)],
        {},
        {"node": _Replica("node", sim, log)},
        check_target=reject,
    )
    with pytest.raises(ConfigurationError, match="node was drained"):
        sim.run_until(3.0)
    assert log == []
