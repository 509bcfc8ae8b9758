"""Unit tests for configuration objects."""

import pytest

from repro.config import (
    DelayPolicy,
    DPCConfig,
    ProcessingPolicy,
    SimulationConfig,
)
from repro.errors import ConfigurationError


def test_default_configs_validate():
    DPCConfig().validate()
    SimulationConfig().validate()


def test_delay_policy_constructors_and_names():
    assert DelayPolicy.process_process().name == "Process & Process"
    assert DelayPolicy.delay_suspend().name == "Delay & Suspend"
    assert DelayPolicy.delay_delay().during_failure is ProcessingPolicy.DELAY


def test_invalid_latency_rejected():
    with pytest.raises(ConfigurationError):
        DPCConfig(max_incremental_latency=0.0).validate()


def test_detection_timeout_must_be_below_bound():
    with pytest.raises(ConfigurationError):
        DPCConfig(max_incremental_latency=0.3, failure_detection_timeout=0.4).validate()


def test_invalid_safety_factor_and_rates():
    with pytest.raises(ConfigurationError):
        DPCConfig(delay_safety_factor=0.0).validate()
    with pytest.raises(ConfigurationError):
        DPCConfig(redo_rate=0.0).validate()
    with pytest.raises(ConfigurationError):
        DPCConfig(boundary_interval=0.0).validate()


def test_checkpoint_interval_validation():
    """The acknowledgment cadence is the one retention knob: positive, or None
    to retain the whole run."""
    for bad in (0.0, -1.0):
        with pytest.raises(ConfigurationError, match="checkpoint_interval"):
            DPCConfig(checkpoint_interval=bad).validate()
    DPCConfig(checkpoint_interval=None).validate()
    DPCConfig(checkpoint_interval=0.5).validate()


def test_with_returns_modified_copy():
    config = DPCConfig()
    changed = config.with_(max_incremental_latency=5.0)
    assert changed.max_incremental_latency == 5.0
    assert config.max_incremental_latency == 3.0


def test_simulation_config_validation():
    with pytest.raises(ConfigurationError):
        SimulationConfig(batch_interval=0.0).validate()
    with pytest.raises(ConfigurationError):
        SimulationConfig(network_latency=-0.1).validate()
