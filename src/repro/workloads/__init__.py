"""Synthetic workloads and failure schedules."""

from .generators import (
    PayloadFactory,
    PayloadGenerator,
    RateProfile,
    bursty_rate,
    diurnal_rate,
    default_payload_factory,
    hot_key_payload_factory,
    hot_key_sequence,
    interleaved_sequence,
    network_monitoring,
    sensor_readings,
    sequential_sequence,
)
from .queries import (
    intrusion_detection_diagram,
    intrusion_detection_factory,
    sensor_alert_diagram,
    sensor_alert_factory,
    traffic_rollup_diagram,
    traffic_rollup_factory,
    windowed_rollup_diagram,
    windowed_rollup_factory,
)
from .scenarios import FailureSpec

__all__ = [
    "PayloadFactory",
    "PayloadGenerator",
    "RateProfile",
    "bursty_rate",
    "diurnal_rate",
    "default_payload_factory",
    "hot_key_payload_factory",
    "hot_key_sequence",
    "interleaved_sequence",
    "network_monitoring",
    "sensor_readings",
    "sequential_sequence",
    "FailureSpec",
    "intrusion_detection_diagram",
    "intrusion_detection_factory",
    "sensor_alert_diagram",
    "sensor_alert_factory",
    "traffic_rollup_diagram",
    "traffic_rollup_factory",
    "windowed_rollup_diagram",
    "windowed_rollup_factory",
]
