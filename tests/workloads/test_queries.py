"""Tests for the pre-built application query diagrams."""

import importlib.util
from pathlib import Path

import pytest

from repro.spe.engine import LocalEngine
from repro.spe.tuples import StreamTuple
from repro.workloads.queries import (
    intrusion_detection_diagram,
    intrusion_detection_factory,
    sensor_alert_diagram,
    sensor_alert_factory,
    traffic_rollup_diagram,
    traffic_rollup_factory,
)

_ORACLE = importlib.util.spec_from_file_location(
    "pane_aggregation_oracle",
    Path(__file__).resolve().parents[1] / "property" / "test_pane_aggregation.py",
)
_oracle = importlib.util.module_from_spec(_ORACLE)
_ORACLE.loader.exec_module(_oracle)
#: The property tests' recompute-every-window oracle.
naive_recompute = _oracle.naive_recompute


def push_with_boundaries(engine, stream, tuples, boundary_stime):
    """Push data tuples followed by a closing boundary on ``stream``."""
    outputs = engine.push(stream, tuples)
    closing = engine.push(stream, [StreamTuple.boundary(tuple_id=10_000, stime=boundary_stime)])
    merged = {}
    for source in (outputs, closing):
        for name, items in source.items():
            merged.setdefault(name, []).extend(items)
    return merged


def connection(tuple_id, stime, src, suspicious, bytes_=100, stream_offset=0):
    return StreamTuple.insertion(
        tuple_id=tuple_id,
        stime=stime,
        values={
            "seq": tuple_id + stream_offset,
            "src": src,
            "dst": "10.0.0.9",
            "dst_port": 22 if suspicious else 40000,
            "bytes": bytes_,
            "suspicious": suspicious,
        },
    )


# --------------------------------------------------------------------------- intrusion detection
def test_intrusion_detection_diagram_validates_and_has_expected_shape():
    diagram = intrusion_detection_diagram("n1", ["s1", "s2", "s3"], "alerts")
    assert diagram.input_streams == ["s1", "s2", "s3"]
    assert diagram.output_streams == ["alerts"]
    assert len(diagram) == 5


def test_intrusion_detection_counts_probes_per_source():
    diagram = intrusion_detection_diagram("n1", ["s1"], "alerts", window=10.0, min_probes=2)
    engine = LocalEngine(diagram)
    tuples = [
        connection(0, 1.0, "172.16.0.1", True),
        connection(1, 2.0, "172.16.0.1", True, bytes_=300),
        connection(2, 3.0, "10.0.0.5", False),
        connection(3, 4.0, "172.16.0.2", True),
    ]
    outputs = push_with_boundaries(engine, "s1", tuples, boundary_stime=20.0)
    alerts = [t for t in outputs["alerts"] if t.is_data]
    # Only the host with two suspicious probes clears the min_probes=2 bar.
    assert len(alerts) == 1
    alert = alerts[0]
    assert alert.value("src") == "172.16.0.1"
    assert alert.value("probes") == 2
    assert alert.value("bytes") == 400
    assert alert.is_stable


def test_intrusion_detection_tentative_input_gives_tentative_alerts():
    diagram = intrusion_detection_diagram("n1", ["s1"], "alerts", window=10.0)
    engine = LocalEngine(diagram)
    tuples = [
        connection(0, 1.0, "172.16.0.1", True),
        StreamTuple.tentative(
            tuple_id=1,
            stime=2.0,
            values={"seq": 1, "src": "172.16.0.1", "dst_port": 22, "bytes": 10, "suspicious": True},
        ),
    ]
    outputs = push_with_boundaries(engine, "s1", tuples, boundary_stime=20.0)
    alerts = [t for t in outputs["alerts"] if t.is_data]
    assert alerts
    assert all(t.is_tentative for t in alerts)


def test_intrusion_detection_factory_matches_builder_signature():
    factory = intrusion_detection_factory(window=7.5, min_probes=3)
    diagram = factory("node1", ["a", "b"], "out")
    assert diagram.output_streams == ["out"]
    per_source = diagram.operator("node1.per_source")
    assert per_source.window.size == 7.5


# --------------------------------------------------------------------------- sensor monitoring
def reading(tuple_id, stime, location, temperature, co2=450.0):
    return StreamTuple.insertion(
        tuple_id=tuple_id,
        stime=stime,
        values={"seq": tuple_id, "sensor": 0, "location": location, "temperature": temperature, "co2": co2},
    )


def test_sensor_alert_diagram_raises_alert_for_hot_zone_only():
    diagram = sensor_alert_diagram("n1", ["s1"], "alerts", window=10.0, temperature_threshold=30.0)
    engine = LocalEngine(diagram)
    tuples = [
        reading(0, 1.0, "zone-0", 21.0),
        reading(1, 2.0, "zone-0", 22.0),
        reading(2, 3.0, "zone-1", 35.0),
        reading(3, 4.0, "zone-1", 36.0),
    ]
    outputs = push_with_boundaries(engine, "s1", tuples, boundary_stime=20.0)
    alerts = [t for t in outputs["alerts"] if t.is_data]
    assert len(alerts) == 1
    alert = alerts[0]
    assert alert.value("location") == "zone-1"
    assert alert.value("avg_temperature") == pytest.approx(35.5)
    assert alert.value("readings") == 2


def test_sensor_alert_factory_threshold():
    factory = sensor_alert_factory(temperature_threshold=50.0)
    diagram = factory("node1", ["s1"], "out")
    engine = LocalEngine(diagram)
    outputs = push_with_boundaries(
        engine, "s1", [reading(0, 1.0, "zone-0", 40.0)], boundary_stime=20.0
    )
    assert [t for t in outputs["out"] if t.is_data] == []


# --------------------------------------------------------------------------- traffic rollups
def test_traffic_rollup_counts_per_window():
    diagram = traffic_rollup_diagram("n1", ["s1", "s2"], "rollup", window=5.0)
    engine = LocalEngine(diagram)
    stream1 = [connection(i, float(i), "10.0.0.1", False, bytes_=100) for i in range(4)]
    stream2 = [connection(i, float(i) + 0.5, "10.0.0.2", False, bytes_=50, stream_offset=100) for i in range(4)]
    engine.push("s1", stream1)
    engine.push("s2", stream2)
    outputs = {}
    for stream in ("s1", "s2"):
        for name, items in engine.push(
            stream, [StreamTuple.boundary(tuple_id=9_999, stime=10.0)]
        ).items():
            outputs.setdefault(name, []).extend(items)
    rollups = [t for t in outputs.get("rollup", []) if t.is_data]
    assert rollups
    first_window = rollups[0]
    assert first_window.value("connections") == 8
    assert first_window.value("bytes") == 4 * 100 + 4 * 50


def test_traffic_rollup_factory():
    diagram = traffic_rollup_factory(window=2.0)("node1", ["s1"], "out")
    assert diagram.operator("node1.rollup").window.size == 2.0


# --------------------------------------------------------------------------- windowed rollup
def test_windowed_rollup_stamps_gap_free_window_sequence():
    from repro.workloads.queries import windowed_rollup_diagram

    diagram = windowed_rollup_diagram("n1", ["s1"], "out", size=1.0, slide=0.25)
    engine = LocalEngine(diagram)
    tuples = [
        StreamTuple.insertion(i, i * 0.1, {"seq": i, "value": float(i)}) for i in range(40)
    ]
    out = push_with_boundaries(engine, "s1", tuples, boundary_stime=10.0)["out"]
    data = [t for t in out if t.is_data]
    assert data, "rollup emitted nothing"
    seqs = [t.values["seq"] for t in data]
    assert seqs == sorted(seqs)
    assert seqs == list(range(min(seqs), max(seqs) + 1))
    # A full window [0.75, 1.75) holds 10 tuples at 0.1 s spacing.
    full = [t for t in data if t.values["n"] == 10]
    assert full
    checked = full[0]
    assert checked.values["hi"] - checked.values["lo"] == 9.0


def test_windowed_rollup_matches_naive_recompute():
    from repro.workloads.queries import windowed_rollup_diagram

    diagram = windowed_rollup_diagram("n1", ["s1"], "out", size=1.0, slide=0.25)
    engine = LocalEngine(diagram)
    tuples = [
        StreamTuple.insertion(i, i * 0.07, {"seq": i, "value": float(i)}) for i in range(60)
    ]
    out = push_with_boundaries(engine, "s1", tuples, boundary_stime=20.0)["out"]
    rollup = diagram.operator("n1.rollup")
    expected = naive_recompute(
        rollup.window,
        [(spec.name, spec.function_name, spec.attribute) for spec in rollup.specs],
        tuples,
        watermark=20.0,
    )
    assert expected
    for _stime, _type, values in expected:
        values["seq"] = round(values["window_start"] / 0.25)
    assert [(t.stime, t.tuple_type, t.values) for t in out if t.is_data] == expected
