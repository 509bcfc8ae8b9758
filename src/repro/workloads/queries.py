"""Pre-built application query diagrams.

The paper motivates DPC with monitoring applications: network intrusion
detection and sensor-based environment monitoring (Section 1).  This module
provides ready-made query-diagram fragments for those applications, built
from the fundamental operators (Filter, Map, Aggregate, Join, Union) plus the
DPC operators (SUnion, SOutput), in the shape the cluster builder expects
(``diagram_factory(node_name, input_streams, output_stream)``).

They are used by the examples, by the application-level tests, and are handy
starting points for new workloads.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..spe.operators import Aggregate, Filter, Map, SOutput, SUnion
from ..spe.operators.aggregate import AggregateSpec
from ..spe.query_diagram import QueryDiagram
from ..spe.windows import WindowSpec

#: Signature the cluster builder expects for first-node fragments.
DiagramFactory = Callable[[str, Sequence[str], str], QueryDiagram]


# --------------------------------------------------------------------------- network monitoring
def intrusion_detection_diagram(
    name: str,
    input_streams: Sequence[str],
    output_stream: str,
    *,
    bucket_size: float = 0.1,
    window: float = 5.0,
    min_probes: int = 1,
) -> QueryDiagram:
    """Count suspicious connections per source host over sliding windows.

    The fragment merges the monitor streams deterministically (SUnion), keeps
    only the connections flagged suspicious, counts them per source host in
    tumbling windows of ``window`` seconds, and reports the hosts with at
    least ``min_probes`` probes -- the "potential attackers" alerts of the
    paper's network-monitoring scenario.
    """
    diagram = QueryDiagram(name=name)
    merge = SUnion(name=f"{name}.sunion", arity=len(input_streams), bucket_size=bucket_size)
    suspicious = Filter(name=f"{name}.suspicious", predicate=lambda v: bool(v.get("suspicious")))
    per_source = Aggregate(
        name=f"{name}.per_source",
        window=WindowSpec.tumbling(window),
        aggregates=[
            AggregateSpec("probes", "count"),
            AggregateSpec("bytes", "sum", "bytes"),
        ],
        group_by=("src",),
    )
    alerts = Filter(
        name=f"{name}.alerts", predicate=lambda v: int(v.get("probes", 0)) >= min_probes
    )
    soutput = SOutput(name=f"{name}.soutput")
    for operator in (merge, suspicious, per_source, alerts, soutput):
        diagram.add_operator(operator)
    diagram.connect(merge, suspicious)
    diagram.connect(suspicious, per_source)
    diagram.connect(per_source, alerts)
    diagram.connect(alerts, soutput)
    for port, stream in enumerate(input_streams):
        diagram.bind_input(stream, merge, port)
    diagram.bind_output(output_stream, soutput)
    diagram.validate()
    return diagram


def intrusion_detection_factory(
    *, bucket_size: float = 0.1, window: float = 5.0, min_probes: int = 1
) -> DiagramFactory:
    """A cluster-builder factory for :func:`intrusion_detection_diagram`."""

    def factory(node_name: str, input_streams: Sequence[str], output_stream: str) -> QueryDiagram:
        return intrusion_detection_diagram(
            node_name,
            input_streams,
            output_stream,
            bucket_size=bucket_size,
            window=window,
            min_probes=min_probes,
        )

    return factory


# --------------------------------------------------------------------------- sensor monitoring
def sensor_alert_diagram(
    name: str,
    input_streams: Sequence[str],
    output_stream: str,
    *,
    bucket_size: float = 0.1,
    window: float = 5.0,
    temperature_threshold: float = 30.0,
) -> QueryDiagram:
    """Average readings per zone and raise alerts when a zone runs hot.

    The fragment merges the sensor streams, derives a simple discomfort index
    (Map), averages temperature and CO2 per zone over tumbling windows
    (Aggregate), and keeps the windows whose average temperature exceeds
    ``temperature_threshold`` (Filter) -- the tentative alerts the paper's
    environment-monitoring scenario dispatches technicians for.
    """

    def discomfort(values):
        enriched = dict(values)
        enriched["discomfort"] = round(
            float(values.get("temperature", 0.0)) + 0.01 * float(values.get("co2", 0.0)), 3
        )
        return enriched

    diagram = QueryDiagram(name=name)
    merge = SUnion(name=f"{name}.sunion", arity=len(input_streams), bucket_size=bucket_size)
    enrich = Map(name=f"{name}.enrich", transform=discomfort)
    per_zone = Aggregate(
        name=f"{name}.per_zone",
        window=WindowSpec.tumbling(window),
        aggregates=[
            AggregateSpec("avg_temperature", "avg", "temperature"),
            AggregateSpec("max_temperature", "max", "temperature"),
            AggregateSpec("avg_co2", "avg", "co2"),
            AggregateSpec("readings", "count"),
        ],
        group_by=("location",),
    )
    hot = Filter(
        name=f"{name}.hot",
        predicate=lambda v: float(v.get("max_temperature", 0.0)) >= temperature_threshold,
    )
    soutput = SOutput(name=f"{name}.soutput")
    for operator in (merge, enrich, per_zone, hot, soutput):
        diagram.add_operator(operator)
    diagram.connect(merge, enrich)
    diagram.connect(enrich, per_zone)
    diagram.connect(per_zone, hot)
    diagram.connect(hot, soutput)
    for port, stream in enumerate(input_streams):
        diagram.bind_input(stream, merge, port)
    diagram.bind_output(output_stream, soutput)
    diagram.validate()
    return diagram


def sensor_alert_factory(
    *, bucket_size: float = 0.1, window: float = 5.0, temperature_threshold: float = 30.0
) -> DiagramFactory:
    """A cluster-builder factory for :func:`sensor_alert_diagram`."""

    def factory(node_name: str, input_streams: Sequence[str], output_stream: str) -> QueryDiagram:
        return sensor_alert_diagram(
            node_name,
            input_streams,
            output_stream,
            bucket_size=bucket_size,
            window=window,
            temperature_threshold=temperature_threshold,
        )

    return factory


# --------------------------------------------------------------------------- traffic rollups
def traffic_rollup_diagram(
    name: str,
    input_streams: Sequence[str],
    output_stream: str,
    *,
    bucket_size: float = 0.1,
    window: float = 1.0,
) -> QueryDiagram:
    """Total observed traffic per window across all monitors.

    A compact fragment (SUnion -> Aggregate -> SOutput) whose output rate is
    low and perfectly regular, which makes it convenient for tests that need
    windowed results flowing through the full distributed machinery.
    """
    diagram = QueryDiagram(name=name)
    merge = SUnion(name=f"{name}.sunion", arity=len(input_streams), bucket_size=bucket_size)
    rollup = Aggregate(
        name=f"{name}.rollup",
        window=WindowSpec.tumbling(window),
        aggregates=[
            AggregateSpec("connections", "count"),
            AggregateSpec("bytes", "sum", "bytes"),
        ],
    )
    soutput = SOutput(name=f"{name}.soutput")
    for operator in (merge, rollup, soutput):
        diagram.add_operator(operator)
    diagram.connect(merge, rollup)
    diagram.connect(rollup, soutput)
    for port, stream in enumerate(input_streams):
        diagram.bind_input(stream, merge, port)
    diagram.bind_output(output_stream, soutput)
    diagram.validate()
    return diagram


def traffic_rollup_factory(*, bucket_size: float = 0.1, window: float = 1.0) -> DiagramFactory:
    """A cluster-builder factory for :func:`traffic_rollup_diagram`."""

    def factory(node_name: str, input_streams: Sequence[str], output_stream: str) -> QueryDiagram:
        return traffic_rollup_diagram(
            node_name, input_streams, output_stream, bucket_size=bucket_size, window=window
        )

    return factory


# --------------------------------------------------------------------------- windowed rollups
def windowed_rollup_diagram(
    name: str,
    input_streams: Sequence[str],
    output_stream: str,
    *,
    bucket_size: float = 0.1,
    size: float = 1.0,
    slide: float | None = None,
) -> QueryDiagram:
    """Sliding-window rollup over ``value`` with a ledger-friendly output.

    The windowed-aggregation exerciser: SUnion merges the input streams, a
    sliding (or, with ``slide`` omitted, tumbling) Aggregate computes
    count/sum/min/max of the standard workload's ``value`` attribute, and a
    Map stamps each result with ``seq = round(window_start / slide)``.  The
    window index is monotone and gap-free while sources keep producing, so
    the client-side consistency ledger can verify the output stream the same
    way it verifies the plain forwarding scenarios.
    """
    effective_slide = slide if slide is not None else size
    diagram = QueryDiagram(name=name)
    merge = SUnion(name=f"{name}.sunion", arity=len(input_streams), bucket_size=bucket_size)
    rollup = Aggregate(
        name=f"{name}.rollup",
        window=WindowSpec.sliding(size=size, slide=effective_slide),
        aggregates=[
            AggregateSpec("n", "count"),
            AggregateSpec("total", "sum", "value"),
            AggregateSpec("lo", "min", "value"),
            AggregateSpec("hi", "max", "value"),
        ],
    )

    def stamp(values):
        stamped = dict(values)
        stamped["seq"] = int(round(values["window_start"] / effective_slide))
        return stamped

    number = Map(name=f"{name}.number", transform=stamp)
    soutput = SOutput(name=f"{name}.soutput")
    for operator in (merge, rollup, number, soutput):
        diagram.add_operator(operator)
    diagram.connect(merge, rollup)
    diagram.connect(rollup, number)
    diagram.connect(number, soutput)
    for port, stream in enumerate(input_streams):
        diagram.bind_input(stream, merge, port)
    diagram.bind_output(output_stream, soutput)
    diagram.validate()
    return diagram


def windowed_rollup_factory(
    *,
    bucket_size: float = 0.1,
    size: float = 1.0,
    slide: float | None = None,
) -> DiagramFactory:
    """A cluster-builder factory for :func:`windowed_rollup_diagram`."""

    def factory(node_name: str, input_streams: Sequence[str], output_stream: str) -> QueryDiagram:
        return windowed_rollup_diagram(
            node_name,
            input_streams,
            output_stream,
            bucket_size=bucket_size,
            size=size,
            slide=slide,
        )

    return factory
