"""Serialization-overhead experiments: Tables IV and V of the paper.

A single data source feeds a single processing node; the node's fragment is
either ``SUnion -> SOutput`` (the fault-tolerant configuration) or a plain
``Union -> SOutput`` with no boundary tuples (the baseline, the paper's
"0 ms" column).  The client records the latency of every tuple; the tables
report the minimum, maximum, average, and standard deviation as functions of
the SUnion bucket size (Table IV) and of the boundary interval (Table V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..config import DPCConfig, SimulationConfig
from ..metrics.latency import LatencySummary
from ..runtime import ScenarioSpec
from ..spe.operators import SOutput, Union
from ..spe.query_diagram import QueryDiagram


@dataclass(frozen=True)
class OverheadRow:
    """One column of Table IV / V (latencies in milliseconds)."""

    parameter_ms: float
    latency: LatencySummary


def _union_diagram_factory(node_name: str, input_streams: Sequence[str], output_stream: str) -> QueryDiagram:
    """Baseline fragment: standard Union (arrival order, no serialization)."""
    diagram = QueryDiagram(name=node_name)
    union = Union(name=f"{node_name}.union", arity=len(input_streams))
    soutput = SOutput(name=f"{node_name}.soutput")
    diagram.add_operator(union)
    diagram.add_operator(soutput)
    diagram.connect(union, soutput)
    for port, stream in enumerate(input_streams):
        diagram.bind_input(stream, union, port)
    diagram.bind_output(output_stream, soutput)
    diagram.validate()
    return diagram


def serialization_overhead(
    *,
    bucket_size: float,
    boundary_interval: float,
    rate: float = 100.0,
    duration: float = 30.0,
    use_sunion: bool = True,
) -> OverheadRow:
    """Measure per-tuple latency for one (bucket size, boundary interval) point.

    With ``use_sunion=False`` the fragment uses a plain Union and the
    measured latency is the transport/batching floor (the paper's column with
    a standard Union and no boundary tuples).
    """
    config = DPCConfig(
        bucket_size=max(bucket_size, 1e-3),
        boundary_interval=max(boundary_interval, 1e-3),
        max_incremental_latency=10.0,
    )
    sim_config = SimulationConfig(batch_interval=0.01, network_latency=0.001, processing_latency=0.001)
    spec = ScenarioSpec.single_node(
        name="serialization-overhead",
        replicated=False,
        n_input_streams=1,
        aggregate_rate=rate,
        join_state_size=None,
        config=config,
        sim_config=sim_config,
        diagram_factory=None if use_sunion else _union_diagram_factory,
        duration=duration,
    )
    runtime = spec.run()
    latencies = runtime.client.metrics.latency.latencies(new_only=False)
    parameter = bucket_size if use_sunion else 0.0
    return OverheadRow(parameter_ms=parameter * 1000.0, latency=LatencySummary.from_values(latencies))


def _sweep(
    vary: str, values: Sequence[float], baseline: dict, fixed: dict, include_baseline: bool, **run
) -> list[OverheadRow]:
    """The plain-Union ``baseline`` row, then one SUnion row per value of parameter ``vary``."""
    rows = [serialization_overhead(**baseline, **run, use_sunion=False)] if include_baseline else []
    for value in values:
        row = serialization_overhead(**fixed, **{vary: value}, **run)
        rows.append(OverheadRow(parameter_ms=value * 1000.0, latency=row.latency))
    return rows


def table4(
    bucket_sizes: Sequence[float] = (0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5),
    *,
    boundary_interval: float = 0.01,
    rate: float = 100.0,
    duration: float = 30.0,
    include_baseline: bool = True,
) -> list[OverheadRow]:
    """Table IV: latency overhead vs bucket size (boundary interval = 10 ms)."""
    fixed = {"boundary_interval": boundary_interval}
    return _sweep("bucket_size", bucket_sizes, {"bucket_size": 0.0, **fixed}, fixed,
                  include_baseline, rate=rate, duration=duration)


def table5(
    boundary_intervals: Sequence[float] = (0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5),
    *,
    bucket_size: float = 0.01,
    rate: float = 100.0,
    duration: float = 30.0,
    include_baseline: bool = True,
) -> list[OverheadRow]:
    """Table V: latency overhead vs boundary interval (bucket size = 10 ms)."""
    fixed = {"bucket_size": bucket_size}
    return _sweep("boundary_interval", boundary_intervals, {"boundary_interval": 0.0, **fixed},
                  fixed, include_baseline, rate=rate, duration=duration)
