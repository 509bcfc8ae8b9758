"""Borealis-like stream processing engine substrate.

This subpackage implements the SPE the paper's DPC protocol runs on: the
tuple data model extended with tentative/boundary/undo tuples, the
fundamental operators (Filter, Map, Aggregate, Join, Union), the serializing
operators DPC introduces (SUnion, SJoin, SOutput), query diagrams, and a
deterministic local execution engine with fragment-level checkpoint/restore.
"""

from .tuples import StreamTuple, TupleType
from .schema import Schema, Field, ANY_SCHEMA
from .streams import StreamWriter, StreamLog, apply_undo
from .windows import WindowSpec, PaneAssignment
from .accumulators import Accumulator
from .checkpoint import DiagramCheckpoint, OperatorCheckpoint
from .query_diagram import QueryDiagram, linear_diagram, Connection, InputBinding, OutputBinding
from .engine import LocalEngine
from .operators import (
    Operator,
    StatelessOperator,
    Filter,
    Map,
    Union,
    Aggregate,
    AggregateSpec,
    Join,
    SUnion,
    SJoin,
    SOutput,
)

__all__ = [
    "StreamTuple",
    "TupleType",
    "Schema",
    "Field",
    "ANY_SCHEMA",
    "StreamWriter",
    "StreamLog",
    "apply_undo",
    "WindowSpec",
    "PaneAssignment",
    "Accumulator",
    "DiagramCheckpoint",
    "OperatorCheckpoint",
    "QueryDiagram",
    "linear_diagram",
    "Connection",
    "InputBinding",
    "OutputBinding",
    "LocalEngine",
    "Operator",
    "StatelessOperator",
    "Filter",
    "Map",
    "Union",
    "Aggregate",
    "AggregateSpec",
    "Join",
    "SUnion",
    "SJoin",
    "SOutput",
]
