"""Borealis operators extended for DPC."""

from .base import Operator, StatelessOperator, chain_process
from .filter import Filter
from .map import Map
from .union import Union
from .aggregate import Aggregate, AggregateSpec
from .join import Join
from .sunion import SUnion, bucket_index
from .sjoin import SJoin
from .soutput import SOutput

__all__ = [
    "Operator",
    "StatelessOperator",
    "chain_process",
    "Filter",
    "Map",
    "Union",
    "Aggregate",
    "AggregateSpec",
    "Join",
    "SUnion",
    "bucket_index",
    "SJoin",
    "SOutput",
]
