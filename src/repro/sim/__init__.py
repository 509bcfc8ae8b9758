"""Discrete-event distributed substrate (simulator, network, sources, clients)."""

from .events import Event
from .event_loop import Simulator
from .network import Network, Message, NetworkStats
from .failures import FailureInjector, FailureRecord, FailureType
from .sources import DataSource, sequential_payload
from .client import ClientApplication
from .cluster import Cluster, merge_diagram

__all__ = [
    "Event",
    "Simulator",
    "Network",
    "Message",
    "NetworkStats",
    "FailureInjector",
    "FailureRecord",
    "FailureType",
    "DataSource",
    "sequential_payload",
    "ClientApplication",
    "Cluster",
    "merge_diagram",
]
