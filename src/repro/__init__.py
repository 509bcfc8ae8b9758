"""Reproduction of "Fault-Tolerance in the Borealis Distributed Stream Processing System".

The package implements four layers (see DESIGN.md):

* :mod:`repro.spe` -- a Borealis-like stream processing engine with the
  DPC-extended data model and operators;
* :mod:`repro.sim` -- a deterministic discrete-event substrate standing in for
  the paper's physical cluster (network, failures, sources, clients);
* :mod:`repro.core` -- DPC itself: the state machine, consistency manager,
  upstream switching, checkpoint/redo reconciliation, and delay policies;
* :mod:`repro.runtime` -- the scenario layer: declarative
  :class:`~repro.runtime.ScenarioSpec` descriptions compiled into runnable
  :class:`~repro.runtime.SimulationRuntime` deployments.

Quick start::

    from repro import ScenarioSpec

    spec = ScenarioSpec.single_node(aggregate_rate=150.0).with_failure(
        "disconnect", start=5.0, duration=10.0
    )
    runtime = spec.run()
    print(runtime.client.summary())
"""

from .config import (
    DelayAssignment,
    DelayPolicy,
    DPCConfig,
    ProcessingPolicy,
    SimulationConfig,
)
from .errors import (
    CheckpointError,
    ConfigurationError,
    DiagramError,
    NetworkError,
    OperatorError,
    ProtocolError,
    ReproError,
    SchemaError,
    SimulationError,
    StreamError,
)
# Note: repro.sim must be imported before repro.core -- the core package's
# modules import the simulator primitives, while repro.sim.client imports the
# ConsistencyManager; loading sim first keeps the import graph acyclic.
from .sharding import (
    RebalancePlan,
    ShardAssignment,
    ShardMove,
    ShardPlanner,
    ShardSpec,
    stable_key_hash,
)
from .topology import NodeSpec, Topology, modulo_partition
from .sim import (
    ClientApplication,
    Cluster,
    DataSource,
    FailureInjector,
    Network,
    Simulator,
)
from .core import NodeState, ProcessingNode, choose_upstream
from .spe import (
    Aggregate,
    Filter,
    Join,
    LocalEngine,
    Map,
    QueryDiagram,
    Schema,
    SJoin,
    SOutput,
    StreamTuple,
    SUnion,
    TupleType,
    Union,
    WindowSpec,
)
from .workloads import FailureSpec
from .runtime import ScenarioSpec, SimulationRuntime, run_scenario
from .deploy import Deployment, Placement, SubscriptionFilter
from . import deploy

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # configuration
    "DelayAssignment",
    "DelayPolicy",
    "DPCConfig",
    "ProcessingPolicy",
    "SimulationConfig",
    # errors
    "ReproError",
    "SchemaError",
    "DiagramError",
    "OperatorError",
    "StreamError",
    "CheckpointError",
    "SimulationError",
    "NetworkError",
    "ConfigurationError",
    "ProtocolError",
    # DPC core
    "NodeState",
    "ProcessingNode",
    "choose_upstream",
    # deployment topology
    "NodeSpec",
    "Topology",
    "modulo_partition",
    # sharding
    "RebalancePlan",
    "ShardAssignment",
    "ShardMove",
    "ShardPlanner",
    "ShardSpec",
    "stable_key_hash",
    # simulation substrate
    "ClientApplication",
    "Cluster",
    "DataSource",
    "FailureInjector",
    "Network",
    "Simulator",
    # SPE
    "StreamTuple",
    "TupleType",
    "Schema",
    "WindowSpec",
    "QueryDiagram",
    "LocalEngine",
    "Filter",
    "Map",
    "Union",
    "Aggregate",
    "Join",
    "SUnion",
    "SJoin",
    "SOutput",
    # workloads
    "FailureSpec",
    # runtime layer
    "ScenarioSpec",
    "SimulationRuntime",
    "run_scenario",
    # deployment control plane
    "deploy",
    "Deployment",
    "Placement",
    "SubscriptionFilter",
]
