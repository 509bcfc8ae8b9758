"""Scenario layer: declarative specs compiled once and run on either backend.

This package is the single entry point for describing and running a DPC
scenario (see DESIGN.md, "Runtime layer"):

* :class:`ScenarioSpec` -- a declarative description of topology, replicas,
  sources, DPC policy, failure schedule, seed, and run timing; ``run()``
  simulates it, ``run_live()`` forks it, ``oracle()`` is the simulator run a
  live run's stable ledger must equal (compare :func:`stable_ledger_rows`);
* :class:`SimulationRuntime` -- the compiled form, owning the simulator,
  cluster, failure injection, and metrics of one run;
* :func:`run_scenario` -- compile-and-run convenience.

Every experiment module, benchmark, example, and CLI command builds its
deployments through this layer rather than assembling clusters by hand.
"""

from ..sharding import RebalancePlan, ShardAssignment, ShardPlanner, ShardSpec
from ..topology import NodeSpec, Topology, modulo_partition
from ..metrics.consistency import client_is_eventually_consistent, stable_ledger_rows
from ..workloads.scenarios import FailureSpec
from .runtime import SimulationRuntime, run_scenario
from .spec import ScenarioSpec

__all__ = [
    "FailureSpec",
    "NodeSpec",
    "RebalancePlan",
    "ScenarioSpec",
    "ShardAssignment",
    "ShardPlanner",
    "ShardSpec",
    "SimulationRuntime",
    "Topology",
    "client_is_eventually_consistent",
    "modulo_partition",
    "run_scenario",
    "stable_ledger_rows",
]
