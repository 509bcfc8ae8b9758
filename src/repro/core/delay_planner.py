"""Delay assignment planning (Section 6.3 of the paper).

An application specifies one end-to-end bound ``X`` on incremental processing
latency.  DPC must divide that budget among the SUnions of the deployment.
The paper compares two static strategies and sketches a third, dynamic one:

* **UNIFORM** -- split ``X`` evenly across the nodes of a chain.  Simple, but
  it wastes most of the budget: when a failure occurs all SUnions downstream
  of it suspend *simultaneously* (they all stop receiving boundaries at the
  same time), so the initial suspensions do not add up.
* **FULL** -- give every SUnion (almost) the whole budget, keeping a small
  allowance for queuing delays.  This is the paper's recommendation: it masks
  failures up to ``X - allowance`` without producing a single tentative tuple
  while still meeting the bound.
* **ACCUMULATED (dynamic)** -- the paper's suggested extension: encode the
  delay already accumulated by a tuple inside the tuple, and let each SUnion
  spend only the remaining budget.  This handles diagrams where different
  paths reach an operator with different accumulated delays (Figure 21),
  which no static per-SUnion assignment can do without risking drops.

:class:`DelayPlanner` produces per-node delay budgets for all three strategies
over a deployment :class:`~repro.topology.Topology`, and per-path feasibility
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..config import DelayAssignment
from ..errors import ConfigurationError
from ..topology import Topology


@dataclass(frozen=True)
class DelayPlan:
    """Per-node delay budgets plus the diagnostics behind them."""

    strategy: DelayAssignment
    #: The application's end-to-end bound X (seconds).
    total_budget: float
    #: Delay budget assigned to the SUnions of each node, by node name.
    per_node: Mapping[str, float]
    #: Longest failure fully masked by the initial suspension (seconds).
    masked_failure: float
    #: Worst-case end-to-end added latency if every node spent its budget
    #: sequentially (the pessimistic bound that the UNIFORM strategy guards
    #: against and that the FULL strategy accepts as a transient).
    worst_case_sequential: float
    notes: tuple = field(default_factory=tuple)

    def budget_for(self, node: str) -> float:
        try:
            return self.per_node[node]
        except KeyError as exc:
            raise ConfigurationError(f"delay plan has no node {node!r}") from exc


@dataclass(frozen=True)
class PathDiagnostic:
    """Feasibility of one source-to-client path under a static assignment."""

    path: tuple
    accumulated_delay: float
    within_budget: bool


class DelayPlanner:
    """Plans how the end-to-end budget ``X`` is divided among processing nodes.

    The planner reasons about the *deployment* graph (which node feeds
    which), not the operator graph inside each node: the paper assigns delays
    per SUnion, and every SUnion of a node receives the node's budget.  The
    graph is ``topology`` itself; replication is irrelevant here (every
    replica of a node receives the node's budget).

    Parameters
    ----------
    topology:
        The deployment whose nodes receive budgets.
    total_budget:
        The application bound ``X`` in seconds.
    queuing_allowance:
        Subtracted from the budget by the FULL strategy (the paper uses
        1.5 s of an 8 s budget, i.e. assigns 6.5 s); an allowance of ``X``
        or more leaves FULL nothing to assign (D = 0).
    """

    def __init__(
        self, topology: Topology, *, total_budget: float, queuing_allowance: float = 1.5
    ) -> None:
        if total_budget <= 0:
            raise ConfigurationError(f"total_budget must be positive, got {total_budget}")
        if queuing_allowance < 0:
            raise ConfigurationError(f"queuing_allowance cannot be negative, got {queuing_allowance}")
        self.topology = topology
        self.total_budget = total_budget
        self.queuing_allowance = queuing_allowance

    # ------------------------------------------------------------------ planning
    def plan(self, strategy: DelayAssignment) -> DelayPlan:
        """Produce per-node budgets for ``strategy``."""
        if strategy is DelayAssignment.UNIFORM:
            return self._plan_uniform()
        if strategy is DelayAssignment.FULL:
            return self._plan_full()
        if strategy is DelayAssignment.ACCUMULATED:
            return self._plan_accumulated()
        raise ConfigurationError(f"unknown delay assignment strategy {strategy!r}")

    def _plan_uniform(self) -> DelayPlan:
        depth = self.topology.depth()
        per_node_value = self.total_budget / depth
        per_node = {name: per_node_value for name in self.topology.node_names}
        return DelayPlan(
            strategy=DelayAssignment.UNIFORM,
            total_budget=self.total_budget,
            per_node=per_node,
            masked_failure=per_node_value,
            worst_case_sequential=per_node_value * depth,
            notes=(
                f"budget split across the longest path of {depth} node(s); only failures "
                f"shorter than {per_node_value:g} s are masked without tentative output",
            ),
        )

    def _plan_full(self) -> DelayPlan:
        assigned = max(self.total_budget - self.queuing_allowance, 0.0)
        per_node = {name: assigned for name in self.topology.node_names}
        return DelayPlan(
            strategy=DelayAssignment.FULL,
            total_budget=self.total_budget,
            per_node=per_node,
            masked_failure=assigned,
            worst_case_sequential=assigned * self.topology.depth(),
            notes=(
                "every SUnion suspends simultaneously when a failure occurs, so the full "
                f"budget (minus a {self.queuing_allowance:g} s queuing allowance) can be "
                "assigned to each of them; failures up to that long are masked entirely",
            ),
        )

    def _plan_accumulated(self) -> DelayPlan:
        """Per-path budgets: each node spends what its input paths left of ``X``.

        Walk the deployment graph in topological order.  Each node inherits
        the accumulated delay of its most delayed upstream -- exactly what a
        runtime stamping delays into tuples would see at a Figure 21 join --
        and spends the remaining budget evenly over the longest path still
        ahead of it.  On a chain this reduces to the uniform ``X / depth``
        split; on unbalanced DAGs short branches receive the budget the
        static strategies strand.
        """
        topology = self.topology
        # Longest path from each node to a sink, inclusive of the node.
        togo: dict[str, int] = {}
        for name in reversed(topology.node_names):
            togo[name] = 1 + max(
                (togo[consumer.name] for consumer in topology.consumers_of(name)), default=0
            )
        accumulated: dict[str, float] = {}
        per_node: dict[str, float] = {}
        for spec in topology:
            inherited = max(
                (accumulated[upstream.name] for upstream in topology.upstream_nodes(spec)),
                default=0.0,
            )
            per_node[spec.name] = max(self.total_budget - inherited, 0.0) / togo[spec.name]
            accumulated[spec.name] = inherited + per_node[spec.name]
        return DelayPlan(
            strategy=DelayAssignment.ACCUMULATED,
            total_budget=self.total_budget,
            per_node=per_node,
            masked_failure=min(per_node.values()),
            worst_case_sequential=max(accumulated[spec.name] for spec in topology.sinks()),
            notes=(
                "each node spends the budget its most delayed input path has not already "
                "consumed, split over the longest remaining path; every path accumulates "
                f"at most the full {self.total_budget:g} s bound (Figure 21)",
            ),
        )

    # ------------------------------------------------------------------ diagnostics
    def diagnose(self, per_node: Mapping[str, float]) -> list[PathDiagnostic]:
        """Accumulated delay along every path under a static per-node assignment.

        This is the Figure 21 analysis: when paths of different lengths meet,
        a static assignment either under-uses the budget on short paths or
        overshoots it on long ones.  A path is flagged when its accumulated
        delay exceeds the budget (tuples arriving along it would have to be
        dropped or would break the bound if fully delayed).
        """
        diagnostics = []
        for path in self.topology.paths():
            accumulated = sum(per_node.get(node, 0.0) for node in path)
            diagnostics.append(
                PathDiagnostic(
                    path=path,
                    accumulated_delay=accumulated,
                    within_budget=accumulated <= self.total_budget + 1e-9,
                )
            )
        return diagnostics
