"""Tests for delay-assignment planning over a deployment topology."""

import pytest

from repro.config import DelayAssignment, DPCConfig
from repro.core.delay_planner import DelayPlanner
from repro.deploy.wiring import node_delay_budgets
from repro.errors import ConfigurationError
from repro.topology import NodeSpec, Topology


# --------------------------------------------------------------------------- planner construction
def test_planner_rejects_bad_budgets():
    with pytest.raises(ConfigurationError):
        DelayPlanner(Topology.chain(1), total_budget=0.0)
    with pytest.raises(ConfigurationError):
        DelayPlanner(Topology.chain(1), total_budget=5.0, queuing_allowance=-1.0)


def test_allowance_at_or_above_the_budget_leaves_full_nothing_to_assign():
    for allowance in (5.0, 7.0):
        planner = DelayPlanner(Topology.chain(2), total_budget=5.0, queuing_allowance=allowance)
        full = planner.plan(DelayAssignment.FULL)
        assert full.per_node == {"node1": 0.0, "node2": 0.0}
        assert full.masked_failure == 0.0
        # The strategies that ignore the allowance still plan normally.
        assert planner.plan(DelayAssignment.UNIFORM).per_node == {"node1": 2.5, "node2": 2.5}


# --------------------------------------------------------------------------- static strategies
def test_uniform_plan_divides_budget_evenly():
    planner = DelayPlanner(Topology.chain(4), total_budget=8.0)
    plan = planner.plan(DelayAssignment.UNIFORM)
    assert plan.per_node == {f"node{i}": 2.0 for i in range(1, 5)}
    assert plan.masked_failure == pytest.approx(2.0)
    assert plan.worst_case_sequential == pytest.approx(8.0)
    assert plan.budget_for("node3") == pytest.approx(2.0)


def test_full_plan_assigns_whole_budget_minus_allowance():
    planner = DelayPlanner(Topology.chain(4), total_budget=8.0, queuing_allowance=1.5)
    plan = planner.plan(DelayAssignment.FULL)
    # The paper assigns 6.5 s of the 8 s budget to every SUnion (Section 6.3).
    assert all(delay == pytest.approx(6.5) for delay in plan.per_node.values())
    assert plan.masked_failure == pytest.approx(6.5)
    assert plan.budget_for("node1") == pytest.approx(6.5)


def test_full_plan_masks_longer_failures_than_uniform():
    planner = DelayPlanner(Topology.chain(4), total_budget=8.0)
    uniform = planner.plan(DelayAssignment.UNIFORM)
    full = planner.plan(DelayAssignment.FULL)
    assert full.masked_failure > uniform.masked_failure


def test_budget_for_unknown_node_raises():
    plan = DelayPlanner(Topology.chain(2), total_budget=4.0).plan(DelayAssignment.UNIFORM)
    with pytest.raises(ConfigurationError):
        plan.budget_for("node99")


def test_single_node_chain():
    plan = DelayPlanner(Topology.chain(1), total_budget=3.0).plan(DelayAssignment.UNIFORM)
    assert plan.per_node == {"node1": 3.0}
    assert plan.masked_failure == pytest.approx(3.0)


# --------------------------------------------------------------------------- path diagnostics
def figure21_planner(total_budget: float = 6.0) -> DelayPlanner:
    """The Figure 21 situation: paths of different lengths meet downstream."""
    topology = Topology(
        [
            NodeSpec("src_a", ("s1",)),
            NodeSpec("src_b", ("s2",)),
            NodeSpec("middle", ("src_a",)),
            NodeSpec("sink", ("middle", "src_b")),
        ],
        name="figure21",
    )
    return DelayPlanner(topology, total_budget=total_budget)


def test_diagnose_reports_accumulated_delay_per_path():
    planner = figure21_planner()
    per_node = {"src_a": 2.0, "src_b": 2.0, "middle": 2.0, "sink": 2.0}
    diagnostics = {d.path: d for d in planner.diagnose(per_node)}
    assert diagnostics[("src_a", "middle", "sink")].accumulated_delay == pytest.approx(6.0)
    assert diagnostics[("src_b", "sink")].accumulated_delay == pytest.approx(4.0)
    assert all(d.within_budget for d in diagnostics.values())


def test_diagnose_flags_paths_exceeding_budget():
    planner = figure21_planner()
    per_node = {"src_a": 3.0, "src_b": 3.0, "middle": 3.0, "sink": 3.0}
    long_path = next(d for d in planner.diagnose(per_node) if len(d.path) == 3)
    assert not long_path.within_budget


def test_diagnose_shows_mismatched_path_totals():
    planner = figure21_planner()

    def totals(per_node):
        return {round(d.accumulated_delay, 9) for d in planner.diagnose(per_node)}

    assert len(totals({"src_a": 2.0, "src_b": 2.0, "middle": 2.0, "sink": 2.0})) == 2
    # Assignments can be balanced by hand so every path accumulates the same delay.
    assert totals({"src_a": 1.0, "src_b": 3.0, "middle": 2.0, "sink": 3.0}) == {6.0}


def test_chain_paths_all_accumulate_the_budget_under_uniform():
    planner = DelayPlanner(Topology.chain(4), total_budget=8.0)
    plan = planner.plan(DelayAssignment.UNIFORM)
    assert [d.accumulated_delay for d in planner.diagnose(plan.per_node)] == [8.0]


# --------------------------------------------------------------------------- topology-backed planning
def test_plan_covers_the_topology_nodes_in_order():
    topology = Topology.diamond()
    planner = DelayPlanner(topology, total_budget=9.0)
    for strategy in DelayAssignment:
        assert list(planner.plan(strategy).per_node) == topology.node_names
    assert planner.plan(DelayAssignment.UNIFORM).masked_failure == pytest.approx(3.0)


def test_uniform_plan_on_branching_topology_respects_longest_path():
    """D must be respected along the *longest* path, and short branches must
    not be over-assigned."""
    # Unbalanced diamond: ingest -> a -> b -> sink (4 nodes) vs
    # ingest -> short -> sink (3 nodes).
    topo = Topology(
        [
            NodeSpec("ingest", ("s1",)),
            NodeSpec("a", ("ingest",)),
            NodeSpec("b", ("a",)),
            NodeSpec("short", ("ingest",)),
            NodeSpec("sink", ("b", "short")),
        ],
        name="unbalanced",
    )
    planner = DelayPlanner(topo, total_budget=8.0)
    plan = planner.plan(DelayAssignment.UNIFORM)
    # Split by the longest path (4 nodes), not the node count (5) or the
    # short path (3).
    assert all(delay == pytest.approx(2.0) for delay in plan.per_node.values())
    diagnostics = {d.path: d for d in planner.diagnose(plan.per_node)}
    long_path = ("ingest", "a", "b", "sink")
    short_path = ("ingest", "short", "sink")
    # The total budget is met exactly along the longest path...
    assert diagnostics[long_path].accumulated_delay == pytest.approx(8.0)
    assert diagnostics[long_path].within_budget
    # ...and the short branch under-uses it instead of overshooting.
    assert diagnostics[short_path].accumulated_delay == pytest.approx(6.0)
    assert diagnostics[short_path].within_budget
    # No path may exceed the budget under the uniform plan.
    assert all(d.within_budget for d in planner.diagnose(plan.per_node))


def test_uniform_plan_never_over_assigns_any_path():
    for topo in (Topology.chain(4), Topology.diamond(), Topology.fanin(3, 2)):
        planner = DelayPlanner(topo, total_budget=6.0)
        plan = planner.plan(DelayAssignment.UNIFORM)
        assert all(d.within_budget for d in planner.diagnose(plan.per_node)), topo.name


def test_full_plan_on_topology_matches_chain_semantics():
    planner = DelayPlanner(Topology.diamond(), total_budget=8.0, queuing_allowance=1.5)
    plan = planner.plan(DelayAssignment.FULL)
    assert all(delay == pytest.approx(6.5) for delay in plan.per_node.values())


def test_plans_are_polynomial_on_stacked_diamonds():
    # 15 stacked diamonds = 2^15 entry-to-sink paths; planning must not
    # enumerate them.
    nodes = [NodeSpec("d0", ("s1",))]
    for k in range(15):
        nodes.append(NodeSpec(f"l{k}", (f"d{k}",)))
        nodes.append(NodeSpec(f"r{k}", (f"d{k}",)))
        nodes.append(NodeSpec(f"d{k + 1}", (f"l{k}", f"r{k}")))
    planner = DelayPlanner(Topology(nodes, name="stacked"), total_budget=8.0)
    plan = planner.plan(DelayAssignment.UNIFORM)
    assert plan.masked_failure == pytest.approx(8.0 / 31)
    accumulated = planner.plan(DelayAssignment.ACCUMULATED)
    assert accumulated.worst_case_sequential == pytest.approx(8.0)


# --------------------------------------------------------------------------- accumulated strategy
def test_accumulated_reduces_to_uniform_on_chains():
    planner = DelayPlanner(Topology.chain(4), total_budget=8.0)
    plan = planner.plan(DelayAssignment.ACCUMULATED)
    assert plan.per_node == {f"node{i}": pytest.approx(2.0) for i in (1, 2, 3, 4)}
    assert plan.worst_case_sequential == pytest.approx(8.0)


def test_accumulated_gives_short_branches_the_stranded_budget():
    # Figure 21 shape: a long branch (entry -> relay -> merge) and a short
    # branch (entry -> merge).  UNIFORM assigns X/3 everywhere, so the short
    # path accumulates only 2X/3; ACCUMULATED lets the short entry spend more.
    topology = Topology(
        [
            NodeSpec("long-entry", ("s1",)),
            NodeSpec("short-entry", ("s2",)),
            NodeSpec("relay", ("long-entry",)),
            NodeSpec("merge", ("relay", "short-entry")),
        ],
        name="figure21",
    )
    planner = DelayPlanner(topology, total_budget=9.0)
    plan = planner.plan(DelayAssignment.ACCUMULATED)
    assert plan.per_node["long-entry"] == pytest.approx(3.0)
    assert plan.per_node["relay"] == pytest.approx(3.0)
    # The short entry has only 2 nodes ahead of it on its path: X/2, not X/3.
    assert plan.per_node["short-entry"] == pytest.approx(4.5)
    # The merge inherits the *most delayed* input (6.0 from the long branch).
    assert plan.per_node["merge"] == pytest.approx(3.0)
    for diagnostic in planner.diagnose(plan.per_node):
        assert diagnostic.within_budget
    uniform = planner.plan(DelayAssignment.UNIFORM)
    assert {round(d.accumulated_delay, 9) for d in planner.diagnose(uniform.per_node)} == {6.0, 9.0}


def test_accumulated_never_exceeds_the_budget_on_any_path():
    planner = DelayPlanner(Topology.diamond(), total_budget=8.0)
    plan = planner.plan(DelayAssignment.ACCUMULATED)
    for diagnostic in planner.diagnose(plan.per_node):
        assert diagnostic.accumulated_delay <= 8.0 + 1e-9
    assert plan.strategy is DelayAssignment.ACCUMULATED
    assert plan.masked_failure == pytest.approx(min(plan.per_node.values()))


def test_node_delay_budgets_plan_with_the_config_strategy_unless_overridden():
    diamond = Topology.diamond()
    config = DPCConfig(max_incremental_latency=8.0,
                       delay_assignment=DelayAssignment.ACCUMULATED)
    planner = DelayPlanner(diamond, total_budget=8.0)
    accumulated = planner.plan(DelayAssignment.ACCUMULATED).per_node
    assert node_delay_budgets(diamond, config, None) == dict(accumulated)
    assert node_delay_budgets(diamond, config, 2.0) == dict.fromkeys(diamond.node_names, 2.0)
    # An allowance >= X changes nothing for ACCUMULATED (it still plans per
    # path) and clamps FULL at 0 s.
    degenerate = config.with_(queuing_allowance=8.0)
    assert node_delay_budgets(diamond, degenerate, None) == dict(accumulated)
    full = degenerate.with_(delay_assignment=DelayAssignment.FULL)
    assert node_delay_budgets(diamond, full, None) == dict.fromkeys(diamond.node_names, 0.0)
