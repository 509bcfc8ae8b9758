"""Tests for delay-assignment planning and the accumulated-delay tracker."""

import pytest

from repro.config import DelayAssignment
from repro.core.delay_planner import AccumulatedDelayTracker, DelayPlanner
from repro.errors import ConfigurationError
from repro.topology import Topology


# --------------------------------------------------------------------------- planner construction
def test_planner_rejects_bad_budgets():
    with pytest.raises(ConfigurationError):
        DelayPlanner(total_budget=0.0)
    with pytest.raises(ConfigurationError):
        DelayPlanner(total_budget=5.0, queuing_allowance=-1.0)
    with pytest.raises(ConfigurationError):
        DelayPlanner(total_budget=5.0, queuing_allowance=5.0)


def test_planner_rejects_duplicate_and_unknown_nodes():
    planner = DelayPlanner(total_budget=4.0)
    planner.add_node("a", entry=True)
    with pytest.raises(ConfigurationError):
        planner.add_node("a")
    with pytest.raises(ConfigurationError):
        planner.connect("a", "missing")


def test_for_chain_validates_depth():
    with pytest.raises(ConfigurationError):
        DelayPlanner.for_chain(0, total_budget=8.0)


def test_plan_requires_nodes():
    with pytest.raises(ConfigurationError):
        DelayPlanner(total_budget=4.0).plan(DelayAssignment.UNIFORM)


# --------------------------------------------------------------------------- static strategies
def test_uniform_plan_divides_budget_evenly():
    planner = DelayPlanner.for_chain(4, total_budget=8.0)
    plan = planner.plan(DelayAssignment.UNIFORM)
    assert plan.per_node == {f"node{i}": 2.0 for i in range(1, 5)}
    assert plan.masked_failure == pytest.approx(2.0)
    assert plan.worst_case_sequential == pytest.approx(8.0)
    assert plan.budget_for("node3") == pytest.approx(2.0)


def test_full_plan_assigns_whole_budget_minus_allowance():
    planner = DelayPlanner.for_chain(4, total_budget=8.0, queuing_allowance=1.5)
    plan = planner.plan(DelayAssignment.FULL)
    # The paper assigns 6.5 s of the 8 s budget to every SUnion (Section 6.3).
    assert all(delay == pytest.approx(6.5) for delay in plan.per_node.values())
    assert plan.masked_failure == pytest.approx(6.5)
    assert plan.budget_for("node1") == pytest.approx(6.5)


def test_full_plan_masks_longer_failures_than_uniform():
    planner = DelayPlanner.for_chain(4, total_budget=8.0)
    uniform = planner.plan(DelayAssignment.UNIFORM)
    full = planner.plan(DelayAssignment.FULL)
    assert full.masked_failure > uniform.masked_failure


def test_budget_for_unknown_node_raises():
    plan = DelayPlanner.for_chain(2, total_budget=4.0).plan(DelayAssignment.UNIFORM)
    with pytest.raises(ConfigurationError):
        plan.budget_for("node99")


def test_single_node_chain():
    plan = DelayPlanner.for_chain(1, total_budget=3.0).plan(DelayAssignment.UNIFORM)
    assert plan.per_node == {"node1": 3.0}
    assert plan.masked_failure == pytest.approx(3.0)


# --------------------------------------------------------------------------- path diagnostics
def diamond_planner() -> DelayPlanner:
    """The Figure 21 situation: paths of different lengths meet downstream."""
    planner = DelayPlanner(total_budget=6.0)
    for name, entry in (("src_a", True), ("src_b", True), ("middle", False), ("sink", False)):
        planner.add_node(name, entry=entry)
    planner.connect("src_a", "middle")
    planner.connect("middle", "sink")
    planner.connect("src_b", "sink")
    return planner


def test_depth_uses_longest_path():
    assert diamond_planner().depth() == 3


def test_diagnose_reports_accumulated_delay_per_path():
    planner = diamond_planner()
    per_node = {"src_a": 2.0, "src_b": 2.0, "middle": 2.0, "sink": 2.0}
    diagnostics = {d.path: d for d in planner.diagnose(per_node)}
    assert diagnostics[("src_a", "middle", "sink")].accumulated_delay == pytest.approx(6.0)
    assert diagnostics[("src_b", "sink")].accumulated_delay == pytest.approx(4.0)
    assert all(d.within_budget for d in diagnostics.values())


def test_diagnose_flags_paths_exceeding_budget():
    planner = diamond_planner()
    per_node = {"src_a": 3.0, "src_b": 3.0, "middle": 3.0, "sink": 3.0}
    long_path = next(d for d in planner.diagnose(per_node) if len(d.path) == 3)
    assert not long_path.within_budget


def test_mismatched_paths_detection():
    planner = diamond_planner()
    assert planner.mismatched_paths({"src_a": 2.0, "src_b": 2.0, "middle": 2.0, "sink": 2.0})
    # Assignments can be balanced by hand so every path accumulates the same delay.
    assert not planner.mismatched_paths({"src_a": 1.0, "src_b": 3.0, "middle": 2.0, "sink": 3.0})


def test_chain_has_no_mismatched_paths():
    planner = DelayPlanner.for_chain(4, total_budget=8.0)
    plan = planner.plan(DelayAssignment.UNIFORM)
    assert not planner.mismatched_paths(plan.per_node)


# --------------------------------------------------------------------------- accumulated-delay tracker
def test_tracker_requires_positive_budget():
    with pytest.raises(ConfigurationError):
        AccumulatedDelayTracker(total_budget=0.0)


def test_tracker_spend_and_remaining():
    tracker = AccumulatedDelayTracker(total_budget=8.0)
    assert tracker.remaining_budget("s") == pytest.approx(8.0)
    assert tracker.spend("s", 3.0) == pytest.approx(3.0)
    assert tracker.remaining_budget("s") == pytest.approx(5.0)
    # Spending is clamped to the remaining budget.
    assert tracker.spend("s", 10.0) == pytest.approx(8.0)
    assert tracker.remaining_budget("s") == 0.0


def test_tracker_rejects_negative_delays():
    tracker = AccumulatedDelayTracker(total_budget=5.0)
    with pytest.raises(ConfigurationError):
        tracker.spend("s", -1.0)
    with pytest.raises(ConfigurationError):
        tracker.observe_upstream_delay("s", -0.5)


def test_tracker_observe_upstream_delay():
    tracker = AccumulatedDelayTracker(total_budget=8.0)
    tracker.observe_upstream_delay("s", 6.5)
    assert tracker.remaining_budget("s") == pytest.approx(1.5)


def test_tracker_merge_takes_most_delayed_input():
    tracker = AccumulatedDelayTracker(total_budget=8.0)
    tracker.observe_upstream_delay("a", 2.0)
    tracker.observe_upstream_delay("b", 5.0)
    assert tracker.merge(["a", "b"]) == pytest.approx(5.0)
    assert tracker.merge([]) == 0.0


def test_tracker_stamp_adds_attribute():
    tracker = AccumulatedDelayTracker(total_budget=8.0, attribute="delay_so_far")
    tracker.spend("s", 1.5)
    stamped = tracker.stamp({"seq": 7}, "s")
    assert stamped == {"seq": 7, "delay_so_far": 1.5}


# --------------------------------------------------------------------------- topology-backed planning
def test_for_topology_mirrors_the_deployment_graph():
    from repro.topology import Topology

    planner = DelayPlanner.for_topology(Topology.diamond(), total_budget=9.0)
    assert planner.nodes == ["ingest", "left", "right", "merge"]
    assert planner.depth() == 3


def test_uniform_plan_on_branching_topology_respects_longest_path():
    """Satellite: D must be respected along the *longest* path, and short
    branches must not be over-assigned."""
    from repro.topology import NodeSpec, Topology

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
    planner = DelayPlanner.for_topology(topo, total_budget=8.0)
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
    from repro.topology import Topology

    for topo in (Topology.chain(4), Topology.diamond(), Topology.fanin(3, 2)):
        planner = DelayPlanner.for_topology(topo, total_budget=6.0)
        plan = planner.plan(DelayAssignment.UNIFORM)
        assert all(d.within_budget for d in planner.diagnose(plan.per_node)), topo.name


def test_full_plan_on_topology_matches_chain_semantics():
    from repro.topology import Topology

    planner = DelayPlanner.for_topology(
        Topology.diamond(), total_budget=8.0, queuing_allowance=1.5
    )
    plan = planner.plan(DelayAssignment.FULL)
    assert all(delay == pytest.approx(6.5) for delay in plan.per_node.values())


def test_for_chain_delegates_to_topology():
    planner = DelayPlanner.for_chain(3, total_budget=6.0)
    assert planner.nodes == ["node1", "node2", "node3"]
    plan = planner.plan(DelayAssignment.UNIFORM)
    assert plan.per_node == {f"node{i}": pytest.approx(2.0) for i in (1, 2, 3)}


def test_depth_is_polynomial_on_stacked_diamonds():
    from repro.topology import NodeSpec, Topology

    # 15 stacked diamonds = 2^15 entry-to-sink paths; depth() must not
    # enumerate them.
    nodes = [NodeSpec("d0", ("s1",))]
    for k in range(15):
        nodes.append(NodeSpec(f"l{k}", (f"d{k}",)))
        nodes.append(NodeSpec(f"r{k}", (f"d{k}",)))
        nodes.append(NodeSpec(f"d{k + 1}", (f"l{k}", f"r{k}")))
    topo = Topology(nodes, name="stacked")
    planner = DelayPlanner.for_topology(topo, total_budget=8.0)
    assert planner.depth() == 1 + 2 * 15
    assert planner.depth() == topo.depth()
    plan = planner.plan(DelayAssignment.UNIFORM)
    assert plan.masked_failure == pytest.approx(8.0 / 31)


# --------------------------------------------------------------------------- accumulated strategy
def test_accumulated_reduces_to_uniform_on_chains():
    planner = DelayPlanner.for_chain(4, total_budget=8.0)
    plan = planner.plan(DelayAssignment.ACCUMULATED)
    assert plan.per_node == {f"node{i}": pytest.approx(2.0) for i in (1, 2, 3, 4)}
    assert plan.worst_case_sequential == pytest.approx(8.0)


def test_accumulated_gives_short_branches_the_stranded_budget():
    # Figure 21 shape: a long branch (entry -> relay -> merge) and a short
    # branch (entry -> merge).  UNIFORM assigns X/3 everywhere, so the short
    # path accumulates only 2X/3; ACCUMULATED lets the short entry spend more.
    planner = DelayPlanner(total_budget=9.0)
    planner.add_node("long-entry", entry=True)
    planner.add_node("short-entry", entry=True)
    planner.add_node("relay")
    planner.add_node("merge")
    planner.connect("long-entry", "relay")
    planner.connect("relay", "merge")
    planner.connect("short-entry", "merge")
    plan = planner.plan(DelayAssignment.ACCUMULATED)
    assert plan.per_node["long-entry"] == pytest.approx(3.0)
    assert plan.per_node["relay"] == pytest.approx(3.0)
    # The short entry has only 2 nodes ahead of it on its path: X/2, not X/3.
    assert plan.per_node["short-entry"] == pytest.approx(4.5)
    # The merge inherits the *most delayed* input (6.0 from the long branch).
    assert plan.per_node["merge"] == pytest.approx(3.0)
    # Every path accumulates exactly the full budget: nothing stranded.
    for diagnostic in planner.diagnose(plan.per_node):
        assert diagnostic.within_budget
    uniform = planner.plan(DelayAssignment.UNIFORM)
    assert planner.mismatched_paths(uniform.per_node)


def test_accumulated_never_exceeds_the_budget_on_any_path():
    planner = DelayPlanner.for_topology(Topology.diamond(), total_budget=8.0)
    plan = planner.plan(DelayAssignment.ACCUMULATED)
    for diagnostic in planner.diagnose(plan.per_node):
        assert diagnostic.accumulated_delay <= 8.0 + 1e-9
    assert plan.strategy is DelayAssignment.ACCUMULATED
    assert plan.masked_failure == pytest.approx(min(plan.per_node.values()))


def test_node_delay_budgets_plan_with_the_config_strategy_unless_overridden():
    from repro.config import DPCConfig
    from repro.deploy.wiring import node_delay_budgets

    diamond = Topology.diamond()
    config = DPCConfig(max_incremental_latency=8.0,
                       delay_assignment=DelayAssignment.ACCUMULATED)
    planner = DelayPlanner.for_topology(diamond, total_budget=8.0)
    accumulated = planner.plan(DelayAssignment.ACCUMULATED).per_node
    assert node_delay_budgets(diamond, config, None) == dict(accumulated)
    assert node_delay_budgets(diamond, config, 2.0) == dict.fromkeys(diamond.node_names, 2.0)
    # A budget the planner refuses (allowance >= X) falls back to DPCConfig.node_delay.
    degenerate = config.with_(queuing_allowance=8.0)
    assert node_delay_budgets(diamond, degenerate, None) == dict.fromkeys(
        diamond.node_names, degenerate.node_delay(diamond.depth())
    )
