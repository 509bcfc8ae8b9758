"""Property-based tests for delay planning and result tables."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.comparison import check_flat, check_monotonic
from repro.analysis.tables import pivot_results, render_csv, render_markdown
from repro.config import DelayAssignment
from repro.core.delay_planner import DelayPlanner
from repro.experiments import ExperimentResult
from repro.topology import NodeSpec, Topology

COMMON = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- delay planner
@COMMON
@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=1.0, max_value=60.0),
)
def test_uniform_plan_never_exceeds_budget_along_a_chain(depth, budget):
    planner = DelayPlanner(Topology.chain(depth), total_budget=budget,
                           queuing_allowance=budget * 0.1)
    plan = planner.plan(DelayAssignment.UNIFORM)
    assert sum(plan.per_node.values()) <= budget + 1e-9
    for diagnostic in planner.diagnose(plan.per_node):
        assert diagnostic.within_budget


@COMMON
@given(
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=2.0, max_value=60.0),
    st.floats(min_value=0.0, max_value=0.9),
)
def test_full_plan_masks_at_least_as_long_as_uniform(depth, budget, allowance_fraction):
    # The comparison is only meaningful for chains of two or more nodes: on a
    # single node the uniform split trivially assigns the whole budget, while
    # the FULL strategy always reserves its queuing allowance.
    allowance = min(budget * allowance_fraction * 0.5, budget / depth)
    planner = DelayPlanner(Topology.chain(depth), total_budget=budget,
                           queuing_allowance=allowance)
    uniform = planner.plan(DelayAssignment.UNIFORM)
    full = planner.plan(DelayAssignment.FULL)
    assert full.masked_failure >= uniform.masked_failure - 1e-9
    # Every node gets the same budget under both static strategies.
    assert len(set(round(v, 9) for v in uniform.per_node.values())) == 1
    assert len(set(round(v, 9) for v in full.per_node.values())) == 1


@st.composite
def deployment_dags(draw):
    """A random DAG of up to 7 nodes: each node reads a source or earlier nodes."""
    nodes = []
    for index in range(draw(st.integers(min_value=1, max_value=7))):
        earlier = [spec.name for spec in nodes]
        inputs = draw(st.lists(st.sampled_from(earlier), unique=True, max_size=3)) if earlier else []
        nodes.append(NodeSpec(f"n{index}", tuple(inputs) or (f"s{index + 1}",)))
    return Topology(nodes, name="random")


@COMMON
@given(
    deployment_dags(),
    st.floats(min_value=0.5, max_value=60.0),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_accumulated_plan_never_exceeds_budget_on_any_path(topology, budget, allowance_fraction):
    # The allowance plays no part in ACCUMULATED, even at or above X.
    planner = DelayPlanner(topology, total_budget=budget,
                           queuing_allowance=budget * allowance_fraction)
    plan = planner.plan(DelayAssignment.ACCUMULATED)
    assert all(delay > 0.0 for delay in plan.per_node.values())
    for diagnostic in planner.diagnose(plan.per_node):
        assert diagnostic.within_budget, diagnostic
    # The most delayed path spends the whole budget.
    assert plan.worst_case_sequential <= budget + 1e-9
    assert max(d.accumulated_delay for d in planner.diagnose(plan.per_node)) >= budget - 1e-9


# --------------------------------------------------------------------------- tables & checks
def _result(label: str, depth: int, value: float) -> ExperimentResult:
    return ExperimentResult(
        label=label,
        failure_duration=10.0,
        chain_depth=depth,
        policy=label,
        proc_new=value,
        max_gap=value,
        n_tentative=int(value * 10),
        n_stable=100,
        n_undos=0,
        n_rec_done=1,
        eventually_consistent=True,
    )


@COMMON
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=1, max_value=4),
            st.floats(min_value=0.0, max_value=50.0),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_pivot_contains_every_result(cases):
    results = [_result(label, depth, value) for label, depth, value in cases]
    table = pivot_results(
        results,
        title="t",
        row=lambda r: r.label,
        column=lambda r: r.chain_depth,
        value=lambda r: r.proc_new,
    )
    # The last result for each (label, depth) pair wins; every pair is present.
    expected = {}
    for label, depth, value in cases:
        expected[(label, depth)] = value
    for (label, depth), value in expected.items():
        assert table.get(label, depth) == value
    # Both renderers cover every row and column label.
    markdown = render_markdown(table)
    csv_text = render_csv(table)
    for label, _depth, _value in cases:
        assert label in markdown
        assert label in csv_text


@COMMON
@given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=10))
def test_check_flat_accepts_constant_series(values):
    constant = [values[0]] * len(values)
    assert check_flat("constant", constant).passed


@COMMON
@given(st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=2, max_size=10))
def test_check_monotonic_accepts_sorted_series(values):
    assert check_monotonic("sorted", sorted(values)).passed
    assert check_monotonic("reverse sorted", sorted(values, reverse=True), increasing=False).passed
