"""Property-based tests for delay planning, buffer sizing, and result tables."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.comparison import check_flat, check_monotonic
from repro.analysis.tables import pivot_results, render_csv, render_markdown
from repro.config import DelayAssignment
from repro.core.buffer_sizing import compute_buffer_sizing, supported_failure_duration
from repro.core.delay_planner import AccumulatedDelayTracker, DelayPlanner
from repro.experiments import ExperimentResult
from repro.workloads.queries import traffic_rollup_diagram

COMMON = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- delay planner
@COMMON
@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=1.0, max_value=60.0),
)
def test_uniform_plan_never_exceeds_budget_along_a_chain(depth, budget):
    planner = DelayPlanner.for_chain(depth, total_budget=budget, queuing_allowance=budget * 0.1)
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
    planner = DelayPlanner.for_chain(depth, total_budget=budget, queuing_allowance=allowance)
    uniform = planner.plan(DelayAssignment.UNIFORM)
    full = planner.plan(DelayAssignment.FULL)
    assert full.masked_failure >= uniform.masked_failure - 1e-9
    # Every node gets the same budget under both static strategies.
    assert len(set(round(v, 9) for v in uniform.per_node.values())) == 1
    assert len(set(round(v, 9) for v in full.per_node.values())) == 1


@COMMON
@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=10))
def test_accumulated_delay_never_exceeds_budget(spends):
    budget = 8.0
    tracker = AccumulatedDelayTracker(total_budget=budget)
    for spend in spends:
        accumulated = tracker.spend("s", spend)
        assert 0.0 <= accumulated <= budget + 1e-9
        assert tracker.remaining_budget("s") >= 0.0
    assert tracker.accumulated("s") <= budget + 1e-9


# --------------------------------------------------------------------------- buffer sizing
@COMMON
@given(
    st.floats(min_value=1.0, max_value=600.0),
    st.floats(min_value=1.0, max_value=1000.0),
    st.floats(min_value=0.5, max_value=30.0),
)
def test_buffer_sizing_scales_with_window_and_rate(correction_window, rate, agg_window):
    diagram = traffic_rollup_diagram("n", ["s1"], "out", window=agg_window)
    small = compute_buffer_sizing(
        diagram, correction_window=correction_window, input_rates={"s1": rate}
    )
    larger_window = compute_buffer_sizing(
        diagram, correction_window=correction_window * 2, input_rates={"s1": rate}
    )
    faster = compute_buffer_sizing(
        diagram, correction_window=correction_window, input_rates={"s1": rate * 2}
    )
    assert small.convergent_capable
    assert larger_window.input_tuples["s1"] >= small.input_tuples["s1"]
    assert faster.input_tuples["s1"] >= small.input_tuples["s1"]
    # The sized buffer always covers at least the requested correction window.
    assert small.input_span >= correction_window


@COMMON
@given(
    st.integers(min_value=0, max_value=10_000_000),
    st.floats(min_value=0.1, max_value=10_000.0),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_supported_failure_duration_is_inverse_of_sizing(buffer_tuples, rate, horizon):
    duration = supported_failure_duration(buffer_tuples, rate, state_horizon=horizon)
    assert duration >= 0.0
    # Feeding the duration back through the sizing formula never exceeds the buffer.
    assert duration * rate <= buffer_tuples + 1e-6


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
