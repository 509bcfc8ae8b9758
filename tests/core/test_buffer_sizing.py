"""Tests for operator/diagram convergence classification and buffer sizing."""

import math

import pytest

from repro.core.buffer_sizing import (
    OperatorCategory,
    classify_diagram,
    classify_operator,
    compute_buffer_sizing,
    supported_failure_duration,
)
from repro.spe.operators import Aggregate, Filter, Join, Map, SJoin, SOutput, SUnion, Union
from repro.spe.operators.aggregate import AggregateSpec
from repro.spe.operators.base import Operator
from repro.spe.query_diagram import QueryDiagram
from repro.spe.tuples import StreamTuple
from repro.spe.windows import WindowSpec
from repro.workloads.queries import intrusion_detection_diagram


# --------------------------------------------------------------------------- operator classification
def test_stateless_operators_have_zero_horizon():
    for operator in (
        Filter(name="f", predicate=lambda v: True),
        Map(name="m", transform=dict),
        Union(name="u", arity=2),
        SOutput(name="o"),
    ):
        classification = classify_operator(operator)
        assert classification.category is OperatorCategory.STATELESS
        assert classification.horizon == 0.0
        assert classification.is_convergent


def test_windowed_operators_report_their_window():
    aggregate = Aggregate(
        name="a", window=WindowSpec.tumbling(60.0), aggregates=[AggregateSpec("n", "count")]
    )
    join = Join(name="j", window=5.0)
    sjoin = SJoin(name="sj", window=2.0, state_size=100)
    sunion = SUnion(name="su", arity=2, bucket_size=0.5)
    assert classify_operator(aggregate).horizon == 60.0
    assert classify_operator(join).horizon == 5.0
    assert classify_operator(sjoin).horizon == 2.0
    assert classify_operator(sunion).horizon == 0.5
    for operator in (aggregate, join, sjoin, sunion):
        assert classify_operator(operator).category is OperatorCategory.CONVERGENT


class HistoryOperator(Operator):
    """An operator whose state grows forever (not convergent-capable)."""

    def __init__(self, name: str) -> None:
        super().__init__(name, arity=1)
        self._seen: list[StreamTuple] = []

    def _process_run(self, port, run):
        self._seen.extend(run)
        return [run.relabeled(self.writer.take(len(run)))]

    def _checkpoint_state(self):
        return {"seen": list(self._seen)}

    def _restore_state(self, state):
        self._seen = list(state.get("seen", ()))


def test_unknown_operator_is_unbounded():
    classification = classify_operator(HistoryOperator("h"))
    assert classification.category is OperatorCategory.UNBOUNDED
    assert math.isinf(classification.horizon)
    assert not classification.is_convergent


# --------------------------------------------------------------------------- diagram classification
def test_diagram_horizon_sums_along_path():
    diagram = intrusion_detection_diagram("n", ["s1", "s2"], "out", bucket_size=0.1, window=5.0)
    classification = classify_diagram(diagram)
    assert classification.is_convergent_capable
    # SUnion bucket (0.1) + Aggregate window (5.0); the filters add nothing.
    assert classification.state_horizon == pytest.approx(5.1)


def test_diagram_with_unbounded_operator_flagged():
    diagram = QueryDiagram(name="d")
    history = HistoryOperator("h")
    soutput = SOutput(name="out_op")
    diagram.add_operator(history)
    diagram.add_operator(soutput)
    diagram.connect(history, soutput)
    diagram.bind_input("in", history)
    diagram.bind_output("out", soutput)
    diagram.validate()
    classification = classify_diagram(diagram)
    assert not classification.is_convergent_capable
    assert classification.unbounded_operators == ["h"]


def test_diagram_horizon_takes_longest_path():
    diagram = QueryDiagram(name="d")
    sunion = SUnion(name="su", arity=2, bucket_size=0.2)
    short = Filter(name="short", predicate=lambda v: True)
    long_agg = Aggregate(
        name="long", window=WindowSpec.tumbling(10.0), aggregates=[AggregateSpec("n", "count")]
    )
    join = Join(name="join", window=1.0)
    soutput = SOutput(name="sout")
    for op in (sunion, short, long_agg, join, soutput):
        diagram.add_operator(op)
    diagram.connect(sunion, short)
    diagram.connect(sunion, long_agg)
    diagram.connect(short, join, port=0)
    diagram.connect(long_agg, join, port=1)
    diagram.connect(join, soutput)
    diagram.bind_input("a", sunion, 0)
    diagram.bind_input("b", sunion, 1)
    diagram.bind_output("out", soutput)
    diagram.validate()
    classification = classify_diagram(diagram)
    # Longest path: SUnion (0.2) + Aggregate (10) + Join (1) = 11.2
    assert classification.state_horizon == pytest.approx(11.2)


# --------------------------------------------------------------------------- sizing
def test_compute_buffer_sizing_convergent():
    diagram = intrusion_detection_diagram("n", ["s1", "s2", "s3"], "out", window=5.0)
    sizing = compute_buffer_sizing(
        diagram,
        correction_window=60.0,
        input_rates={"s1": 100.0, "s2": 100.0, "s3": 100.0},
        safety_factor=1.0,
    )
    assert sizing.convergent_capable
    assert sizing.input_span == pytest.approx(65.1)
    assert sizing.input_tuples["s1"] == math.ceil(100.0 * 65.1)
    # Output rate defaults to the aggregate input rate.
    assert sizing.output_tuples["out"] == math.ceil(300.0 * 60.0)
    assert any("output rates defaulted" in note for note in sizing.notes)


def test_compute_buffer_sizing_policy_defaults():
    diagram = intrusion_detection_diagram("n", ["s1"], "out")
    sizing = compute_buffer_sizing(diagram, correction_window=10.0, input_rates={"s1": 10.0})
    policy = sizing.to_buffer_policy()
    assert policy.max_output_tuples == max(sizing.output_tuples.values())
    # Convergent-capable diagrams default to dropping rather than blocking.
    assert policy.block_on_full is False
    assert sizing.to_buffer_policy(block_on_full=True).block_on_full is True


def test_compute_buffer_sizing_unbounded_diagram_blocks():
    diagram = QueryDiagram(name="d")
    history = HistoryOperator("h")
    soutput = SOutput(name="sout")
    diagram.add_operator(history)
    diagram.add_operator(soutput)
    diagram.connect(history, soutput)
    diagram.bind_input("in", history)
    diagram.bind_output("out", soutput)
    diagram.validate()
    sizing = compute_buffer_sizing(diagram, correction_window=10.0, input_rates={"in": 10.0})
    assert not sizing.convergent_capable
    assert sizing.notes
    assert sizing.to_buffer_policy().block_on_full is True


def test_compute_buffer_sizing_validations():
    diagram = intrusion_detection_diagram("n", ["s1"], "out")
    with pytest.raises(ValueError):
        compute_buffer_sizing(diagram, correction_window=-1.0, input_rates={"s1": 10.0})
    with pytest.raises(ValueError):
        compute_buffer_sizing(diagram, correction_window=1.0, input_rates={})
    with pytest.raises(ValueError):
        compute_buffer_sizing(
            diagram, correction_window=1.0, input_rates={"s1": 10.0}, safety_factor=0.5
        )


def test_supported_failure_duration():
    assert supported_failure_duration(1000, 100.0) == pytest.approx(10.0)
    assert supported_failure_duration(1000, 100.0, state_horizon=4.0) == pytest.approx(6.0)
    assert supported_failure_duration(10, 100.0, state_horizon=5.0) == 0.0
    with pytest.raises(ValueError):
        supported_failure_duration(100, 0.0)
    with pytest.raises(ValueError):
        supported_failure_duration(-1, 10.0)
