"""Unit tests for query-diagram construction, validation, and the DPC transform."""

import pytest

from repro.errors import DiagramError
from repro.spe.operators import Filter, Join, Map, SOutput, SUnion, Union
from repro.spe.query_diagram import QueryDiagram, linear_diagram


def simple_diagram():
    diagram = QueryDiagram("q")
    f = Filter("f", predicate=lambda v: True)
    m = Map("m", transform=dict)
    diagram.add_operator(f)
    diagram.add_operator(m)
    diagram.connect(f, m)
    diagram.bind_input("in", f)
    diagram.bind_output("out", m)
    return diagram


def test_valid_diagram_passes_validation():
    simple_diagram().validate()


def test_duplicate_operator_name_rejected():
    diagram = QueryDiagram("q")
    diagram.add_operator(Filter("f", predicate=lambda v: True))
    with pytest.raises(DiagramError):
        diagram.add_operator(Map("f", transform=dict))


def test_connect_unknown_operator_rejected():
    diagram = QueryDiagram("q")
    diagram.add_operator(Filter("f", predicate=lambda v: True))
    with pytest.raises(DiagramError):
        diagram.connect("f", "ghost")


def test_unfed_port_rejected():
    diagram = QueryDiagram("q")
    diagram.add_operator(Union("u", arity=2))
    diagram.bind_input("a", "u", 0)
    diagram.bind_output("out", "u")
    with pytest.raises(DiagramError):
        diagram.validate()


def test_doubly_fed_port_rejected():
    diagram = QueryDiagram("q")
    diagram.add_operator(Filter("f", predicate=lambda v: True))
    diagram.bind_input("a", "f", 0)
    diagram.bind_input("b", "f", 0)
    diagram.bind_output("out", "f")
    with pytest.raises(DiagramError):
        diagram.validate()


def test_cycle_detection():
    diagram = QueryDiagram("q")
    a = Map("a", transform=dict)
    b = Map("b", transform=dict)
    diagram.add_operator(a)
    diagram.add_operator(b)
    diagram.connect(a, b)
    diagram.connect(b, a)
    diagram.bind_output("out", b)
    with pytest.raises(DiagramError):
        diagram.topological_order()


def test_dangling_operator_rejected():
    diagram = simple_diagram()
    diagram.add_operator(Filter("dangling", predicate=lambda v: True))
    diagram.bind_input("x", "dangling")
    with pytest.raises(DiagramError):
        diagram.validate()


def test_topological_order_respects_edges():
    diagram = simple_diagram()
    order = diagram.topological_order()
    assert order.index("f") < order.index("m")


def test_linear_diagram_helper():
    diagram = linear_diagram(
        "lin",
        [Filter("f", predicate=lambda v: True), Map("m", transform=dict)],
        input_stream="in",
        output_stream="out",
    )
    assert diagram.input_streams == ["in"]
    assert diagram.output_streams == ["out"]


def test_make_fault_tolerant_replaces_union_and_appends_soutput():
    diagram = QueryDiagram("q")
    union = Union("u", arity=2)
    diagram.add_operator(union)
    diagram.bind_input("a", union, 0)
    diagram.bind_input("b", union, 1)
    diagram.bind_output("out", union)
    ft = diagram.make_fault_tolerant(bucket_size=0.5)
    names = set(ft.operators)
    assert any(isinstance(op, SUnion) for op in ft)
    assert any(isinstance(op, SOutput) for op in ft)
    assert "u" not in names  # the Union itself was replaced
    ft.validate()


def test_make_fault_tolerant_serializes_join_inputs():
    diagram = QueryDiagram("q")
    join = Join("j", window=1.0)
    diagram.add_operator(join)
    diagram.bind_input("a", join, 0)
    diagram.bind_input("b", join, 1)
    diagram.bind_output("out", join)
    ft = diagram.make_fault_tolerant()
    sunions = [op for op in ft if isinstance(op, SUnion)]
    assert len(sunions) == 2  # one serializer per Join input port
    ft.validate()


def test_make_fault_tolerant_keeps_existing_soutput():
    diagram = QueryDiagram("q")
    m = Map("m", transform=dict)
    so = SOutput("so")
    diagram.add_operator(m)
    diagram.add_operator(so)
    diagram.connect(m, so)
    diagram.bind_input("in", m)
    diagram.bind_output("out", so)
    ft = diagram.make_fault_tolerant()
    assert sum(1 for op in ft if isinstance(op, SOutput)) == 1


def test_reachable_from_walks_downstream_breadth_first():
    # a -> b -> d and a -> c -> d: a diamond, plus an unrelated e -> d.
    diagram = QueryDiagram("q")
    for name in ("a", "b", "c", "e"):
        diagram.add_operator(Filter(name, predicate=lambda v: True))
    diagram.add_operator(Union("d", arity=3))
    diagram.connect("a", "b")
    diagram.connect("a", "c")
    diagram.connect("b", "d", 0)
    diagram.connect("c", "d", 1)
    diagram.connect("e", "d", 2)
    assert diagram.reachable_from(["a"]) == ["a", "b", "c", "d"]
    assert diagram.reachable_from(["c", "c"]) == ["c", "d"]
    assert diagram.reachable_from(["e", "b"]) == ["e", "b", "d"]
    assert diagram.reachable_from([]) == []
