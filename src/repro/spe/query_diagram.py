"""Query diagrams: loop-free graphs of operators.

A :class:`QueryDiagram` describes the operators running on one processing
node (a *query diagram fragment* in the paper's terms), how they are wired
together, and which external streams enter and leave the fragment.

The builder also implements the query-diagram extensions of Section 3:

* :meth:`QueryDiagram.make_fault_tolerant` replaces every ``Union`` with an
  ``SUnion``, inserts an ``SUnion`` in front of every remaining multi-input
  operator, and appends an ``SOutput`` to every output stream that does not
  already have one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import DiagramError
from .operators.base import Operator
from .operators.soutput import SOutput
from .operators.sunion import SUnion
from .operators.union import Union


@dataclass(frozen=True)
class Connection:
    """A directed edge: ``source`` operator's output feeds ``target``'s ``port``."""

    source: str
    target: str
    port: int = 0


@dataclass(frozen=True)
class InputBinding:
    """An external input stream delivered to ``operator`` on ``port``."""

    stream: str
    operator: str
    port: int = 0


@dataclass(frozen=True)
class OutputBinding:
    """An external output stream produced by ``operator``."""

    stream: str
    operator: str


class QueryDiagram:
    """A loop-free operator graph with named external inputs and outputs."""

    def __init__(self, name: str = "diagram") -> None:
        self.name = name
        self.operators: dict[str, Operator] = {}
        self.connections: list[Connection] = []
        self.inputs: list[InputBinding] = []
        self.outputs: list[OutputBinding] = []

    # ------------------------------------------------------------------ construction
    def add_operator(self, operator: Operator) -> Operator:
        """Register ``operator``; names must be unique within the diagram."""
        if operator.name in self.operators:
            raise DiagramError(f"duplicate operator name {operator.name!r}")
        self.operators[operator.name] = operator
        return operator

    def connect(self, source: str | Operator, target: str | Operator, port: int = 0) -> None:
        """Wire ``source``'s output stream into ``target``'s input ``port``."""
        src = source.name if isinstance(source, Operator) else source
        dst = target.name if isinstance(target, Operator) else target
        for name in (src, dst):
            if name not in self.operators:
                raise DiagramError(f"unknown operator {name!r}; add it before connecting")
        if port >= self.operators[dst].arity:
            raise DiagramError(
                f"operator {dst!r} has arity {self.operators[dst].arity}; port {port} is invalid"
            )
        self.connections.append(Connection(src, dst, port))

    def bind_input(self, stream: str, operator: str | Operator, port: int = 0) -> None:
        """Declare that external stream ``stream`` feeds ``operator`` on ``port``."""
        name = operator.name if isinstance(operator, Operator) else operator
        if name not in self.operators:
            raise DiagramError(f"unknown operator {name!r}")
        if port >= self.operators[name].arity:
            raise DiagramError(f"port {port} invalid for operator {name!r}")
        self.inputs.append(InputBinding(stream, name, port))

    def bind_output(self, stream: str, operator: str | Operator) -> None:
        """Declare that ``operator``'s output leaves the fragment as ``stream``."""
        name = operator.name if isinstance(operator, Operator) else operator
        if name not in self.operators:
            raise DiagramError(f"unknown operator {name!r}")
        if any(o.stream == stream for o in self.outputs):
            raise DiagramError(f"duplicate output stream {stream!r}")
        self.outputs.append(OutputBinding(stream, name))

    # ------------------------------------------------------------------ introspection
    @property
    def input_streams(self) -> list[str]:
        seen: list[str] = []
        for binding in self.inputs:
            if binding.stream not in seen:
                seen.append(binding.stream)
        return seen

    @property
    def output_streams(self) -> list[str]:
        return [binding.stream for binding in self.outputs]

    def operator(self, name: str) -> Operator:
        try:
            return self.operators[name]
        except KeyError as exc:
            raise DiagramError(f"unknown operator {name!r}") from exc

    def downstream_of(self, name: str) -> list[Connection]:
        return [c for c in self.connections if c.source == name]

    def reachable_from(self, names: Iterable[str]) -> list[str]:
        """The operators at or downstream of ``names``, in breadth-first order."""
        order = list(dict.fromkeys(names))
        seen = set(order)
        for name in order:  # ``order`` grows while it is walked: the BFS queue
            for connection in self.downstream_of(name):
                if connection.target not in seen:
                    seen.add(connection.target)
                    order.append(connection.target)
        return order

    # ------------------------------------------------------------------ validation
    def topological_order(self) -> list[str]:
        """Operator names in dependency order; raises on cycles."""
        indegree = {name: 0 for name in self.operators}
        for connection in self.connections:
            indegree[connection.target] += 1
        ready = sorted(name for name, degree in indegree.items() if degree == 0)
        order: list[str] = []
        remaining = dict(indegree)
        while ready:
            current = ready.pop(0)
            order.append(current)
            for connection in self.downstream_of(current):
                remaining[connection.target] -= 1
                if remaining[connection.target] == 0:
                    ready.append(connection.target)
            ready.sort()
        if len(order) != len(self.operators):
            cyclic = sorted(set(self.operators) - set(order))
            raise DiagramError(f"query diagram has a cycle involving {cyclic}")
        return order

    def validate(self) -> None:
        """Check the diagram is loop-free and every input port is fed exactly once."""
        self.topological_order()
        fed: dict[tuple[str, int], int] = {}
        for connection in self.connections:
            fed[(connection.target, connection.port)] = (
                fed.get((connection.target, connection.port), 0) + 1
            )
        for binding in self.inputs:
            fed[(binding.operator, binding.port)] = fed.get((binding.operator, binding.port), 0) + 1
        for name, op in self.operators.items():
            for port in range(op.arity):
                count = fed.get((name, port), 0)
                if count == 0:
                    raise DiagramError(f"input port {port} of operator {name!r} is not fed")
                if count > 1:
                    raise DiagramError(
                        f"input port {port} of operator {name!r} is fed {count} times"
                    )
        if not self.outputs:
            raise DiagramError("query diagram has no output streams")
        bound_outputs = {b.operator for b in self.outputs}
        for name in self.operators:
            has_downstream = bool(self.downstream_of(name))
            if not has_downstream and name not in bound_outputs:
                raise DiagramError(f"operator {name!r} output is dangling")

    # ------------------------------------------------------------------ DPC transform
    def make_fault_tolerant(self, bucket_size: float = 0.1) -> "QueryDiagram":
        """Return a copy of this diagram extended for DPC (Section 3, item 4).

        * every :class:`Union` is replaced by an :class:`SUnion`;
        * an :class:`SUnion` is inserted in front of every other multi-input
          operator (e.g. Join) so its replicas process tuples in the same
          order;
        * an :class:`SOutput` is appended to every output stream that is not
          already produced by one.

        SUnions on the node's *input* streams are added by the processing
        node itself (they need access to the node's clock and delay budget),
        not by this transform.
        """
        transformed = QueryDiagram(name=f"{self.name}.ft")
        replaced_unions: dict[str, str] = {}
        for name, op in self.operators.items():
            if isinstance(op, Union) and not isinstance(op, SUnion):
                sunion = SUnion(
                    name=f"{name}.sunion",
                    arity=op.arity,
                    bucket_size=bucket_size,
                    output_schema=op.output_schema,
                )
                transformed.add_operator(sunion)
                replaced_unions[name] = sunion.name
            else:
                transformed.add_operator(op)

        def mapped(name: str) -> str:
            return replaced_unions.get(name, name)

        for connection in self.connections:
            transformed.connect(mapped(connection.source), mapped(connection.target), connection.port)
        for binding in self.inputs:
            transformed.bind_input(binding.stream, mapped(binding.operator), binding.port)

        # Insert SUnions in front of remaining multi-input operators (e.g. Join).
        for name in list(transformed.operators):
            op = transformed.operators[name]
            if op.arity < 2 or isinstance(op, SUnion):
                continue
            for port in range(op.arity):
                feeders = [
                    c for c in transformed.connections if c.target == name and c.port == port
                ]
                input_feeders = [
                    b for b in transformed.inputs if b.operator == name and b.port == port
                ]
                serializer = SUnion(
                    name=f"{name}.in{port}.sunion", arity=1, bucket_size=bucket_size
                )
                transformed.add_operator(serializer)
                for feeder in feeders:
                    transformed.connections.remove(feeder)
                    transformed.connect(feeder.source, serializer.name, 0)
                for binding in input_feeders:
                    transformed.inputs.remove(binding)
                    transformed.bind_input(binding.stream, serializer.name, 0)
                transformed.connect(serializer.name, name, port)

        # Append SOutput on every output stream lacking one.
        for binding in self.outputs:
            producer = mapped(binding.operator)
            if isinstance(transformed.operators[producer], SOutput):
                transformed.bind_output(binding.stream, producer)
                continue
            soutput = SOutput(name=f"{binding.stream}.soutput")
            transformed.add_operator(soutput)
            transformed.connect(producer, soutput.name, 0)
            transformed.bind_output(binding.stream, soutput.name)

        transformed.validate()
        return transformed

    # ------------------------------------------------------------------ misc
    def __iter__(self) -> Iterator[Operator]:
        return iter(self.operators.values())

    def __len__(self) -> int:
        return len(self.operators)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QueryDiagram {self.name!r} operators={len(self.operators)} "
            f"inputs={self.input_streams} outputs={self.output_streams}>"
        )


def linear_diagram(name: str, operators: Iterable[Operator], input_stream: str, output_stream: str) -> QueryDiagram:
    """Build a diagram that chains ``operators`` linearly from input to output."""
    diagram = QueryDiagram(name=name)
    ops = list(operators)
    if not ops:
        raise DiagramError("linear_diagram needs at least one operator")
    previous: Operator | None = None
    for op in ops:
        diagram.add_operator(op)
        if previous is not None:
            diagram.connect(previous, op)
        previous = op
    diagram.bind_input(input_stream, ops[0])
    diagram.bind_output(output_stream, ops[-1])
    diagram.validate()
    return diagram
