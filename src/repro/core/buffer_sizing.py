"""Buffer management and sizing (Section 8.1 of the paper).

The paper distinguishes two classes of query diagrams:

* **Deterministic but not convergent** -- an input tuple can influence the
  operator state forever (e.g. a count-based join buffer with an unbounded
  window).  For these, the only safe behaviour when buffers fill up is to
  block and create back-pressure up to the data sources, so that eventual
  consistency is never lost ("system delusion" is avoided).
* **Convergent-capable** -- every input tuple affects the state only for a
  bounded amount of (stime) time.  Stateless operators, value-based sliding
  window aggregates, and windowed joins are all convergent-capable.  For
  these diagrams one can compute a maximum buffer size ``S`` that guarantees
  the latest consistent state can be rebuilt and a user-chosen window of the
  most recent results corrected, so availability can be maintained through
  arbitrarily long failures with bounded buffers.

This module classifies operators and diagrams, computes the *state horizon*
of a diagram (how far back in stime its current state can depend on its
inputs), and turns a correction-window requirement plus input rates into
concrete buffer sizes, which can then be applied through
:class:`repro.config.BufferPolicy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from ..config import BufferPolicy
from ..spe.operators.aggregate import Aggregate
from ..spe.operators.base import Operator
from ..spe.operators.filter import Filter
from ..spe.operators.join import Join
from ..spe.operators.map import Map
from ..spe.operators.sjoin import SJoin
from ..spe.operators.soutput import SOutput
from ..spe.operators.sunion import SUnion
from ..spe.operators.union import Union
from ..spe.query_diagram import QueryDiagram


class OperatorCategory(str, Enum):
    """Convergence classification of one operator (Section 8.1)."""

    #: No state at all: Filter, Map, Union, SOutput.
    STATELESS = "stateless"
    #: State bounded in stime: windowed Aggregate / Join, SUnion buckets.
    CONVERGENT = "convergent"
    #: Deterministic but state may depend on the entire history.
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class OperatorClassification:
    """Category plus the stime horizon the operator's state can span."""

    operator: str
    category: OperatorCategory
    #: How far back (in stime units) the operator's current state can reach.
    horizon: float
    detail: str = ""

    @property
    def is_convergent(self) -> bool:
        return self.category is not OperatorCategory.UNBOUNDED


def classify_operator(operator: Operator) -> OperatorClassification:
    """Classify one operator according to Section 8.1.

    Unknown operator types are conservatively classified as UNBOUNDED with an
    infinite horizon, because nothing is known about how long their state
    retains the influence of an input tuple.
    """
    name = operator.name
    if isinstance(operator, (Filter, Map, SOutput)):
        return OperatorClassification(name, OperatorCategory.STATELESS, 0.0, "no per-tuple state")
    if isinstance(operator, SUnion):
        return OperatorClassification(
            name,
            OperatorCategory.CONVERGENT,
            operator.bucket_size,
            f"buffers at most one bucket of {operator.bucket_size:g} stime units",
        )
    if isinstance(operator, Union):
        return OperatorClassification(name, OperatorCategory.STATELESS, 0.0, "no per-tuple state")
    if isinstance(operator, Aggregate):
        return OperatorClassification(
            name,
            OperatorCategory.CONVERGENT,
            operator.window.size,
            f"sliding window of {operator.window.size:g} stime units",
        )
    if isinstance(operator, SJoin):
        return OperatorClassification(
            name,
            OperatorCategory.CONVERGENT,
            operator.window,
            f"join state pruned beyond {operator.window:g} stime units "
            f"(and capped at {operator.state_size} tuples)",
        )
    if isinstance(operator, Join):
        return OperatorClassification(
            name,
            OperatorCategory.CONVERGENT,
            operator.window,
            f"join window of {operator.window:g} stime units",
        )
    return OperatorClassification(
        name,
        OperatorCategory.UNBOUNDED,
        math.inf,
        f"unknown operator type {type(operator).__name__}; assumed history-dependent",
    )


@dataclass(frozen=True)
class DiagramClassification:
    """Convergence analysis of a whole query-diagram fragment."""

    diagram: str
    operators: Mapping[str, OperatorClassification]
    #: Maximum summed horizon along any input-to-output path (stime units).
    state_horizon: float

    @property
    def is_convergent_capable(self) -> bool:
        """True when every operator's state is bounded in stime."""
        return all(c.is_convergent for c in self.operators.values())

    @property
    def unbounded_operators(self) -> list[str]:
        return [name for name, c in self.operators.items() if not c.is_convergent]


def classify_diagram(diagram: QueryDiagram) -> DiagramClassification:
    """Classify every operator and compute the fragment's state horizon.

    The state horizon is the largest sum of per-operator horizons along any
    path through the fragment: to rebuild the state that produced the most
    recent output, the redo must replay input going back at least that far.
    """
    classifications = {name: classify_operator(op) for name, op in diagram.operators.items()}
    order = diagram.topological_order()
    accumulated: dict[str, float] = {}
    for name in order:
        own = classifications[name].horizon
        upstream = [accumulated[c.source] for c in diagram.upstream_of(name)]
        accumulated[name] = own + (max(upstream) if upstream else 0.0)
    horizon = max((accumulated[b.operator] for b in diagram.outputs), default=0.0)
    return DiagramClassification(
        diagram=diagram.name, operators=classifications, state_horizon=horizon
    )


# --------------------------------------------------------------------------- sizing
@dataclass(frozen=True)
class BufferSizing:
    """Concrete buffer sizes derived from a correction-window requirement."""

    diagram: str
    convergent_capable: bool
    #: How much recent output (seconds of stime) the user wants corrected.
    correction_window: float
    #: Fragment state horizon (stime units).
    state_horizon: float
    #: Required input-buffer span in stime units: correction window + horizon + slack.
    input_span: float
    #: Required input-buffer size, in tuples, per input stream.
    input_tuples: Mapping[str, int]
    #: Required output-buffer size in tuples (per output stream).
    output_tuples: Mapping[str, int]
    notes: tuple = field(default_factory=tuple)

    def to_buffer_policy(self, block_on_full: bool | None = None) -> BufferPolicy:
        """Translate the sizing into a :class:`~repro.config.BufferPolicy`.

        For convergent-capable diagrams the default is to drop the oldest
        tuples once the bound is reached (the bound already guarantees the
        requested correction window); for other diagrams the default is to
        block, which creates back-pressure and avoids system delusion.
        """
        if block_on_full is None:
            block_on_full = not self.convergent_capable
        return BufferPolicy(
            max_output_tuples=max(self.output_tuples.values(), default=None),
            block_on_full=block_on_full,
        )


def compute_buffer_sizing(
    diagram: QueryDiagram,
    *,
    correction_window: float,
    input_rates: Mapping[str, float],
    output_rates: Mapping[str, float] | None = None,
    safety_factor: float = 1.25,
) -> BufferSizing:
    """Compute the Section 8.1 buffer sizes for ``diagram``.

    Parameters
    ----------
    correction_window:
        The window of most recent results (in seconds of stime) that must be
        correctable after a failure heals -- e.g. 3600 for "the last hour".
    input_rates:
        Data-tuple rate (tuples per stime second) of each external input
        stream of the fragment.
    output_rates:
        Rate of each output stream; defaults to the summed input rate, which
        is exact for the relay/merge fragments used in the experiments and an
        upper bound for filtering fragments.
    safety_factor:
        Multiplied onto the tuple counts to absorb disorder, boundary delays,
        and rate jitter.

    For diagrams that are not convergent-capable the sizing still reports the
    requested window but flags that bounded buffers cannot guarantee eventual
    consistency for failures that outlast them (the node must block instead).
    """
    if correction_window < 0:
        raise ValueError(f"correction_window must be non-negative, got {correction_window}")
    if safety_factor < 1.0:
        raise ValueError(f"safety_factor must be >= 1, got {safety_factor}")
    classification = classify_diagram(diagram)
    missing = [s for s in diagram.input_streams if s not in input_rates]
    if missing:
        raise ValueError(f"missing input rates for streams {missing}")

    notes: list[str] = []
    horizon = classification.state_horizon
    if not classification.is_convergent_capable:
        notes.append(
            "fragment contains operators with unbounded state horizons "
            f"({', '.join(classification.unbounded_operators)}); bounded buffers only "
            "cover failures shorter than the buffered span -- configure blocking "
            "back-pressure to preserve eventual consistency"
        )
        horizon = max(
            (c.horizon for c in classification.operators.values() if math.isfinite(c.horizon)),
            default=0.0,
        )

    input_span = correction_window + horizon
    input_tuples = {
        stream: int(math.ceil(input_rates[stream] * input_span * safety_factor))
        for stream in diagram.input_streams
    }

    total_input_rate = sum(input_rates[stream] for stream in diagram.input_streams)
    if output_rates is None:
        output_rates = {stream: total_input_rate for stream in diagram.output_streams}
        notes.append("output rates defaulted to the aggregate input rate (upper bound)")
    output_tuples = {
        stream: int(math.ceil(output_rates.get(stream, total_input_rate) * correction_window * safety_factor))
        for stream in diagram.output_streams
    }

    return BufferSizing(
        diagram=diagram.name,
        convergent_capable=classification.is_convergent_capable,
        correction_window=correction_window,
        state_horizon=classification.state_horizon,
        input_span=input_span,
        input_tuples=input_tuples,
        output_tuples=output_tuples,
        notes=tuple(notes),
    )


def supported_failure_duration(
    buffer_tuples: int,
    input_rate: float,
    *,
    state_horizon: float = 0.0,
) -> float:
    """Longest failure (seconds) a buffer of ``buffer_tuples`` can fully correct.

    The inverse of :func:`compute_buffer_sizing`: with deterministic (but not
    convergent-capable) operators, a bounded buffer limits the failure
    durations after which the node can still reconcile.  Beyond this duration
    the node must have been blocking (back-pressure), or consistency of the
    truncated interval is lost.
    """
    if input_rate <= 0:
        raise ValueError(f"input_rate must be positive, got {input_rate}")
    if buffer_tuples < 0:
        raise ValueError(f"buffer_tuples must be non-negative, got {buffer_tuples}")
    return max(buffer_tuples / input_rate - state_horizon, 0.0)
