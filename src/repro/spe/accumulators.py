"""Mergeable accumulators for incremental window aggregation.

The pane-based :class:`~repro.spe.operators.aggregate.Aggregate` keeps one
accumulator per (pane, group, spec) instead of buffering every raw input
value per overlapping window.  The contract every accumulator honours:

* ``add(value)`` -- fold one input value in, O(1);
* ``add_many(values)`` -- the state after one ``add`` per value, in order,
  in one call (the pane kernel folds a whole run's column at once);
* ``merge(other)`` -- fold another accumulator's partial in, O(1) for the
  incremental builtins (this is what closing a window does: merge the
  ``ceil(size/slide)`` pane partials in pane order);
* ``result()`` -- the aggregate value, with the edge-case semantics of the
  Python builtins (``sum`` of nothing is 0, ``avg`` of nothing is 0.0,
  ``min``/``max`` of nothing raise like ``min([])``);
* ``snapshot()`` / ``restore(state)`` -- plain-data round-trip used by the
  operator checkpoint machinery, so crash recovery and live rebalance ship
  O(groups x panes) scalars instead of O(buffered tuples) values.

``count``/``sum``/``avg``/``min``/``max`` have true incremental forms
(min/max keep per-pane partials, so no invertibility is needed); they are
the only aggregate functions (:data:`INCREMENTAL_ACCUMULATORS`).
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Mapping, Sequence

from ..errors import OperatorError


class Accumulator:
    """Protocol base: ``add``/``merge``/``result`` + ``snapshot``/``restore``."""

    __slots__ = ()
    #: Tag stored in snapshots so a restore cannot cross accumulator kinds.
    kind = "abstract"

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def add_many(self, values: Sequence[Any]) -> None:
        raise NotImplementedError

    def merge(self, other: "Accumulator") -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError

    def snapshot(self) -> dict:
        raise NotImplementedError

    def restore(self, state: Mapping[str, Any]) -> None:
        raise NotImplementedError

    def _check_kind(self, state: Mapping[str, Any]) -> None:
        if state.get("kind") != self.kind:
            raise OperatorError(
                f"cannot restore {state.get('kind')!r} snapshot into a "
                f"{self.kind!r} accumulator"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.snapshot()}>"


class CountAccumulator(Accumulator):
    """Running count of the (non-None) values folded in."""

    __slots__ = ("n",)
    kind = "count"

    def __init__(self) -> None:
        self.n = 0

    def add(self, value: Any) -> None:
        self.n += 1

    def add_many(self, values: Sequence[Any]) -> None:
        self.n += len(values)

    def merge(self, other: "CountAccumulator") -> None:
        self.n += other.n

    def result(self) -> int:
        return self.n

    def snapshot(self) -> dict:
        return {"kind": self.kind, "n": self.n}

    def restore(self, state: Mapping[str, Any]) -> None:
        self._check_kind(state)
        self.n = int(state["n"])


def _left_fold(total: Any, values: Sequence[Any]) -> Any:
    """One ``total + value`` per value, in order.  Never the ``sum`` builtin: it
    is compensated from Python 3.12 on and would change result floats."""
    for value in values:
        total = total + value
    return total


class SumAccumulator(Accumulator):
    """Running total, folded exactly like ``sum(values)`` (left fold from 0)."""

    __slots__ = ("total",)
    kind = "sum"

    def __init__(self) -> None:
        self.total: Any = 0

    def add(self, value: Any) -> None:
        self.total = self.total + value

    def add_many(self, values: Sequence[Any]) -> None:
        self.total = _left_fold(self.total, values)

    def merge(self, other: "SumAccumulator") -> None:
        self.total = self.total + other.total

    def result(self) -> Any:
        return self.total

    def snapshot(self) -> dict:
        return {"kind": self.kind, "total": self.total}

    def restore(self, state: Mapping[str, Any]) -> None:
        self._check_kind(state)
        self.total = state["total"]


class AvgAccumulator(Accumulator):
    """Running (total, count); ``result`` divides, 0.0 on an empty window."""

    __slots__ = ("total", "n")
    kind = "avg"

    def __init__(self) -> None:
        self.total: Any = 0
        self.n = 0

    def add(self, value: Any) -> None:
        self.total = self.total + value
        self.n += 1

    def add_many(self, values: Sequence[Any]) -> None:
        self.total = _left_fold(self.total, values)
        self.n += len(values)

    def merge(self, other: "AvgAccumulator") -> None:
        self.total = self.total + other.total
        self.n += other.n

    def result(self) -> Any:
        return self.total / self.n if self.n else 0.0

    def snapshot(self) -> dict:
        return {"kind": self.kind, "total": self.total, "n": self.n}

    def restore(self, state: Mapping[str, Any]) -> None:
        self._check_kind(state)
        self.total = state["total"]
        self.n = int(state["n"])


class MinAccumulator(Accumulator):
    """Running minimum; like ``min(values)``, ties keep the earliest value."""

    __slots__ = ("best", "has_value")
    kind = "min"

    def __init__(self) -> None:
        self.best: Any = None
        self.has_value = False

    def add(self, value: Any) -> None:
        if not self.has_value:
            self.best = value
            self.has_value = True
        elif value < self.best:
            self.best = value

    def add_many(self, values: Sequence[Any]) -> None:
        # The builtin makes the loop's ``value < best`` comparisons, in order.
        if values:
            self.best = min(chain((self.best,), values)) if self.has_value else min(values)
            self.has_value = True

    def merge(self, other: "MinAccumulator") -> None:
        if other.has_value:
            self.add(other.best)

    def result(self) -> Any:
        if not self.has_value:
            return min(())  # raises exactly like min([])
        return self.best

    def snapshot(self) -> dict:
        return {"kind": self.kind, "best": self.best, "has_value": self.has_value}

    def restore(self, state: Mapping[str, Any]) -> None:
        self._check_kind(state)
        self.best = state["best"]
        self.has_value = bool(state["has_value"])


class MaxAccumulator(Accumulator):
    """Running maximum; like ``max(values)``, ties keep the earliest value."""

    __slots__ = ("best", "has_value")
    kind = "max"

    def __init__(self) -> None:
        self.best: Any = None
        self.has_value = False

    def add(self, value: Any) -> None:
        if not self.has_value:
            self.best = value
            self.has_value = True
        elif value > self.best:
            self.best = value

    def add_many(self, values: Sequence[Any]) -> None:
        if values:
            self.best = max(chain((self.best,), values)) if self.has_value else max(values)
            self.has_value = True

    def merge(self, other: "MaxAccumulator") -> None:
        if other.has_value:
            self.add(other.best)

    def result(self) -> Any:
        if not self.has_value:
            return max(())
        return self.best

    def snapshot(self) -> dict:
        return {"kind": self.kind, "best": self.best, "has_value": self.has_value}

    def restore(self, state: Mapping[str, Any]) -> None:
        self._check_kind(state)
        self.best = state["best"]
        self.has_value = bool(state["has_value"])


#: Builtin aggregate functions with a true incremental accumulator.
INCREMENTAL_ACCUMULATORS: dict[str, Callable[[], Accumulator]] = {
    "count": CountAccumulator,
    "sum": SumAccumulator,
    "avg": AvgAccumulator,
    "min": MinAccumulator,
    "max": MaxAccumulator,
}
