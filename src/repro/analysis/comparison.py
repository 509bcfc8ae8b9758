"""Shape checks: encode the paper's qualitative claims as testable predicates.

The reproduction does not try to match the paper's absolute numbers (they
were measured on the authors' hardware); what must hold is the *shape* of
each result -- which policy wins, what stays flat, what grows, and where
crossovers fall.  The helpers in this module turn those statements into
:class:`ShapeCheck` verdicts used by the registry, the report generator,
and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..experiments.harness import ExperimentResult


@dataclass(frozen=True)
class ShapeCheck:
    """Outcome of one qualitative check."""

    name: str
    passed: bool
    detail: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience only
        return self.passed

    def row(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


# --------------------------------------------------------------------------- numeric shapes
def check_holds(name: str, passed: bool, **observed: object) -> ShapeCheck:
    """A yes/no check whose detail lists the observed values it was decided on."""
    detail = ", ".join(
        f"{key}={round(value, 3) if isinstance(value, float) else value}"
        for key, value in observed.items()
    )
    return ShapeCheck(name=name, passed=bool(passed), detail=detail)


def check_within(name: str, value: float, bound: float, *, slack: float = 0.0) -> ShapeCheck:
    """``value`` must not exceed ``bound + slack``."""
    passed = value <= bound + slack
    return ShapeCheck(
        name=name,
        passed=passed,
        detail=f"value={value:.3f} bound={bound:.3f} slack={slack:.3f}",
    )


def check_flat(
    name: str,
    values: Sequence[float],
    *,
    relative_tolerance: float = 0.2,
    absolute_tolerance: float = 0.0,
) -> ShapeCheck:
    """The values must all lie within a band around their minimum.

    Used for "Proc_new stays constant regardless of failure duration"
    (Table III) and "latency does not grow with chain depth for Process &
    Process" (Figure 15).
    """
    if not values:
        return ShapeCheck(name=name, passed=False, detail="no values")
    low, high = min(values), max(values)
    allowed = low * (1.0 + relative_tolerance) + absolute_tolerance
    passed = high <= allowed
    return ShapeCheck(
        name=name,
        passed=passed,
        detail=f"min={low:.3f} max={high:.3f} allowed={allowed:.3f}",
    )


def check_monotonic(
    name: str,
    values: Sequence[float],
    *,
    increasing: bool = True,
    tolerance: float = 0.0,
) -> ShapeCheck:
    """The sequence must be (weakly) monotonic, within ``tolerance`` per step.

    Used for "latency grows with chain depth for Delay & Delay" (Figure 15)
    and the linear-growth claims of Tables IV and V.
    """
    if len(values) < 2:
        return ShapeCheck(name=name, passed=True, detail="fewer than two values")
    violations = []
    for index, (left, right) in enumerate(zip(values, values[1:])):
        delta = right - left if increasing else left - right
        if delta < -tolerance:
            violations.append((index, delta))
    passed = not violations
    direction = "increasing" if increasing else "decreasing"
    detail = f"{direction}, values={[round(v, 3) for v in values]}"
    if violations:
        detail += f", violations at steps {[v[0] for v in violations]}"
    return ShapeCheck(name=name, passed=passed, detail=detail)


def check_crossover(
    name: str,
    xs: Sequence[float],
    winner_then: Mapping[float, str],
    series: Mapping[str, Sequence[float]],
    *,
    lower_is_better: bool = True,
    tie_tolerance: float = 0.0,
) -> ShapeCheck:
    """Check who wins at each x and compare against the expected winner map.

    ``winner_then`` maps an x value to the label expected to win there (or to
    ``"tie"`` when the paper says the difference becomes negligible).  Used
    for the Figure 16 vs Figure 18 contrast: delaying wins for short failures
    and the gain disappears for long ones.
    """
    problems: list[str] = []
    for index, x in enumerate(xs):
        expected = winner_then.get(x)
        if expected is None:
            continue
        values = {label: data[index] for label, data in series.items()}
        best_value = min(values.values()) if lower_is_better else max(values.values())
        winners = {
            label
            for label, value in values.items()
            if abs(value - best_value) <= tie_tolerance
        }
        if expected == "tie":
            if len(winners) != len(values):
                problems.append(f"x={x}: expected tie, winners={sorted(winners)}")
        elif expected not in winners:
            problems.append(f"x={x}: expected {expected}, winners={sorted(winners)}")
    return ShapeCheck(
        name=name,
        passed=not problems,
        detail="; ".join(problems) if problems else f"winners as expected at {list(winner_then)}",
    )


# --------------------------------------------------------------------------- result-level shapes
def compare_policies(
    results: Sequence[ExperimentResult],
    *,
    metric: str = "n_tentative",
) -> dict[str, float]:
    """Aggregate ``metric`` per policy label (summing over the other axes)."""
    totals: dict[str, float] = {}
    for result in results:
        totals[result.label] = totals.get(result.label, 0.0) + float(getattr(result, metric))
    return totals


def summarize_checks(checks: Sequence[ShapeCheck]) -> tuple[int, int]:
    """(passed, total) over a list of checks."""
    passed = sum(1 for check in checks if check.passed)
    return passed, len(checks)
