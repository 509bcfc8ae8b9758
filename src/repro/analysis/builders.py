"""Builders that turn experiment results into report sections.

Each builder takes the results of one experiment
(:mod:`repro.experiments`) and produces the corresponding
:class:`~repro.analysis.report.ReportSection`: the paper claim, the measured
table(s), and the shape checks that encode the claim.  They are the
table-and-check part of the Table III, Figure 15, Figure 16 / 18, Figure
19 / 20 and Table IV / V entries of :mod:`repro.analysis.registry`, which
``python -m repro run`` and ``python -m repro report`` read.

The builders are pure functions of the result lists, so they are unit-tested
with synthetic results and reused by notebooks or scripts that want a
programmatic paper-vs-measured comparison.
"""

from __future__ import annotations

from typing import Sequence

from ..experiments import ExperimentResult, OverheadRow
from .comparison import ShapeCheck, check_flat, check_holds, check_monotonic, check_within
from .paper import PAPER_TABLE3, PAPER_TABLE4, PAPER_TABLE5, OverheadReference, paper_claim
from .report import ReportSection
from .tables import ResultTable, metric_by_duration, proc_new_by_depth, tentative_by_depth


def _by_label(results: Sequence[ExperimentResult]) -> dict[str, list[ExperimentResult]]:
    grouped: dict[str, list[ExperimentResult]] = {}
    for result in results:
        grouped.setdefault(result.label, []).append(result)
    return grouped


def consistency_check(results: Sequence[ExperimentResult]) -> ShapeCheck:
    inconsistent = [r.label for r in results if not r.eventually_consistent]
    return ShapeCheck(
        name="every run is eventually consistent",
        passed=not inconsistent,
        detail="all runs" if not inconsistent else f"inconsistent: {sorted(set(inconsistent))}",
    )


# --------------------------------------------------------------------------- Table III
def build_table3_section(
    results: Sequence[ExperimentResult], *, bound: float = 3.0, slack: float = 0.75
) -> ReportSection:
    """Paper-vs-measured section for Table III (Proc_new vs failure duration)."""
    section = ReportSection(claim=paper_claim("table3"))
    section.configuration = {"X": bound, "replicas": 2}

    comparison = ResultTable(
        title="Proc_new (s), paper vs measured", row_label="failure (s)", column_label="source"
    )
    for result in sorted(results, key=lambda r: r.failure_duration):
        reference = PAPER_TABLE3.get(result.failure_duration)
        if reference is not None:
            comparison.set(result.failure_duration, "paper", reference)
        comparison.set(result.failure_duration, "measured", result.proc_new)
    section.add_table(comparison)
    section.add_table(metric_by_duration(list(results), "N_tentative", lambda r: r.n_tentative))

    section.add_check(consistency_check(results))
    for result in results:
        section.add_check(
            check_within(
                f"failure {result.failure_duration:g} s meets the bound",
                result.proc_new,
                bound,
                slack=slack,
            )
        )
    unmasked = [r.proc_new for r in results if r.failure_duration > bound]
    masked = [r.proc_new for r in results if r.failure_duration <= bound]
    if unmasked:
        section.add_check(check_flat("Proc_new flat beyond the masked range", unmasked,
                                     absolute_tolerance=0.3))
    if unmasked and masked:
        section.add_check(check_within("a masked failure never costs more than an unmasked one",
                                       max(masked), max(unmasked), slack=0.1))
    return section


# --------------------------------------------------------------------------- chain figures
def build_fig15_section(
    results: Sequence[ExperimentResult], *, per_node_delay: float = 2.0
) -> ReportSection:
    """Section for Figure 15 (Proc_new vs chain depth)."""
    section = ReportSection(claim=paper_claim("fig15"))
    section.configuration = {"per_node_delay": per_node_delay}
    section.add_table(proc_new_by_depth(list(results), "Proc_new (s) by chain depth"))

    section.add_check(consistency_check(results))
    grouped = _by_label(results)
    process = sorted(
        (r for label, rs in grouped.items() if label.startswith("Process & Process") for r in rs),
        key=lambda r: r.chain_depth,
    )
    delay = sorted(
        (r for label, rs in grouped.items() if label.startswith("Delay & Delay") for r in rs),
        key=lambda r: r.chain_depth,
    )
    for result in results:
        section.add_check(
            check_within(
                f"{result.label} meets depth x D",
                result.proc_new,
                per_node_delay * result.chain_depth,
                slack=1.5,
            )
        )
    if process:
        section.add_check(
            check_flat(
                "Process & Process stays near a single node's delay",
                [r.proc_new for r in process],
                relative_tolerance=0.6,
            )
        )
    if len(delay) >= 2:
        section.add_check(
            check_monotonic(
                "Delay & Delay latency grows with depth", [r.proc_new for r in delay]
            )
        )
        section.add_check(check_holds(
            "Delay & Delay adds over 1 s from the shallowest to the deepest chain",
            delay[-1].proc_new > delay[0].proc_new + 1.0,
            shallowest=delay[0].proc_new, deepest=delay[-1].proc_new,
        ))
    if process and delay and process[-1].chain_depth == delay[-1].chain_depth:
        section.add_check(check_holds(
            "Process & Process is faster on the deepest chain",
            process[-1].proc_new < delay[-1].proc_new,
            process=process[-1].proc_new, delay=delay[-1].proc_new,
        ))
    return section


def build_tentative_vs_depth_section(
    results: Sequence[ExperimentResult], *, experiment_id: str
) -> ReportSection:
    """Section for Figure 16 (short failures) or Figure 18 (long failure)."""
    section = ReportSection(claim=paper_claim(experiment_id))
    durations = sorted({r.failure_duration for r in results})
    for duration in durations:
        subset = [r for r in results if r.failure_duration == duration]
        section.add_table(
            tentative_by_depth(subset, f"N_tentative by depth, {duration:g} s failure")
        )
    section.add_check(consistency_check(results))

    grouped = _by_label(results)
    savings = []  # Process minus Delay tentative tuples per depth, shortest failure
    for duration in durations:
        for depth in sorted({r.chain_depth for r in results}):
            process = _find(grouped, "Process & Process", depth, duration)
            delay = _find(grouped, "Delay & Delay", depth, duration)
            if process is None or delay is None:
                continue
            saving = process.n_tentative - delay.n_tentative
            if duration == durations[0]:
                savings.append(saving)
            if experiment_id == "fig16":
                section.add_check(
                    ShapeCheck(
                        name=f"delaying never produces more tentative tuples "
                        f"(depth {depth}, {duration:g} s)",
                        passed=delay.n_tentative <= process.n_tentative,
                        detail=f"delay={delay.n_tentative} process={process.n_tentative}",
                    )
                )
            else:
                section.add_check(
                    ShapeCheck(
                        name=f"gain of delaying is marginal (depth {depth})",
                        passed=saving <= 0.2 * process.n_tentative + 100,
                        detail=f"saving={saving} of {process.n_tentative}",
                    )
                )
    if experiment_id == "fig16" and savings:
        section.add_check(check_holds(
            f"the saving grows with depth ({durations[0]:g} s failure)",
            savings[-1] >= savings[0], savings_by_depth=savings,
        ))
    return section


def _find(grouped, prefix: str, depth: int, duration: float):
    for label, results in grouped.items():
        if not label.startswith(prefix):
            continue
        for result in results:
            if result.chain_depth == depth and result.failure_duration == duration:
                return result
    return None


# --------------------------------------------------------------------------- delay assignments
def build_delay_assignment_section(
    results: Sequence[ExperimentResult],
    *,
    budget: float = 8.0,
    full_label: str = "Process & Process, D=6.5s each",
    uniform_label: str = "Process & Process, D=2s each",
    experiment_id: str = "fig20",
) -> ReportSection:
    """Section covering Figures 19 and 20 (delay-assignment strategies).

    Both figures are views of one run; ``experiment_id`` only picks the
    claim the section is filed under.
    """
    section = ReportSection(claim=paper_claim(experiment_id))
    section.configuration = {"X": budget, "chain_depth": 4}
    section.add_table(
        metric_by_duration(list(results), "Proc_new (s) by failure duration", lambda r: r.proc_new)
    )
    section.add_table(
        metric_by_duration(list(results), "N_tentative by failure duration", lambda r: r.n_tentative)
    )
    section.add_check(consistency_check(results))

    grouped = _by_label(results)
    for result in results:
        if result.label.startswith("Delay & Delay"):
            # 0.9 * D spent at every node plus ~0.8 s of per-node serialization
            # overhead, proportionally larger on the simulator than on the testbed.
            bound, slack = 2.0 * result.chain_depth, 0.8 * result.chain_depth
        else:
            bound, slack = budget, 1.0
        section.add_check(
            check_within(
                f"{result.label} meets its bound for the {result.failure_duration:g} s failure",
                result.proc_new,
                bound,
                slack=slack,
            )
        )
    shortest = min((r.failure_duration for r in results), default=None)
    longest = max((r.failure_duration for r in results), default=None)
    full_long = _find(grouped, full_label, 4, longest)
    uniform_long = _find(grouped, uniform_label, 4, longest)
    if full_long is not None and uniform_long is not None:
        section.add_check(check_holds(
            f"whole-budget assignment suspends longer ({longest:g} s failure)",
            full_long.proc_new >= uniform_long.proc_new,
            full=full_long.proc_new, uniform=uniform_long.proc_new,
        ))
    if shortest is not None:
        full_short = _find(grouped, full_label, 4, shortest)
        uniform_short = _find(grouped, uniform_label, 4, shortest)
        if full_short is not None:
            section.add_check(
                ShapeCheck(
                    name=f"whole-budget assignment masks the {shortest:g} s failure",
                    passed=full_short.n_tentative == 0,
                    detail=f"N_tentative={full_short.n_tentative}",
                )
            )
        if full_short is not None and uniform_short is not None:
            section.add_check(
                ShapeCheck(
                    name="uniform assignment does not mask it",
                    passed=uniform_short.n_tentative > 0,
                    detail=f"N_tentative={uniform_short.n_tentative}",
                )
            )
    return section


# --------------------------------------------------------------------------- overhead tables
def _overhead_comparison(
    rows: Sequence[OverheadRow], reference: Sequence[OverheadReference], title: str
) -> ResultTable:
    table = ResultTable(title=title, row_label="parameter (ms)", column_label="latency (ms)")
    reference_by_parameter = {ref.parameter_ms: ref for ref in reference}
    for row in rows:
        ms = row.latency.scaled(1000.0)
        key = f"{row.parameter_ms:.0f}"
        table.set(key, "measured max", ms.maximum)
        table.set(key, "measured avg", ms.average)
        ref = reference_by_parameter.get(row.parameter_ms)
        if ref is not None:
            table.set(key, "paper max", ref.maximum)
            table.set(key, "paper avg", ref.average)
    return table


def build_overhead_section(
    rows: Sequence[OverheadRow], *, experiment_id: str
) -> ReportSection:
    """Section for Table IV (``experiment_id='table4'``) or Table V (``'table5'``)."""
    reference = PAPER_TABLE4 if experiment_id == "table4" else PAPER_TABLE5
    section = ReportSection(claim=paper_claim(experiment_id))
    section.add_table(_overhead_comparison(rows, reference, "Serialization latency, paper vs measured"))

    measured = [row for row in rows if row.parameter_ms > 0]
    if len(measured) >= 2:
        section.add_check(
            check_monotonic(
                "maximum latency grows with the parameter",
                [row.latency.maximum for row in measured],
            )
        )
        section.add_check(
            check_monotonic(
                "average latency grows with the parameter",
                [row.latency.average for row in measured],
            )
        )
    baseline = next((row for row in rows if row.parameter_ms == 0), None)
    if baseline is not None and measured:
        section.add_check(
            ShapeCheck(
                name="serialization always costs more than the plain Union baseline",
                passed=all(row.latency.average >= baseline.latency.average for row in measured),
                detail=f"baseline avg={baseline.latency.average * 1000:.1f} ms",
            )
        )
    return section
