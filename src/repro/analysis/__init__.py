"""Analysis and reporting utilities for the reproduction.

The :mod:`repro.analysis` package turns raw experiment output
(:class:`~repro.experiments.harness.ExperimentResult` lists, client traces)
into the artifacts the paper reports:

* :mod:`repro.analysis.paper` -- the paper's own numbers and qualitative
  claims, encoded so measured results can be compared against them;
* :mod:`repro.analysis.tables` -- pivoting and rendering of result tables
  (plain text, Markdown, CSV);
* :mod:`repro.analysis.traces` -- analysis of client output traces
  (failure episodes, correction bursts, ASCII plots of the Figure 11 style);
* :mod:`repro.analysis.comparison` -- shape checks (flatness, monotonicity,
  crossovers, who-wins) that encode the claims;
* :mod:`repro.analysis.report` -- the per-experiment paper-vs-measured
  Markdown report;
* :mod:`repro.analysis.registry` -- every experiment declared once (grid per
  scale, tables, shape checks), read by ``python -m repro run`` / ``report``.
"""

from .comparison import (
    ShapeCheck,
    check_crossover,
    check_flat,
    check_holds,
    check_monotonic,
    check_within,
    compare_policies,
)
from .paper import (
    PAPER_CLAIMS,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    PaperClaim,
    paper_claim,
)
from .tables import (
    ResultTable,
    pivot_results,
    render_csv,
    render_markdown,
    render_text,
)
from .traces import (
    Episode,
    analyze_trace,
    ascii_plot,
    correction_episodes,
    output_gaps,
    tentative_episodes,
)
from .report import ExperimentReport, ReportSection
from .builders import (
    build_delay_assignment_section,
    build_fig15_section,
    build_overhead_section,
    build_table3_section,
    build_tentative_vs_depth_section,
)

__all__ = [
    # paper reference data
    "PAPER_CLAIMS",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "PaperClaim",
    "paper_claim",
    # tables
    "ResultTable",
    "pivot_results",
    "render_csv",
    "render_markdown",
    "render_text",
    # traces
    "Episode",
    "analyze_trace",
    "ascii_plot",
    "correction_episodes",
    "output_gaps",
    "tentative_episodes",
    # comparisons
    "ShapeCheck",
    "check_crossover",
    "check_flat",
    "check_holds",
    "check_monotonic",
    "check_within",
    "compare_policies",
    # report
    "ExperimentReport",
    "ReportSection",
    "build_delay_assignment_section",
    "build_fig15_section",
    "build_overhead_section",
    "build_table3_section",
    "build_tentative_vs_depth_section",
]
