"""Experiment report generation.

An :class:`ExperimentReport` collects one :class:`ReportSection` per table or
figure of the paper, each recording the paper's claim, the configuration the
reproduction used, the measured table, and the shape-check verdicts.  The
report renders to Markdown; ``python -m repro report`` writes one for every
experiment of :mod:`repro.analysis.registry` that has shape checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .comparison import ShapeCheck, summarize_checks
from .paper import PaperClaim
from .tables import ResultTable, render_markdown


@dataclass
class ReportSection:
    """Paper-vs-measured record for one experiment."""

    claim: PaperClaim
    configuration: dict = field(default_factory=dict)
    tables: list[ResultTable] = field(default_factory=list)
    checks: list[ShapeCheck] = field(default_factory=list)

    # ------------------------------------------------------------------ construction
    def add_table(self, table: ResultTable) -> None:
        self.tables.append(table)

    def add_check(self, check: ShapeCheck) -> None:
        self.checks.append(check)

    @property
    def passed(self) -> bool:
        """True when every shape check of the section passed."""
        return all(check.passed for check in self.checks)

    # ------------------------------------------------------------------ rendering
    def to_markdown(self) -> str:
        passed, total = summarize_checks(self.checks)
        lines = [f"### {self.claim.title} (Section {self.claim.section})", ""]
        lines.append(f"**Paper claim.** {self.claim.claim}")
        lines.append("")
        if self.configuration:
            config = ", ".join(f"{key}={value}" for key, value in sorted(self.configuration.items()))
            lines.append(f"**Configuration.** {config}")
            lines.append("")
        for table in self.tables:
            lines.append(f"**{table.title}**")
            lines.append("")
            lines.append(render_markdown(table))
            lines.append("")
        if self.checks:
            lines.append(f"**Shape checks ({passed}/{total} passed).**")
            lines.append("")
            for check in self.checks:
                lines.append(f"- {check.row()}")
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"


@dataclass
class ExperimentReport:
    """A full paper-vs-measured report over many experiments."""

    title: str = "Experiment report"
    preamble: str = ""
    sections: list[ReportSection] = field(default_factory=list)

    def add_section(self, section: ReportSection) -> ReportSection:
        self.sections.append(section)
        return section

    @property
    def all_passed(self) -> bool:
        return all(section.passed for section in self.sections)

    def summary_table(self) -> ResultTable:
        """One row per experiment: id, section, checks passed."""
        table = ResultTable(
            title="Summary", row_label="experiment", column_label="field"
        )
        for section in self.sections:
            passed, total = summarize_checks(section.checks)
            table.set(section.claim.experiment_id, "paper section", section.claim.section)
            table.set(section.claim.experiment_id, "checks passed", f"{passed}/{total}")
            table.set(section.claim.experiment_id, "status", "ok" if section.passed else "MISMATCH")
        return table

    def to_markdown(self) -> str:
        lines = [f"# {self.title}", ""]
        if self.preamble:
            lines.append(self.preamble)
            lines.append("")
        lines.append("## Summary")
        lines.append("")
        lines.append(render_markdown(self.summary_table(), float_format=".3g"))
        lines.append("")
        lines.append("## Per-experiment results")
        lines.append("")
        for section in self.sections:
            lines.append(section.to_markdown())
        return "\n".join(lines).rstrip() + "\n"

    def write(self, path: str) -> None:
        """Write the Markdown rendering to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_markdown())
