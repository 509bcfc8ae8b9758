#!/usr/bin/env python
"""Generate the paper-vs-measured report section of Table III.

:mod:`repro.analysis.registry` declares every table and figure of the paper
once: the grid it runs at each scale, its tables, and the shape checks that
encode the paper's claim.  This example runs the Table III entry at its quick
grid (five failure durations), compares Proc_new against the paper's reference
row, and writes the Markdown section; ``python -m repro report`` does the same
for every experiment that has shape checks.

Run with::

    python examples/experiment_report.py [output.md]
"""

import sys

from repro.analysis.registry import build_report


def main() -> None:
    output_path = sys.argv[1] if len(sys.argv) > 1 else "table3_report.md"

    print("running the Table III quick grid ...")
    report = build_report(names=["table3"])
    report.write(output_path)

    for check in report.sections[0].checks:
        print(f"  {check.row()}")
    print(f"\nchecks passed: {report.all_passed}; wrote {output_path}")


if __name__ == "__main__":
    main()
