#!/usr/bin/env python
"""Benchmark trend tracking: diff bench JSON against the checked-in baseline.

The benchmarks record their *deterministic* metrics (simulator event counts,
Proc_new, delivered stable tuples) in pytest-benchmark ``extra_info``;
``BENCH_baseline.json`` pins the expected values per test.  This script
compares one or more freshly produced ``--benchmark-json`` files against the
baseline and fails (exit code 1) when a tracked metric *regresses* by more
than the tolerance -- by default 10%, the threshold CI enforces.

Only metrics whose name marks them as regression-tracked are compared:

* ``*_events`` / ``*events_fired`` -- more simulator events means the
  transport or protocol grew chattier;
* ``*proc_new`` -- higher Proc_new means worse availability;
* ``*_stable_tuples`` -- *fewer* delivered stable tuples means the
  deployment stopped keeping up (inverted check);
* ``*_egress_tuples`` -- more tuples put on the wire by the split router
  means producer-side routing stopped cutting each shard's slice;
* ``*_recovery_s`` -- longer modeled recovery time means a crashed replica
  takes longer to rejoin (the checkpoint-shipped recovery axis);
* ``*_output_buffered_end`` / ``*_retention_ratio`` -- more tuples left in
  the output buffers, or a longer run ending with more of them, means the
  acknowledgment-driven truncation stopped bounding retention;
* ``*_client_bytes_per_tuple`` -- more bytes per delivered tuple in the
  client's ledger segments and arrival columns means the instrument went
  back to storing objects;
* ``*_per_source_tuple`` -- exact work counters of a profiled run (calls,
  ``StreamTuple`` row constructions).  Their baseline entries are **upper
  bounds**, not measurements: exceeding one fails with no tolerance, and
  ``--write-baseline`` keeps the bound already checked in.

Improvements never fail the check; refresh the baseline deliberately with
``--write-baseline`` after a change that is supposed to move the numbers.

Usage::

    python check_bench_regression.py --baseline BENCH_baseline.json BENCH_shard.json
    python check_bench_regression.py --baseline BENCH_baseline.json --write-baseline *.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Default relative regression tolerance (10%).
DEFAULT_TOLERANCE = 0.10

#: Relative tolerance for the warn-only wall-clock metrics.  Deliberately
#: generous: CI runners are noisy and a wall-clock wobble must never fail the
#: build -- the fields exist so the baseline records the *trajectory* of the
#: hot path (and a genuine cliff shows up as a WARN in the job log).
DEFAULT_WALL_TOLERANCE = 0.50

#: Metric-name suffixes where *larger* is worse.  Only deterministic
#: simulation metrics are hard-tracked; wall-clock readings vary with the
#: host and are tracked warn-only (below) instead.
LARGER_IS_WORSE = (
    "_events",
    "events_fired",
    "proc_new",
    "_undos",
    "_egress_tuples",
    "_recovery_s",
    "_output_buffered_end",
    "_retention_ratio",
    "_client_bytes_per_tuple",
    "_per_source_tuple",
)

#: Tracked metrics whose baseline value is a fixed upper bound (tolerance 0).
UPPER_BOUNDS = ("_per_source_tuple",)

#: Metric-name suffixes where *smaller* is worse.
SMALLER_IS_WORSE = ("_stable_tuples",)

#: Warn-only wall-clock suffixes: larger wall time / smaller throughput is a
#: (soft) regression.
WALL_LARGER_IS_WORSE = ("_wall_ms",)
WALL_SMALLER_IS_WORSE = ("_tuples_per_sec",)


def tracked_direction(metric: str) -> int:
    """+1 when larger values regress, -1 when smaller values regress, 0 untracked."""
    if metric.endswith(LARGER_IS_WORSE):
        return 1
    if metric.endswith(SMALLER_IS_WORSE):
        return -1
    return 0


def wall_direction(metric: str) -> int:
    """Like :func:`tracked_direction` for the warn-only wall-clock metrics."""
    if metric.endswith(WALL_LARGER_IS_WORSE):
        return 1
    if metric.endswith(WALL_SMALLER_IS_WORSE):
        return -1
    return 0


def load_metrics(path: Path) -> dict[str, dict[str, float]]:
    """``{test_name: {metric: value}}`` from a pytest-benchmark JSON file."""
    data = json.loads(path.read_text(encoding="utf-8"))
    metrics: dict[str, dict[str, float]] = {}
    for bench in data.get("benchmarks", []):
        extra = {
            key: float(value)
            for key, value in (bench.get("extra_info") or {}).items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        if extra:
            metrics[bench["name"]] = extra
    return metrics


def merge_metrics(paths: list[Path]) -> dict[str, dict[str, float]]:
    merged: dict[str, dict[str, float]] = {}
    for path in paths:
        for test, extra in load_metrics(path).items():
            merged.setdefault(test, {}).update(extra)
    return merged


def compare(
    baseline: dict[str, dict[str, float]],
    current: dict[str, dict[str, float]],
    tolerance: float = DEFAULT_TOLERANCE,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
) -> tuple[list[str], list[str]]:
    """Return ``(regressions, report_lines)`` for ``current`` vs ``baseline``.

    Tests or metrics missing from the baseline are reported as new (never a
    failure: the baseline is refreshed when benchmarks are added); tracked
    baseline metrics -- or whole tracked benchmarks -- missing from the
    current run fail, so a benchmark cannot dodge tracking by silently
    dropping a metric or not running at all.

    Wall-clock metrics (``*_wall_ms`` / ``*_tuples_per_sec``) are compared
    **warn-only** against ``wall_tolerance``: a soft regression produces a
    ``WALL-CLOCK WARNING`` report line but never an entry in ``regressions``
    (and a missing wall metric is merely noted), so the noisy host-dependent
    trajectory is recorded without ever flaking CI.
    """
    regressions: list[str] = []
    lines: list[str] = []
    for test in sorted(set(baseline) | set(current)):
        if test not in baseline:
            lines.append(f"{test}: NEW (not in baseline)")
            continue
        if test not in current:
            if any(tracked_direction(metric) for metric in baseline[test]):
                # A tracked benchmark that simply was not run would silently
                # disable the gate for all of its metrics.
                regressions.append(f"{test}: tracked benchmark missing from the current run")
            else:
                lines.append(f"{test}: not measured this run")
            continue
        for metric in sorted(set(baseline[test]) | set(current[test])):
            direction = tracked_direction(metric)
            soft = wall_direction(metric) if direction == 0 else 0
            if direction == 0 and soft == 0:
                continue
            if metric not in baseline[test]:
                lines.append(f"{test}.{metric}: NEW (not in baseline)")
                continue
            base = baseline[test][metric]
            if metric not in current[test]:
                if direction:
                    regressions.append(f"{test}.{metric}: missing from the current run")
                else:
                    lines.append(f"{test}.{metric}: wall-clock metric not measured this run")
                continue
            value = current[test][metric]
            if base == 0:
                # Signed growth from zero; `direction * change > tolerance`
                # below decides whether growth is a regression.
                change = 0.0 if value == base else float("inf") * (1 if value > base else -1)
            else:
                change = (value - base) / abs(base)
            if direction:
                regressed = direction * change > (0 if metric.endswith(UPPER_BOUNDS) else tolerance)
                verdict = "REGRESSION" if regressed else "ok"
                lines.append(
                    f"{test}.{metric}: {base:g} -> {value:g} ({change:+.1%}) [{verdict}]"
                )
                if regressed:
                    regressions.append(
                        f"{test}.{metric}: {base:g} -> {value:g} ({change:+.1%}, "
                        f"tolerance {tolerance:.0%})"
                    )
            else:
                warned = soft * change > wall_tolerance
                verdict = "WALL-CLOCK WARNING" if warned else "wall ok"
                lines.append(
                    f"{test}.{metric}: {base:g} -> {value:g} ({change:+.1%}) [{verdict}]"
                )
    return regressions, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", type=Path,
                        help="pytest-benchmark JSON file(s) produced with --benchmark-json")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).with_name("BENCH_baseline.json"),
                        help="baseline metrics file (default: BENCH_baseline.json here)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="relative regression tolerance (default 0.10 = 10%%)")
    parser.add_argument("--wall-tolerance", type=float, default=DEFAULT_WALL_TOLERANCE,
                        help="warn-only tolerance for *_wall_ms / *_tuples_per_sec "
                             "metrics (default 0.50 = 50%%; never fails the check)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from the given results instead of checking")
    parser.add_argument("--subset", action="store_true",
                        help="compare only the benchmarks present in the current run; for "
                             "jobs that deliberately run a slice of the suite (e.g. the "
                             "live-smoke job), where the full-suite 'tracked benchmark "
                             "missing' gate does not apply")
    args = parser.parse_args(argv)

    current = merge_metrics(args.results)
    if args.write_baseline:
        if args.baseline.exists():
            for test, extra in json.loads(args.baseline.read_text(encoding="utf-8")).items():
                for metric, bound in extra.items():
                    if metric.endswith(UPPER_BOUNDS) and metric in current.get(test, {}):
                        current[test][metric] = bound
        args.baseline.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.baseline} ({sum(len(v) for v in current.values())} metrics)")
        return 0

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run with --write-baseline first",
              file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    if args.subset:
        baseline = {test: extra for test, extra in baseline.items() if test in current}
    regressions, lines = compare(
        baseline, current, tolerance=args.tolerance, wall_tolerance=args.wall_tolerance
    )
    print(f"benchmark trend check vs {args.baseline.name} (tolerance {args.tolerance:.0%}, "
          f"wall-clock warn tolerance {args.wall_tolerance:.0%})")
    for line in lines:
        print(f"  {line}")
    if regressions:
        print(f"\n{len(regressions)} regression(s):", file=sys.stderr)
        for regression in regressions:
            print(f"  {regression}", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
