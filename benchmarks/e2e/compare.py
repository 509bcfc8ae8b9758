#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric) with both medians, their quartiles
and the bound from BENCHMARK.json.  ``A`` is the baseline (the parent
commit), ``B`` the candidate.  Verdicts:

* ``worse`` / ``better`` -- B's median is worse / better than A's by more
  than the bound;
* ``unresolved`` -- the quartiles of either side are further apart than the
  bound, so a change of that size cannot be told from noise;
* ``same`` -- otherwise.

When both files hold traced runs of the same seed, the simulator's exact
outputs (``virt_s``, ``count`` and ``1/tuple`` metrics outside ``live.*`` and
``trace.*``) are compared too, to 1 %; only rows that differ are printed.
Exits 1 on any ``worse`` or on a higher failed fraction, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

EXACT_UNITS = ("virt_s", "count", "1/tuple")
EXACT_BOUND = 0.01


def _runs(path: str) -> tuple[dict, dict]:
    document = json.loads(Path(path).read_text())
    runs = {(r["workload"], r["trace"]): r for r in document["runs"] if "skipped" not in r}
    return document, runs


def _worsening(a: float, b: float, better: str) -> float:
    """Relative change from ``a`` to ``b`` in the direction that is worse."""
    change = (b - a) if better == "lower" else (a - b)
    if a == 0:
        return 0.0 if change == 0 else float("inf") if change > 0 else float("-inf")
    return change / abs(a)


def _spread(metric: dict) -> float:
    if "q1" not in metric or metric["value"] == 0:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def _verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    worsening = _worsening(a["value"], b["value"], better)
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    return ("better" if -worsening > bound else "same"), worsening


def _show(metric: dict) -> str:
    text = f"{metric['value']:.5g}"
    if "q1" in metric:
        text += f" [{metric['q1']:.5g}, {metric['q3']:.5g}]"
    return text


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0].replace("``", ""), file=sys.stderr)
        return 2
    declared = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    (doc_a, runs_a), (doc_b, runs_b) = _runs(argv[0]), _runs(argv[1])
    regressions = 0

    print(f"{'workload':<24}{'metric':<20}{'A':<32}{'B':<32}{'change':>9}{'bound':>7}  verdict")
    for workload in (entry["name"] for entry in declared["workloads"]):
        a, b = runs_a.get((workload, 0)), runs_b.get((workload, 0))
        if a is None or b is None:
            continue
        for entry in declared["end_to_end"]:
            name = entry["name"]
            verdict, worsening = _verdict(
                a["metrics"][name], b["metrics"][name], entry["better"], entry["bound"]
            )
            regressions += verdict == "worse"
            change = b["metrics"][name]["value"] / a["metrics"][name]["value"] - 1.0
            print(
                f"{workload:<24}{name:<20}{_show(a['metrics'][name]):<32}"
                f"{_show(b['metrics'][name]):<32}{change:>+9.1%}{entry['bound']:>7.0%}  {verdict}"
            )

    if doc_a["seed"] == doc_b["seed"]:
        directions = {entry["name"]: entry["better"] for entry in declared["per_layer"]}
        compared = 0
        for key in sorted(set(runs_a) & set(runs_b)):
            if key[1] != 1:
                continue
            for name, metric in runs_a[key]["metrics"].items():
                other = runs_b[key]["metrics"].get(name)
                if (
                    other is None
                    or metric["unit"] not in EXACT_UNITS
                    or name.startswith(("live.", "trace."))
                ):
                    continue
                compared += 1
                verdict, _ = _verdict(metric, other, directions.get(name, "lower"), EXACT_BOUND)
                regressions += verdict == "worse"
                if metric["value"] != other["value"]:
                    print(f"{key[0]:<24}{name:<36}{metric['value']!r} -> {other['value']!r}  {verdict}")
        print(f"# {compared} exact simulator outputs compared at seed {doc_a['seed']}")

    for key in sorted(set(runs_a) & set(runs_b)):
        a, b = runs_a[key], runs_b[key]
        if b["failed"] / b["attempted"] > a["failed"] / a["attempted"]:
            regressions += 1
            print(f"{key[0]:<24}failed fraction rose: {a['failed']}/{a['attempted']} -> "
                  f"{b['failed']}/{b['attempted']}")
    print("# " + (f"{regressions} regression(s)" if regressions else "no regression"))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
