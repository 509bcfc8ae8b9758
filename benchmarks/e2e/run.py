#!/usr/bin/env python3
"""The repo's one benchmark: end-to-end and per-layer numbers for both backends.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --seed N [--trace 1] [--quick] [--out FILE]

With ``--workload`` it measures that workload in this process: ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json from untraced runs,
``--trace 1`` the per-layer metrics (counters, micro-timings, and span shares
from one traced run).  Without ``--workload`` it runs every workload in its
own child process, one after the other, so CPU and peak memory are per
workload.  Every metric is printed by name with its unit; the last line of a
single-workload run is one JSON object.  The exit code is 0 only when every
output was checked and correct.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"

#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 5
#: Timed repeats are never fewer than this, however short ``--seconds`` is.
MIN_REPEATS = 3
#: Fresh builds timed for deploy.compile_ms / deploy.deploy_ms.
BUILD_SAMPLES = 15
#: Share of ``--seconds`` each micro-timing may spend.
MICRO_BUDGET_SHARE = 0.02

EXIT_INCORRECT, EXIT_USAGE, EXIT_SKIPPED = 1, 2, 3

#: Where the benchmark's own modules and the program under test are imported from.
PROGRAM_PATH = [str(HERE), str(REPO / "src")]


def _import_program():
    """Import the benchmark's modules (and through them ``repro``) from this checkout."""
    sys.path[:0] = [p for p in PROGRAM_PATH if p not in sys.path]
    try:
        import layers
        import trace
        import workloads
    except ImportError as exc:
        raise SystemExit(f"e2e: cannot import the program under {REPO / 'src'}: {exc}")
    return workloads, layers, trace


def _stat(values: list[float], unit: str) -> dict:
    """A timing metric: median over repeats, with quartiles and the repeat count."""
    entry = {"value": median(values), "unit": unit, "n": len(values)}
    if len(values) > 1:
        entry["q1"], _, entry["q3"] = quantiles(values, n=4)
    return entry


def _setup_s(args) -> list[float]:
    command = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed)]
    command += ["1" if args.quick else "0", str(args.seconds)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(PROGRAM_PATH))
    return [
        float(subprocess.run(command, env=env, check=True, capture_output=True, text=True).stdout)
        for _ in range(1 if args.quick else SETUP_PROBES)
    ]


# --------------------------------------------------------------------------- --trace 0
def end_to_end(workload, args, W) -> dict:
    """The end-to-end metrics, from untraced runs only."""
    setup = _setup_s(args)
    if workload.live:
        observed = W.run_live(args.seed, args.quick, args.seconds)
        oracle = workload.build(args.seed, args.quick, args.seconds).run()
        attempted, failed, problems = W.verify_live(observed, oracle)
        tuples = observed.source_tuples
        # Paced below saturation, so this reads rate x stop / (duration + drain)
        # unless the pipeline falls behind; cpu_us_per_tuple is the cost metric.
        rates = [tuples / (observed.result.wall_seconds - W.LIVE_STARTUP_S)]
        costs = [observed.cpu_s / tuples * 1e6]
        setup = [value + W.LIVE_STARTUP_S for value in setup]
        peak_rss_mb = observed.peak_rss_mb
    else:
        if not args.quick:
            workload.build(args.seed, args.quick, args.seconds).run()  # warm-up, discarded
        attempted = failed = 0
        problems: list[str] = []
        rates, costs, outputs = [], [], None
        started = time.perf_counter()
        while len(rates) < (2 if args.quick else MIN_REPEATS) or (
            time.perf_counter() - started < args.seconds
        ):
            gc.collect()
            run = workload.build(args.seed, args.quick, args.seconds).run()
            checked = W.verify(run)
            attempted, failed = attempted + checked[0], failed + checked[1]
            problems += checked[2]
            if outputs is None:
                outputs = W.model_outputs(run)
            elif outputs != W.model_outputs(run):
                failed += 1
                problems.append("two runs of one seed disagree: the simulator is not deterministic")
            rates.append(run.source_tuples / run.wall_s)
            costs.append(run.cpu_s / run.source_tuples * 1e6)
            del run
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": _stat(setup, "s"),
            "tuples_per_s": _stat(rates, "1/s"),
            "cpu_us_per_tuple": _stat(costs, "us"),
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "n": 1},
        },
    }


# --------------------------------------------------------------------------- --trace 1
def per_layer(workload, args, W, L, T) -> dict:
    """The per-layer metrics: counters, one traced run, micro-timings."""

    def build():
        return workload.build(args.seed, args.quick, args.seconds)

    # The live run comes first: its workers fork from this process, so they
    # must not inherit the memory of the simulated runs below.
    observed = W.run_live(args.seed, args.quick, args.seconds) if workload.live else None
    if not args.quick:
        build().run()  # warm-up, discarded
    untraced = build().run()
    attempted, failed, problems = W.verify(untraced)
    if observed is not None:
        attempted, failed, problems = W.verify_live(observed, untraced)
    metrics = {**W.model_outputs(untraced), **L.counters(untraced), **L.live_counters(observed)}

    tracer = T.Tracer()
    with T.installed(tracer):
        traced = build().run()
        for _ in range(1 if args.quick else BUILD_SAMPLES - 1):
            build()
    if W.model_outputs(traced) != W.model_outputs(untraced):
        failed += 1
        problems.append("the traced run's outputs differ from the untraced run's")
    summary = tracer.summary()
    for span in T.SPANS:
        share = 100.0 * summary["self_s"][span] / summary["root_s"]
        metrics[f"trace.{span}.self_share"] = (share, "%")
        metrics[f"trace.{span}.calls"] = (summary["calls"][span], "count")
    metrics["trace.overhead_fraction"] = (traced.wall_s / untraced.wall_s - 1.0, "ratio")
    metrics["deploy.compile_ms"] = (tracer.median_ms("deploy.compile"), "ms")
    metrics["deploy.deploy_ms"] = (tracer.median_ms("deploy.deploy"), "ms")
    OUT.mkdir(exist_ok=True)
    tracer.dump(str(OUT / f"trace-{workload.name}.json"))

    # Last: the checkpoint timings overwrite the end state of ``untraced``.
    metrics.update(L.micro_timings(build, untraced, args.seconds * MICRO_BUDGET_SHARE, args.quick))
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


# --------------------------------------------------------------------------- one workload
def run_workload(args) -> int:
    W, L, T = _import_program()
    workload = W.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"e2e: unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    record = {"workload": workload.name, "trace": args.trace}
    if workload.live:
        from repro.live.supervisor import LiveBackendUnavailable, require_fork

        try:
            require_fork()
        except LiveBackendUnavailable as exc:
            print(f"e2e: {workload.name} skipped: {exc}", file=sys.stderr)
            _write(args, [dict(record, skipped=str(exc))])
            return EXIT_SKIPPED
        # The supervisor makes its socket directory with ``tempfile``: keep it
        # inside the checkout, by a relative path so that a deep checkout does
        # not push the socket names past the 108-byte AF_UNIX limit.
        OUT.mkdir(exist_ok=True)
        tempfile.tempdir = os.path.relpath(OUT)
    measured = per_layer(workload, args, W, L, T) if args.trace else end_to_end(workload, args, W)
    record.update(measured, correct=measured["failed"] == 0)
    path = _write(args, [record])

    print(f"# {workload.name}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    for name, metric in record["metrics"].items():
        spread = f"  [q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}]" if "q1" in metric else ""
        repeats = f"  n={metric['n']}" if "n" in metric else ""
        print(f"{name:<44} {metric['value']:>14.6g} {metric['unit']}{spread}{repeats}")
    for problem in record["problems"]:
        print(f"INCORRECT: {problem}")
    print(f"# checked {record['attempted']} rows, {record['failed']} failed; wrote {path}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in record["metrics"].items()
                },
            }
        )
    )
    return 0 if record["correct"] else EXIT_INCORRECT


def _write(args, runs: list[dict]) -> Path:
    scope = f"-{args.workload}-trace{args.trace}" if args.workload else ""
    path = Path(args.out) if args.out else OUT / f"result-{args.seed}{scope}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"seed": args.seed, "seconds": args.seconds, "quick": args.quick, "runs": runs}
    path.write_text(json.dumps(document, indent=1))
    return path


# --------------------------------------------------------------------------- all workloads
def run_all(args) -> int:
    """Every workload in its own child process; ``--trace 1`` adds the traced pass."""
    names = [entry["name"] for entry in _declared()["workloads"]]
    OUT.mkdir(exist_ok=True)
    part = OUT / f".part-{os.getpid()}.json"
    runs: list[dict] = []
    worst = 0
    try:
        for name in names:
            for trace in (0, 1) if args.trace else (0,):
                command = [sys.executable, str(HERE / "run.py"), "--workload", name]
                command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
                command += ["--trace", str(trace), "--out", str(part)]
                command += ["--quick"] if args.quick else []
                code = subprocess.run(command).returncode
                if code in (0, EXIT_INCORRECT, EXIT_SKIPPED) and part.exists():
                    runs += json.loads(part.read_text())["runs"]
                    part.unlink()
                if code not in (0, EXIT_SKIPPED):
                    worst = max(worst, code)
    finally:
        part.unlink(missing_ok=True)
    print(f"# wrote {_write(args, runs)}")
    return worst


def _declared() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="shrunken sizes (smoke test)")
    parser.add_argument("--out", help="result file (default: benchmarks/e2e/out/result-*.json)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(_declared()["run_seconds"])
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
