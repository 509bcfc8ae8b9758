"""Live backend: wall-clock throughput over real processes and sockets.

Not a paper figure: the paper measured a real Borealis deployment, and this
benchmark is the reproduction's equivalent reality check.  The same specs
the simulator benchmarks use -- a chain and a shard(4) fan-out -- run with
``ScenarioSpec.run_live()`` (one OS process per replica plus an edge worker,
wire-codec frames over Unix-domain sockets, wall-clock timers) against a
fixed finite workload (sources stop at the spec's ``total_duration()``),
measuring stable tuples delivered per wall-clock second.

Unlike every other benchmark in this directory the numbers here are
environment-bound, not deterministic: scheduling jitter moves them run to
run.  They are recorded as warn-only ``*_wall_ms`` / ``*_tuples_per_sec``
trend metrics (``check_bench_regression.py`` never fails on wall metrics),
so a live-path slowdown shows up as a warning trail in CI rather than a
flaky hard failure.  The hard assertions are the ones that must always
hold: every deployment drains to an eventually-consistent ledger and
delivers the full finite workload.
"""

from __future__ import annotations

import pytest
from conftest import full_sweep, print_results

from repro import ScenarioSpec
from repro.live.supervisor import LiveBackendUnavailable, require_fork

#: Sources stop at this stime; the workload is then finite and identical
#: across rounds (and across backends -- see the parity tests).
STOP_QUICK = 4.0
STOP_FULL = 8.0
RATE_QUICK = 240.0
RATE_FULL = 480.0
SEED = 1


def _fork_available() -> bool:
    try:
        require_fork()
    except LiveBackendUnavailable:
        return False
    return True


def _live_run(label: str, spec: ScenarioSpec) -> dict:
    result = spec.run_live()
    stable = result.total_stable
    return {
        "label": label,
        "workers": len(result.nodes) + 1,
        "stable_tuples": stable,
        "wall_seconds": result.wall_seconds,
        "tuples_per_second": stable / result.wall_seconds,
        "eventually_consistent": result.eventually_consistent,
    }


@pytest.mark.skipif(not _fork_available(), reason="no fork start method")
def test_live_throughput(run_once, benchmark):
    stop = STOP_FULL if full_sweep() else STOP_QUICK
    rate = RATE_FULL if full_sweep() else RATE_QUICK

    run = dict(aggregate_rate=rate, warmup=stop, settle=0.0, seed=SEED)

    def sweep():
        return [
            _live_run("chain-2", ScenarioSpec.chain(2, **run)),
            _live_run("shard-4", ScenarioSpec.sharded(4, **run)),
        ]

    rows = run_once(sweep)
    print_results(
        "Live backend: wall-clock throughput, chain vs sharded fan-out",
        [
            (
                f"{row['label']:<8} workers={row['workers']:>2} "
                f"stable={row['stable_tuples']:>6} wall={row['wall_seconds']:.2f}s "
                f"tuples/s={row['tuples_per_second']:>7.1f} "
                f"consistent={'yes' if row['eventually_consistent'] else 'NO'}"
            )
            for row in rows
        ],
    )

    for row in rows:
        label = row["label"]
        # Warn-only wall-clock trajectory (check_bench_regression.py treats
        # *_wall_ms / *_tuples_per_sec as trend metrics, never hard bounds).
        benchmark.extra_info[f"{label}_wall_ms"] = round(row["wall_seconds"] * 1000, 3)
        benchmark.extra_info[f"{label}_tuples_per_sec"] = round(
            row["tuples_per_second"], 1
        )
        # Hard invariants: the live run drains completely and reconciles.
        assert row["eventually_consistent"], label
        assert row["stable_tuples"] > 0, label
    # Both deployments consumed the same finite workload, so the merged
    # stable counts must agree: the fan-out changes *where* work happens,
    # never *what* is delivered.
    assert rows[0]["stable_tuples"] == rows[1]["stable_tuples"], (
        rows[0]["stable_tuples"],
        rows[1]["stable_tuples"],
    )
