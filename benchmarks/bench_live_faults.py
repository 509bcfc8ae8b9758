"""Live backend under injected network faults: recovery trend metrics.

Runs one :class:`~repro.runtime.ScenarioSpec` per case with ``run_live()``
-- a stream disconnect for the chain, a full partition of one shard group for
the fan-out; the schedule compiles to a deterministic wire-level fault plan
-- measuring how the hardened transport rides through the outage.

The hard metrics are the deterministic ones: ``*_stable_tuples`` pins the
finite workload every run must fully deliver (the ledger is byte-identical
to the simulator oracle at the same seed; see the ``REPRO_LIVE_TESTS``
parity suite).  Wall-clock readings -- total run time, the span of the
tentative phase, and how long after the heal the last tentative output
appears -- are environment-bound and recorded as warn-only ``*_wall_ms``
trend metrics; reconnect/drop counters ride along untracked for the job
log.
"""

from __future__ import annotations

import pytest
from conftest import full_sweep, print_results

from repro import ScenarioSpec
from repro.live.supervisor import LiveBackendUnavailable, require_fork

STOP_QUICK = 4.0
STOP_FULL = 8.0
ONSET = 1.5
OUTAGE = 1.0
SEED = 1


def _fork_available() -> bool:
    try:
        require_fork()
    except LiveBackendUnavailable:
        return False
    return True


def _faulted_run(label: str, spec: ScenarioSpec) -> dict:
    result = spec.run_live()
    assert not result.kills
    phases = [p for p in result.tentative_phase.values() if p.get("count")]
    tentative_span = max(
        (p["last"] - p["first"] for p in phases), default=0.0
    )
    heal_at = max((rule["end"] for rule in result.faults), default=0.0)
    recovery = max(
        (p["last"] - heal_at for p in phases), default=0.0
    )
    return {
        "label": label,
        "stable_tuples": result.total_stable,
        "tentative_tuples": result.total_tentative,
        "injected": sum(result.injected_faults().values()),
        "wall_seconds": result.wall_seconds,
        "tentative_span_s": tentative_span,
        "recovery_s": max(recovery, 0.0),
        "reconnect_attempts": result.reconnect_attempts,
        "reconnects": result.reconnects,
        "dropped_frames": result.dropped_frames,
        "dead_letters": result.dead_letters,
        "eventually_consistent": result.eventually_consistent,
    }


@pytest.mark.skipif(not _fork_available(), reason="no fork start method")
def test_live_faults(run_once, benchmark):
    stop = STOP_FULL if full_sweep() else STOP_QUICK

    # Sources stop with the run, at ``duration``: the same finite workload as
    # the simulator oracle of the same spec.
    run = dict(warmup=ONSET, duration=stop, seed=SEED)

    def sweep():
        return [
            _faulted_run(
                "chain2_disconnect",
                ScenarioSpec.chain(2, aggregate_rate=90.0, **run).with_failure(
                    "disconnect", duration=OUTAGE),
            ),
            _faulted_run(
                "shard4_partition",
                ScenarioSpec.sharded(4, aggregate_rate=120.0, **run).with_partition(
                    "shard1", replica=-1, duration=OUTAGE),
            ),
        ]

    rows = run_once(sweep)
    print_results(
        "Live fault injection: outage ride-through on real processes",
        [
            (
                f"{row['label']:<17} stable={row['stable_tuples']:>6} "
                f"tentative={row['tentative_tuples']:>5} "
                f"injected={row['injected']:>4} wall={row['wall_seconds']:.2f}s "
                f"recovery={row['recovery_s']:.2f}s "
                f"reconnects={row['reconnects']}/{row['reconnect_attempts']} "
                f"consistent={'yes' if row['eventually_consistent'] else 'NO'}"
            )
            for row in rows
        ],
    )

    for row in rows:
        label = row["label"]
        # Hard: the finite workload is fully delivered despite the outage.
        benchmark.extra_info[f"{label}_stable_tuples"] = row["stable_tuples"]
        # Warn-only wall-clock trajectory of the outage and its recovery.
        benchmark.extra_info[f"{label}_wall_ms"] = round(row["wall_seconds"] * 1000, 3)
        benchmark.extra_info[f"{label}_tentative_wall_ms"] = round(
            row["tentative_span_s"] * 1000, 3
        )
        benchmark.extra_info[f"{label}_recovery_wall_ms"] = round(
            row["recovery_s"] * 1000, 3
        )
        # Untracked context for the job log.
        benchmark.extra_info[f"{label}_reconnect_attempts"] = row["reconnect_attempts"]
        benchmark.extra_info[f"{label}_injected_faults"] = row["injected"]
        assert row["eventually_consistent"], label
        assert row["tentative_tuples"] > 0, f"{label}: outage never went tentative"
        assert row["dead_letters"] == 0, f"{label}: transport dead-lettered frames"
