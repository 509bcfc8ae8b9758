"""One spec, both backends, over real processes: ``run_live()`` against ``oracle()``.

The tier-1 half (``tests/runtime/test_failure_parity.py``) checks, without
forking, that both backends compile a spec to the same endpoints; this is the
other half: forked workers and the simulator end with the byte-identical
stable ledger for the same :class:`~repro.runtime.ScenarioSpec`.  Spawns
worker processes, so it only runs with ``REPRO_LIVE_TESTS=1`` (the CI
live-smoke job sets it).
"""

from __future__ import annotations

import os

import pytest

from repro import ScenarioSpec
from repro.runtime import stable_ledger_rows

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_LIVE_TESTS") != "1",
    reason="live-backend tests spawn processes and take wall-clock time; "
    "set REPRO_LIVE_TESTS=1 to run them",
)


def _chain2(**changes) -> ScenarioSpec:
    return ScenarioSpec.chain(2, aggregate_rate=90.0, warmup=1.5, settle=1.5, seed=1, **changes)


def test_disconnect_spec_matches_oracle():
    spec = _chain2().with_failure("disconnect", duration=1.0)
    result = spec.run_live()
    assert result.total_tentative > 0, "outage produced no tentative output"
    assert result.injected_faults() and result.dead_letters == 0
    assert result.eventually_consistent
    assert result.stable_rows() == stable_ledger_rows(spec.oracle().client)


def test_replica_crash_spec_matches_oracle():
    spec = _chain2(checkpoint_interval=0.5).with_failure(
        "crash", duration=1.0, node="node1", node_replica=0
    )
    result = spec.run_live()
    assert [kill["endpoint"] for kill in result.kills] == ["node1"]
    assert [record["endpoint"] for record in result.recoveries()] == ["node1"]
    assert result.eventually_consistent
    assert result.stable_rows() == stable_ledger_rows(spec.oracle().client)
