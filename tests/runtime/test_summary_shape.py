"""``SimulationRuntime.summary()`` has one shape, whatever the run did.

Every key is reported on every run -- ``recoveries`` and ``rebalances``
included, as empty lists when nothing rejoined or moved -- so a consumer of
the summary (or of its golden digest) never has to guess whether a missing
key means "nothing happened" or "not measured".
"""

from __future__ import annotations

import pytest

from repro.runtime import ScenarioSpec


def _chain(**changes) -> ScenarioSpec:
    return ScenarioSpec.chain(2, aggregate_rate=60.0, warmup=2.0, settle=4.0, seed=1, **changes)


SPECS = {
    "failure-free chain": lambda: _chain(),
    "disconnect": lambda: _chain().with_failure("disconnect", duration=2.0),
    "checkpoint crash": lambda: _chain().with_failure("crash", duration=3.0, node="node1"),
    "replay crash": lambda: _chain(checkpoint_interval=None).with_failure(
        "crash", duration=3.0, node="node1"
    ),
    "rebalance": lambda: ScenarioSpec.sharded(
        shards=4, skew=1.2, aggregate_rate=120.0, warmup=8.0, settle=4.0, seed=1,
        rebalance_at=8.0,
    ),
}


#: Every key of a run's summary (``autoscale`` joins them when ``spec.autoscale`` is set).
SUMMARY_KEYS = {
    "now", "sources", "nodes", "clients", "scenario", "seed", "topology", "events_fired",
    "eventually_consistent", "sinks_consistent", "failures", "rebalances", "recoveries",
}


@pytest.fixture(scope="module")
def summaries() -> dict[str, dict]:
    return {name: build().run().summary() for name, build in SPECS.items()}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_summary_keys_do_not_depend_on_what_happened(summaries, name):
    assert set(summaries[name]) == SUMMARY_KEYS


def test_failure_free_run_reports_empty_recoveries_and_rebalances(summaries):
    summary = summaries["failure-free chain"]
    assert summary["recoveries"] == []
    assert summary["rebalances"] == []
    assert "autoscale" not in summary  # reported only when spec.autoscale arms the loop


def test_full_replay_rejoins_are_reported(summaries):
    """A rejoin through subscription replay is a recovery like any other."""
    [record] = summaries["replay crash"]["recoveries"]
    assert record["node"] == "node1" and record["mode"] == "replay"
    modes = {record["mode"] for record in summaries["checkpoint crash"]["recoveries"]}
    assert modes == {"checkpoint"}
