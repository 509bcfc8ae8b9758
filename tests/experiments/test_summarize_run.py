"""What :func:`repro.experiments.summarize_run` records of a run."""

import pytest

from repro.experiments import summarize_run
from repro.workloads.catalogue import CATALOGUE


def _short(name: str, **point):
    """A catalogue entry cut to a few simulated seconds around a 1 s failure."""
    spec = CATALOGUE[name](failure_duration=1.0, **point)
    return summarize_run(spec.with_overrides(aggregate_rate=60.0, warmup=1.0, settle=2.0).run())


@pytest.mark.parametrize("name, point, depth", [
    ("diamond", {}, 3),  # ingest -> left -> merge
    ("fanin", {}, 2),  # branch1 -> merge
    ("shard-kill", {"shards": 4}, 3),  # split -> shard1 -> merge
    ("chain-silence", {"depth": 3}, 3),
])
def test_chain_depth_is_the_longest_path_of_the_deployed_topology(name, point, depth):
    assert _short(name, **point).chain_depth == depth


def test_records_every_node_group_and_the_run_records():
    result = _short("shard-kill", shards=2)
    assert list(result.extra["groups"]) == ["split", "shard1", "shard2", "merge"]
    assert set(result.extra["states"]) == set(result.extra["groups"])
    assert result.extra["groups"]["merge"]["stable"] > 0
    assert result.extra["availability_bound"] == 3.0
    assert result.extra["split_egress"] > 0
    assert result.extra["rebalances"] == []
    # Both replicas of shard1 crashed; each rejoin is on record.
    assert sorted(record["node"] for record in result.extra["recoveries"]) == ["shard1", "shard1'"]
    assert "autoscale" not in result.extra
    assert result.failure_duration == 1.0


def test_ledger_digest_ignores_the_recovery_path():
    """Checkpoint-shipped and full-replay rejoins deliver the same stable rows."""
    ckpt, replay = (
        summarize_run(CATALOGUE["recovery"](failure_duration=4.0, checkpoint_interval=interval)
                      .run())
        for interval in (2.0, None)
    )
    assert [ckpt.extra["recoveries"][-1]["mode"], replay.extra["recoveries"][-1]["mode"]] == [
        "checkpoint", "replay"
    ]
    assert ckpt.extra["ledger_sha256"] == replay.extra["ledger_sha256"]
