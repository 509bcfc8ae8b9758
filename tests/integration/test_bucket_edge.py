"""A failure-free run whose source stamps a tuple exactly on a bucket edge."""

from repro import ScenarioSpec


def test_failure_free_ledger_is_gap_free_across_a_float_bucket_edge():
    # Source s3 emits a boundary at stime 75.3 and then a tuple at 75.3: the
    # tuple opens bucket 753 (753 * 0.1 == 75.3) rather than landing in the
    # already emitted bucket 752 as a silent late drop.
    runtime = ScenarioSpec(
        replicas_per_node=1, aggregate_rate=120.0, warmup=80.0, settle=0.0
    ).run()
    ledger = runtime.client.metrics.consistency.ledger
    seqs = sorted(row.values["seq"] for row in ledger if row.is_stable)
    assert seqs == list(range(len(seqs)))
    assert runtime.eventually_consistent()
