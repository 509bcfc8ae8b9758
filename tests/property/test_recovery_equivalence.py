"""Property tests: checkpoint-shipped recovery is equivalent to full replay.

The ``repro.statexfer`` layer must be a pure performance optimisation.  For
any seed, topology, and failure timing, the client's final *stable* ledger
must be identical whether the crashed replica rejoined from a partner's
shipped checkpoint plus a short replay suffix (``checkpoint_interval=2.0``)
or rebuilt through full subscription replay (``checkpoint_interval=None``).

Ledgers are compared as replica-independent rows -- ``(stable_seq, stime,
values)`` -- because tuple ids are assigned per replica and legitimately
differ between runs that fail over to different replicas.

A dedicated deterministic case crashes the replica *while it is emitting a
correction burst* (an overlapping disconnect has just healed): the paper's
single-pass reconciliation would leave the client holding a partial
correction, and this scenario used to be a known deviation.  Recovery in
either mode must still converge every client to a consistent ledger.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import stable_ledger_rows
from repro.runtime import ScenarioSpec

#: End-to-end simulations are expensive; a handful of drawn examples covers
#: the (seed, depth, rate, failure timing) grid.
SIMULATED = settings(
    max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _crash_run(
    checkpoint_interval,
    *,
    seed,
    chain_depth,
    aggregate_rate,
    crash_start,
    crash_duration,
    level,
):
    return (
        ScenarioSpec.chain(
            chain_depth,
            name="property-recovery",
            aggregate_rate=aggregate_rate,
            seed=seed,
            warmup=5.0,
            settle=20.0 + crash_duration * 0.5,
            checkpoint_interval=checkpoint_interval,
        )
        .with_failure(
            "crash",
            start=crash_start,
            duration=crash_duration,
            node=f"node{min(level, chain_depth - 1) + 1}",
            node_replica=0,
        )
        .run()
    )


@SIMULATED
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    chain_depth=st.sampled_from([1, 2]),
    aggregate_rate=st.sampled_from([60.0, 90.0]),
    crash_start=st.sampled_from([5.0, 6.3, 8.0]),
    crash_duration=st.sampled_from([4.0, 7.0, 10.0]),
    level=st.sampled_from([0, 1]),
)
def test_checkpoint_recovery_matches_full_replay(
    seed, chain_depth, aggregate_rate, crash_start, crash_duration, level
):
    kwargs = dict(
        seed=seed,
        chain_depth=chain_depth,
        aggregate_rate=aggregate_rate,
        crash_start=crash_start,
        crash_duration=crash_duration,
        level=level,
    )
    checkpointed = _crash_run(2.0, **kwargs)
    replay = _crash_run(None, **kwargs)
    assert checkpointed.eventually_consistent()
    assert replay.eventually_consistent()
    rows = stable_ledger_rows(checkpointed.client)
    assert rows, "scenario produced no stable output"
    assert rows == stable_ledger_rows(replay.client)


def _mid_correction_run(checkpoint_interval, seed=1):
    """Disconnect stream 0, then crash the client's replica mid-correction.

    The disconnect (5 s -> 13 s) drives the deployment tentative; healing
    triggers reconciliation, and the crash at 13.2 s lands while the
    correction burst toward the client is in flight.  The crash outlasts
    nothing -- the partner keeps serving -- so the client must switch, drop
    the partial correction, and still end with a consistent ledger.
    """
    return (
        ScenarioSpec.chain(
            1,
            name="mid-correction-crash",
            aggregate_rate=60.0,
            seed=seed,
            warmup=5.0,
            settle=35.0,
            checkpoint_interval=checkpoint_interval,
        )
        .with_failure("disconnect", start=5.0, duration=8.0, stream_index=0)
        .with_failure("crash", start=13.2, duration=5.0, node="node1", node_replica=0)
        .run()
    )


def test_mid_correction_crash_converges_in_both_modes():
    for interval in (2.0, None):
        runtime = _mid_correction_run(interval)
        label = f"checkpoint_interval={interval}"
        # The disconnect must actually have produced a correction to lose:
        # the client saw tentative data and at least one undo.
        client = runtime.client
        assert client.metrics.consistency.total_tentative > 0, label
        assert client.metrics.consistency.total_undos >= 1, label
        assert runtime.eventually_consistent(), label
