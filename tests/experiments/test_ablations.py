"""Tests for the ablation entries of the scenario catalogue.

These are integration-level tests: each one runs a catalogue entry (at a
lower rate where the assertion allows) and reads it through
:func:`repro.experiments.summarize_run`, the registry's one measurement.
Rates are kept low so the whole module runs in a few seconds.
"""

import pytest

from repro.experiments import summarize_run
from repro.workloads.catalogue import CATALOGUE


def _run(name, rate=90.0, **point):
    spec = CATALOGUE[name](**point)
    return summarize_run(spec.with_overrides(aggregate_rate=rate).run())


@pytest.fixture(scope="module")
def replica_results():
    return [
        summarize_run(CATALOGUE["replicas"](replicas=replicas, failure_duration=8.0)
                      .with_overrides(aggregate_rate=90.0, settle=29.0).run())
        for replicas in (1, 2)
    ]


def test_replica_sweep_two_replicas_meet_bound(replica_results):
    by_label = {result.label: result for result in replica_results}
    replicated = by_label["2 replicas"]
    assert replicated.eventually_consistent
    assert replicated.proc_new < 3.75


def test_replica_sweep_single_replica_is_worse(replica_results):
    by_label = {result.label: result for result in replica_results}
    single = by_label["1 replica"]
    replicated = by_label["2 replicas"]
    # With a single replica the node itself must stop serving new data while
    # it reconciles, so its worst-case latency is at least as bad as the
    # replicated deployment's.
    assert single.proc_new >= replicated.proc_new - 0.25
    assert single.eventually_consistent


def test_detection_sweep_reports_monotone_cost():
    results = [_run("detection", keepalive_period=period) for period in (0.1, 0.5)]
    assert len(results) == 2
    fast, slow = results
    assert [fast.label, slow.label] == ["keepalive 100 ms", "keepalive 500 ms"]
    for result in results:
        assert result.eventually_consistent
    # With the paper's 100 ms keepalive, detection is cheap enough that the
    # availability bound still holds.
    assert fast.proc_new < 3.75
    # A slower detection can only delay the reaction, never speed it up; with
    # a 500 ms keepalive the detection timeout eats visibly into the budget
    # (the paper's assumption that detection is much faster than X).
    assert slow.max_gap >= fast.max_gap - 0.3
    assert slow.proc_new >= fast.proc_new - 0.3


def test_crash_failover_masks_the_crash():
    spec = CATALOGUE["crash"](crash_duration=10.0)
    result = summarize_run(spec.with_overrides(aggregate_rate=90.0, settle=25.0).run())
    assert result.eventually_consistent
    # The surviving replica keeps serving: the crash must not show up as a
    # latency spike beyond the availability bound.
    assert result.proc_new < 3.75
    assert result.extra["switches"] >= 1
    assert result.n_undos == 0 or result.n_tentative >= 0  # crash introduces no inconsistency
    assert result.n_tentative == 0


def _buffers(**point):
    return CATALOGUE["buffers"](**point).with_overrides(aggregate_rate=120.0, duration=20.0)


def test_buffer_unbounded_with_truncation_stays_small():
    bounded = summarize_run(_buffers(checkpoint_interval=1.0).run())
    unbounded = summarize_run(_buffers().run())
    assert bounded.label == "acks every 1 s"
    bounded_buffer = bounded.extra["groups"]["node1"]["buffered"]
    assert bounded_buffer < unbounded.extra["groups"]["node1"]["buffered"] / 5
    # Truncation must not change what the client receives.
    assert abs(bounded.n_stable - unbounded.n_stable) <= 0.05 * unbounded.n_stable


def test_buffer_without_truncation_retains_every_output():
    runtime = _buffers().run()
    output = runtime.node("node1").data_path.outputs()[0]
    stamps = [t.stable_seq for t in output.buffered_items() if t.stable_seq is not None]
    assert output.truncated_tuples == 0
    assert stamps == list(range(output.stable_produced)) and len(stamps) > 0
    assert summarize_run(runtime).label == "no truncation"


@pytest.mark.parametrize("checkpoint_interval", [2.0, 0.5])
def test_a_crashed_consumer_pins_the_source_logs_until_it_rejoins(checkpoint_interval):
    """node1's first replica is down from 5 s to 13 s: the sources it reads
    retain everything they produce meanwhile, and its acks after the rejoin
    release it."""
    spec = CATALOGUE["recovery"](checkpoint_interval=checkpoint_interval)
    runtime = spec.build()
    lengths, now = [], 0.0
    for until in (4.5, 12.5, spec.total_duration()):
        runtime.run_for(until - now)
        now = until
        lengths.append(min(len(source.log) for source in runtime.sources))
    before, during, after = lengths
    assert during > 10 * before
    assert after < during / 4


@pytest.mark.parametrize("per_stream", [False, True])
def test_granularity_run_is_consistent(per_stream):
    result = _run("granularity", per_stream=per_stream)
    assert result.eventually_consistent
    assert result.proc_new < 3.75
