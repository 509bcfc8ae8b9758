"""Multi-sink (pure fan-out) reporting: no sink may be silently dropped.

Regression guard for the harness bug where ``Cluster.client`` (=
``clients[0]``) was the only sink the experiment summaries looked at: a pure
fan-out deployment got one measuring client per sink but ``summarize_run``
and ``eventually_consistent`` reported the first client only, so a broken
second sink could never fail an experiment.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import summarize_run
from repro.runtime import NodeSpec, ScenarioSpec, Topology


def fanout_spec(**changes) -> ScenarioSpec:
    """ingest -> two independent sinks, each receiving the full stream."""
    return ScenarioSpec(
        name=changes.pop("name", "fanout"),
        topology=Topology([
            NodeSpec(name="ingest", inputs=("s1", "s2")),
            NodeSpec(name="sink_a", inputs=("ingest",)),
            NodeSpec(name="sink_b", inputs=("ingest",)),
        ]),
        aggregate_rate=changes.pop("aggregate_rate", 80.0),
        warmup=changes.pop("warmup", 4.0),
        settle=changes.pop("settle", 10.0),
        seed=changes.pop("seed", 1),
        **changes,
    )


@pytest.fixture(scope="module")
def fanout_runtime():
    return fanout_spec().run()


def test_fanout_builds_one_client_per_sink(fanout_runtime):
    assert [c.name for c in fanout_runtime.clients] == ["client", "client2"]
    # The legacy accessor still answers with the primary sink.
    assert fanout_runtime.client is fanout_runtime.clients[0]


def test_summarize_run_aggregates_every_sink(fanout_runtime):
    """Fails on the old behavior, which summarized ``clients[0]`` only."""
    result = summarize_run(fanout_runtime)
    per_client = [c.summary()["total_stable"] for c in fanout_runtime.clients]
    assert all(count > 0 for count in per_client), "both sinks must receive data"
    # The aggregate is the sum over sinks -- the old code reported only
    # per_client[0], which is strictly smaller here.
    assert result.n_stable == sum(per_client)
    assert result.n_stable > per_client[0]


def test_summarize_run_reports_per_sink_breakdown(fanout_runtime):
    result = summarize_run(fanout_runtime)
    per_sink = result.extra["per_sink"]
    assert set(per_sink) == {"client", "client2"}
    for name, summary in per_sink.items():
        assert summary["total_stable"] > 0, name
        assert summary["eventually_consistent"] is True, name


def test_single_sink_results_do_not_grow_a_breakdown():
    result = summarize_run(ScenarioSpec.single_node(settle=8.0, seed=1).run())
    assert "per_sink" not in result.extra


def test_eventual_consistency_requires_every_sink():
    runtime = fanout_spec(name="fanout-corrupted").run()
    assert runtime.eventually_consistent()
    # Corrupt the *second* sink's ledger: the run verdict must flip, which it
    # did not when only clients[0] was consulted.  The ledger is append-only
    # (its prefix is sealed), so the corruption is a supported mutation: the
    # sink observes one of its stable tuples a second time.
    tracker = runtime.clients[1].metrics.consistency
    tracker.observe(tracker.ledger[len(tracker.ledger) // 2])
    assert not runtime.eventually_consistent()
    assert runtime.summary()["sinks_consistent"] == {"client": True, "client2": False}


def test_runtime_summary_lists_every_sink_verdict():
    runtime = fanout_spec(name="fanout-summary").run()
    summary = runtime.summary()
    assert set(summary["sinks_consistent"]) == {"client", "client2"}
    assert all(summary["sinks_consistent"].values())
    assert len(summary["clients"]) == 2


def test_cluster_without_clients_still_raises():
    from repro.sim.cluster import Cluster
    from repro.sim.event_loop import Simulator
    from repro.sim.network import Network
    from repro.sim.failures import FailureInjector

    simulator = Simulator()
    network = Network(simulator)
    cluster = Cluster(
        simulator=simulator,
        network=network,
        failures=FailureInjector(simulator=simulator, network=network),
    )
    with pytest.raises(ConfigurationError):
        cluster.client
