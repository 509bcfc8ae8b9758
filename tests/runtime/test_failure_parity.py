"""One failure schedule, both backends: the twin of ``tests/deploy/test_wiring.py``.

A :class:`FailureSpec` target is interpreted once, by
:func:`repro.workloads.scenarios.resolve_failures`; ``ScenarioSpec.validate``,
the simulator's ``FailureInjector.inject`` and the live backend's
``compile_failures`` only consume its result.  These tests pin that from the
outside, without forking: the endpoints the simulator's ``FailureRecord`` s
name are the endpoints of the live plan's ``LinkRule`` s / ``LiveKill`` s, a bad
target is the same ``ConfigurationError`` at all three seams, and
``ScenarioSpec.run_live`` hands the live supervisor the whole compiled
schedule for the run length the simulator uses.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro import ScenarioSpec, cli
from repro.deploy import AutoscalePolicy, compile as compile_topology
from repro.errors import ConfigurationError
from repro.live import supervisor
from repro.live.faults import compile_failures
from repro.runtime.runtime import LIVE_POST_STOP_SLACK
from repro.workloads.scenarios import FailureSpec, resolve_failures

SHAPES = {
    "chain2": lambda **kw: ScenarioSpec.chain(2, **kw),
    "diamond": lambda **kw: ScenarioSpec.diamond(**kw),
    "fanin": lambda **kw: ScenarioSpec.fanin(**kw),
    "shard4": lambda **kw: ScenarioSpec.sharded(4, **kw),
}


def _sim_endpoints(spec: ScenarioSpec) -> list:
    """What the simulator's failure records name, in injection order."""
    named = []
    for record in spec.build().start().injected:
        kind = record.failure_type.value
        if kind == "stream_disconnect":
            named.append((kind, tuple(record.target.split("->"))))
        elif kind == "partition":
            named.append((kind, record.target.removesuffix("<->*")))
        else:
            named.append((kind, record.target))
    return named


def _live_endpoints(spec: ScenarioSpec) -> list:
    """What the compiled live plan names: link rules first, then kills."""
    placement = compile_topology(spec.topology, spec.replicas_per_node)
    plan, kills = compile_failures(placement, spec.resolved_failures(), seed=1)
    named = [
        (rule.kind, (rule.sender, rule.receiver))
        if rule.kind == "stream_disconnect"
        else (rule.kind, rule.sender)
        for rule in plan.rules
    ]
    named += [
        ("node_crash", placement.node_plan(kill.node).replica_names[kill.replica])
        for kill in kills
    ]
    return named


# --------------------------------------------------------------------------- endpoint parity
@pytest.mark.parametrize("replica", [0, -1])
@pytest.mark.parametrize("kind", ["partition", "crash"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_node_failures_name_the_same_endpoints_on_both_backends(shape, kind, replica):
    base = SHAPES[shape](warmup=1.0, settle=1.0, seed=1)
    for name in base.topology.node_names:
        spec = base.with_failure(kind, duration=1.0, node=name, node_replica=replica)
        sim = _sim_endpoints(spec)
        assert sim == _live_endpoints(spec)
        expected = [name, name + "'"] if replica == -1 else [name]
        assert [endpoint for _, endpoint in sim] == expected


@pytest.mark.parametrize("kind", ["partition", "crash"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_unnamed_node_target_is_the_first_node_in_topological_order(shape, kind):
    base = SHAPES[shape](warmup=1.0, settle=1.0, seed=1)
    first = base.topology.node_names[0]
    spec = base.with_failure(kind, duration=1.0)
    sim = _sim_endpoints(spec)
    assert sim == _live_endpoints(spec)
    assert [endpoint for _, endpoint in sim] == [first]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_disconnects_sever_the_same_links_on_both_backends(shape):
    base = SHAPES[shape](warmup=1.0, settle=1.0, seed=1)
    topology = base.topology
    for index, stream in enumerate(topology.source_streams):
        spec = base.with_failure("disconnect", duration=1.0, stream_index=index)
        sim = _sim_endpoints(spec)
        assert sim == _live_endpoints(spec)
        consumers = [node.name for node in topology.consumers_of(stream)]
        assert [link for _, link in sim] == [
            (f"source.{stream}", name + tick) for name in consumers for tick in ("", "'")
        ]


def test_mixed_schedule_keeps_every_action():
    spec = (
        ScenarioSpec.chain(2, warmup=1.0, settle=1.0, seed=1)
        .with_failure("disconnect", duration=1.0)
        .with_branch_crash("node2", duration=1.0)
        .with_failure("crash", duration=1.0, node="node1")
        .with_partition("node2", replica=1, duration=1.0)
    )
    sim, live = _sim_endpoints(spec), _live_endpoints(spec)
    assert len(sim) == len(live) == 2 + 2 + 1 + 1
    assert sorted(sim) == sorted(live)  # live lists rules before kills


# --------------------------------------------------------------------------- one error
BAD_TARGETS = {
    "unknown node": dict(kind="crash", node="nope"),
    "node past the end of the chain": dict(kind="partition", node="node7"),
    "replica out of range": dict(kind="crash", node="node1", node_replica=2),
    "negative replica": dict(kind="partition", node="node1", node_replica=-2),
    "stream out of range": dict(kind="disconnect", stream_index=3),
    "negative stream": dict(kind="silence", stream_index=-1),
    "unknown kind": dict(kind="meteor"),
    "empty window": dict(kind="disconnect", duration=0.0),
}


@pytest.mark.parametrize("case", sorted(BAD_TARGETS))
def test_bad_target_is_the_same_error_at_every_seam(case):
    fields = dict(start=1.0, duration=1.0)
    fields.update(BAD_TARGETS[case])
    failure = FailureSpec(**fields)
    spec = ScenarioSpec.chain(2, warmup=1.0, settle=1.0, failures=(failure,))
    placement = compile_topology(spec.topology, spec.replicas_per_node)
    messages = []
    for seam in (
        spec.validate,
        lambda: resolve_failures(placement, [failure]),
        lambda: compile_failures(placement, [failure], seed=1),
    ):
        with pytest.raises(ConfigurationError) as error:
            seam()
        messages.append(str(error.value))
    assert len(set(messages)) == 1, messages


def test_unresolved_start_is_rejected_by_both_consumers():
    failure = FailureSpec("disconnect", None, 1.0)
    placement = compile_topology(ScenarioSpec.chain(2).topology, 2)
    messages = []
    for seam in (
        lambda: resolve_failures(placement, [failure]),
        lambda: compile_failures(placement, [failure], seed=1),
    ):
        with pytest.raises(ConfigurationError, match="unresolved start") as error:
            seam()
        messages.append(str(error.value))
    assert messages[0] == messages[1]
    # A ScenarioSpec resolves start=None to its warmup, so the same failure is fine there.
    ScenarioSpec.chain(2, failures=(failure,)).validate()


# --------------------------------------------------------------------------- run_live, without forking
class _Ran(Exception):
    """Raised by the stubbed ``LiveDeployment.run``: the compile seam was crossed."""


@pytest.fixture
def live_run(monkeypatch):
    """Capture what ``run_live`` hands the supervisor instead of forking workers."""
    captured = {}

    def run(self, **kwargs):
        captured.update(kwargs, options=self.options, placement=self.placement)
        raise _Ran

    monkeypatch.setattr(supervisor, "require_fork", lambda: None)
    monkeypatch.setattr(supervisor.LiveDeployment, "run", run)
    return captured


def _sharded(**changes) -> ScenarioSpec:
    return ScenarioSpec.sharded(2, skew=1.2, warmup=14.0, settle=16.0, seed=1, **changes)


@pytest.mark.parametrize(
    "spec, needle",
    [
        (_sharded(rebalance_at=14.0), "rebalance_at"),
        (_sharded(autoscale=AutoscalePolicy(min_shards=2, max_shards=4)), "autoscale"),
        (ScenarioSpec.chain(2).with_failure("silence", duration=1.0), "silence"),
    ],
    ids=["rebalance_at", "autoscale", "silence"],
)
def test_run_live_rejects_simulator_only_features_before_forking(live_run, spec, needle):
    spec.validate()  # a fine simulator scenario ...
    with pytest.raises(ConfigurationError, match="simulator-only") as error:
        spec.run_live()  # ... that never reaches LiveDeployment.run
    assert needle in str(error.value)
    assert not live_run


def test_run_live_hands_over_every_compiled_kill(live_run):
    """Regression: ``kill = kill or plan_kills[0]`` kept only the first kill."""
    spec = (
        ScenarioSpec.chain(2, warmup=1.0, settle=2.0, seed=3)
        .with_branch_crash("node1", duration=1.0)
        .with_failure("crash", start=1.5, duration=0.5, node="node2", node_replica=1)
    )
    with pytest.raises(_Ran):
        spec.run_live()
    assert [(k.node, k.replica, k.at, k.downtime) for k in live_run["kill"]] == [
        ("node1", 0, 1.0, 1.0),
        ("node1", 1, 1.0, 1.0),
        ("node2", 1, 1.5, 0.5),
    ]
    assert live_run["faults"].is_empty and live_run["faults"].seed == 3


def test_cli_live_crash_of_every_replica_expands_to_one_kill_each(live_run):
    """Regression: the CLI built ``LiveKill(replica=-1)`` itself and was rejected."""
    with pytest.raises(_Ran):
        cli.main(["scenario", "diamond", "failure_duration=1", "--backend", "live"])
    assert [(k.node, k.replica) for k in live_run["kill"]] == [("left", 0), ("left", 1)]


def test_cli_live_run_lasts_as_long_as_the_simulated_schedule(live_run, capsys):
    """Regression: the live run was ``warmup + settle`` long, so a failure that
    the simulator heals at ``warmup + failure_duration`` "would never heal"."""
    assert cli.main(["scenario", "chain2-disconnect"]) == 0  # the simulator runs it
    assert "at t=5s for 6s" in capsys.readouterr().out
    with pytest.raises(_Ran):
        cli.main(["scenario", "chain2-disconnect", "--backend", "live"])
    # No explicit duration: total_duration() is the failure's end (11 s) plus
    # settle (15 s), not warmup + settle (20 s).
    assert live_run["options"].source_stop_time == 26.0
    assert live_run["duration"] == 26.0 + LIVE_POST_STOP_SLACK
    assert {(rule.start, rule.end) for rule in live_run["faults"].rules} == {(5.0, 11.0)}


def test_both_backends_deploy_the_same_options(live_run):
    spec = ScenarioSpec.sharded(
        2, skew=1.2, aggregate_rate=90.0, warmup=1.0, settle=1.0, seed=5,
        checkpoint_interval=0.5, join_state_size=7,
    )
    with pytest.raises(_Ran):
        spec.run_live()
    live, sim = live_run["options"], spec.build().deployment.wiring.options
    assert live_run["placement"].describe() == spec.build().placement.describe()
    for name in ("config", "sim_config", "aggregate_rate", "join_state_size",
                 "per_node_delay", "diagram_factory", "seed", "rate_profile"):
        assert getattr(live, name) == getattr(sim, name), name
    assert (live.source_stop_time, sim.source_stop_time) == (2.0, None)


def test_oracle_is_the_finite_source_drained_simulator_run():
    spec = ScenarioSpec.chain(1, aggregate_rate=30.0, warmup=1.0, settle=1.0, seed=1)
    oracle = spec.oracle()
    assert oracle.deployment.wiring.options.source_stop_time == spec.total_duration()
    assert oracle.simulator.now == pytest.approx(spec.total_duration() + 6.0)
    assert oracle.eventually_consistent()
    # Sources stopped with the schedule, so a longer drain adds nothing.
    produced = [source.tuples_produced for source in oracle.sources]
    assert produced == [s.tuples_produced for s in oracle.run_for(2.0).sources]


# --------------------------------------------------------------------------- import hygiene
def test_importing_repro_loads_no_live_backend():
    src = Path(__file__).resolve().parents[2] / "src"
    probe = (
        "import sys, repro, repro.cli\n"
        "print([m for m in sys.modules if m.startswith('repro.live')"
        " or m in ('asyncio', 'multiprocessing')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={"PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
