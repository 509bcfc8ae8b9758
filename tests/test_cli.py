"""Tests for the ``python -m repro`` command-line interface."""

import inspect
import os
import pstats

import pytest

from repro import cli
from repro.analysis.registry import Experiment
from repro.analysis.tables import ResultTable
from repro.workloads.catalogue import CATALOGUE


# --------------------------------------------------------------------------- helpers
def fake_experiment(name="fake"):
    def runner(scale):
        table = ResultTable(title=f"{name} ({scale})", row_label="r", column_label="c")
        table.set("row", "col", 1.25)
        return [table]

    return Experiment(name, "a fake experiment for CLI tests", runner)


@pytest.fixture
def with_fake_experiment(monkeypatch):
    registry = dict(cli.EXPERIMENTS)
    registry["fake"] = fake_experiment()
    monkeypatch.setattr(cli, "EXPERIMENTS", registry)
    return registry


# --------------------------------------------------------------------------- list / claims
def test_list_prints_every_experiment(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("table3", "fig13", "fig16", "table4", "replicas", "crash"):
        assert name in out


def test_claims_prints_paper_claims(capsys):
    assert cli.main(["claims"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out
    assert "Section 6.2" in out


# --------------------------------------------------------------------------- run
def test_run_unknown_experiment_fails(capsys):
    assert cli.main(["run", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_text_output(with_fake_experiment, capsys):
    assert cli.main(["run", "fake"]) == 0
    out = capsys.readouterr().out
    assert "fake (quick)" in out
    assert "1.25" in out


def test_run_full_scale_reaches_runner(with_fake_experiment, capsys):
    assert cli.main(["run", "fake", "--scale", "full"]) == 0
    assert "fake (full)" in capsys.readouterr().out


def test_run_markdown_format(with_fake_experiment, capsys):
    assert cli.main(["run", "fake", "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert out.lstrip().startswith("|")


def test_run_csv_to_file(with_fake_experiment, tmp_path, capsys):
    target = tmp_path / "out.csv"
    assert cli.main(["run", "fake", "--format", "csv", "--output", str(target)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert "row,1.25" in target.read_text()


# --------------------------------------------------------------------------- registry coverage
def test_every_registered_experiment_has_description():
    for name, command in cli.EXPERIMENTS.items():
        assert command.name == name
        assert command.description


def test_build_parser_smoke():
    parser = cli.build_parser()
    args = parser.parse_args(["run", "table3", "--scale", "quick"])
    assert args.experiment == "table3"
    assert args.scale == "quick"


def test_dag_experiments_registered():
    assert "diamond" in cli.EXPERIMENTS
    assert "fanin" in cli.EXPERIMENTS


def test_shard_experiments_registered():
    assert "shard" in cli.EXPERIMENTS
    assert "shard-throughput" in cli.EXPERIMENTS
    assert "rebalance" in cli.EXPERIMENTS
    assert "autoscale" in cli.EXPERIMENTS


def test_live_faults_experiment_registered():
    assert "live-faults" in cli.EXPERIMENTS
    assert "parity" in cli.EXPERIMENTS["live-faults"].description


# --------------------------------------------------------------------------- catalogue entries
@pytest.mark.parametrize("command", ["scenario", "profile", "plan-delays"])
def test_help_lists_every_catalogue_entry_with_its_keywords(capsys, command):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    help_text = capsys.readouterr().out
    for name, build in CATALOGUE.items():
        assert f"  {name}{cli._signature(build)}\n" in help_text, name
    assert "chain-silence(depth: int = 4, failure_duration: float = 30.0" in help_text
    assert "Table III: Proc_new vs failure duration" in help_text


def test_every_catalogue_keyword_has_a_type_the_cli_parses():
    for name, build in CATALOGUE.items():
        for parameter in inspect.signature(build).parameters.values():
            kinds = [kind.strip() for kind in str(parameter.annotation).split("|")]
            assert set(kinds) <= set(cli._TYPES), (name, parameter)


def test_the_three_entry_commands_define_five_flags():
    parser = cli.build_parser()
    commands = parser._subparsers._group_actions[0].choices
    flags = {
        command: sorted(option for action in commands[command]._actions
                        for option in action.option_strings if option not in ("-h", "--help"))
        for command in ("scenario", "profile", "plan-delays")
    }
    assert flags == {"scenario": ["--backend"],
                     "profile": ["--backend", "--out", "--sort", "--top"],
                     "plan-delays": []}


@pytest.mark.parametrize(
    "text, annotation, value",
    [("15", "float", 15.0), ("0.5", "float | None", 0.5), ("None", "float | None", None),
     ("4", "int", 4), ("True", "bool", True), ("Delay & Delay", "str", "Delay & Delay"),
     ("'Process & Process'", "str", "Process & Process")],
)
def test_values_parse_as_literals_of_the_annotated_type(text, annotation, value):
    parsed = cli._typed("key", text, annotation)
    assert parsed == value and type(parsed) is type(value)


# --------------------------------------------------------------------------- scenario
def test_scenario_runs_a_catalogue_entry(capsys):
    assert cli.main(["scenario", "chain2-disconnect"]) == 0
    out = capsys.readouterr().out
    assert "scenario 'golden-chain': topology=chain-2" in out
    assert "failure: stream_disconnect on source.s1->node1 at t=5s for 6s" in out
    assert "Proc_new" in out
    assert "eventually consistent:                 True" in out


def test_scenario_keywords_reach_the_builder(capsys):
    assert cli.main(["scenario", "live-throughput-chain2", "aggregate_rate=60", "warmup=1"]) == 0
    out = capsys.readouterr().out
    assert "rate=60 tuples/s" in out
    assert "failure:" not in out


def test_scenario_diamond_topology(capsys):
    assert cli.main(["scenario", "diamond", "failure_duration=2", "seed=3"]) == 0
    out = capsys.readouterr().out
    assert "topology=diamond nodes=ingest,left,right,merge" in out
    assert "seed=3" in out
    assert out.count("node_crash on left") == 2  # both replicas


def test_scenario_shard_kill(capsys):
    assert cli.main(["scenario", "shard-kill", "shards=2", "failure_duration=4"]) == 0
    out = capsys.readouterr().out
    assert "topology=shard-2 nodes=split,shard1,shard2,merge" in out
    assert out.count("node_crash on shard1") == 2  # both replicas
    assert "eventually consistent:                 True" in out


def test_scenario_live_rebalance(capsys):
    assert cli.main(["scenario", "shard4-rebalance"]) == 0
    out = capsys.readouterr().out
    assert "rebalance at t=16s" in out
    assert "bucket move(s)" in out
    assert "eventually consistent:                 True" in out


def test_scenario_autoscale(capsys):
    assert cli.main(["scenario", "shard2-autoscale"]) == 0
    out = capsys.readouterr().out
    assert "scale-out" in out
    assert "scale-in" in out
    assert "autoscale:" in out
    assert "eventually consistent:                 True" in out


def test_scenario_partition(capsys):
    assert cli.main(["scenario", "live-partition-shard4"]) == 0
    out = capsys.readouterr().out
    assert out.count("partition on shard1") == 2  # both replicas isolated
    assert "failure: partition on shard1<->* at t=1.5s for 1s" in out
    assert "eventually consistent:                 True" in out


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["scenario", "live-throughput-chain2", "aggregate_rate=0"], "rate"),
        (["profile", "shard-throughput", "shards=0"], "shard count must be >= 1"),
        (["plan-delays", "chain-throughput", "depth=0"], "chain depth"),
        (["scenario", "nope"], "unknown entry 'nope'; entries: table3, fig13,"),
        (["profile", "table3", "depth=2"],
         "table3 takes no 'depth=2'; its keywords: (failure_duration: float = 10.0)"),
        (["plan-delays", "table3", "failure_duration"], "takes no 'failure_duration'"),
        (["scenario", "table3", "failure_duration=abc"], "failure_duration=abc is not float"),
        (["scenario", "chain-throughput", "depth=2.5"], "depth=2.5 is not int"),
        (["scenario", "fig13", "policy=Foo"], "unknown policy 'Foo'; one of 'Process & Process'"),
        # fanin's failure is a silence: refused before any worker process forks.
        (["scenario", "fanin", "--backend", "live"], "failure kind 'silence' is simulator-only"),
        # Acknowledgments are the only retention rule: no buffer bound to set.
        (["scenario", "buffers", "max_output_tuples=400"],
         "buffers takes no 'max_output_tuples=400'; its keywords: (checkpoint_interval:"),
        (["scenario", "buffers", "block_on_full=True"], "buffers takes no 'block_on_full=True'"),
        # A node's control work runs from its one tick: keepalive on the batch grid.
        (["scenario", "detection", "keepalive_period=0.07"],
         "keepalive_period 0.07 must be a whole multiple of batch_interval 0.05"),
    ],
    ids=["scenario-rate", "profile-shards", "plan-delays-depth",
         "unknown-entry", "unknown-key", "key-without-value", "bad-float", "bad-int",
         "unknown-name", "live-rejects-silence", "no-buffer-bound", "no-block-on-full",
         "keepalive-off-batch-grid"],
)
def test_bad_flags_exit_2_with_one_line_and_no_traceback(capsys, argv, reason):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"invalid {argv[0]}: ")
    assert reason in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


# --------------------------------------------------------------------------- plan-delays
def test_plan_delays_prints_the_override_the_deployment_is_wired_with(capsys):
    assert cli.main(["plan-delays", "delay-assignment"]) == 0
    out = capsys.readouterr().out
    assert "strategy: full (overridden: per_node_delay)" in out
    assert "masked failure duration: 6.5 s" in out
    assert out.count("D = 6.5 s") == 4
    assert "path node1 -> node2 -> node3 -> node4: accumulated 26 s [OVER BUDGET]" in out


def test_plan_delays_uniform_override(capsys):
    assert cli.main(["plan-delays", "delay-assignment", "variant=Delay & Delay, D=2s each"]) == 0
    out = capsys.readouterr().out
    assert out.count("D = 2 s") == 4
    assert "accumulated 8 s [ok]" in out


def test_plan_delays_diamond_topology(capsys):
    assert cli.main(["plan-delays", "diamond"]) == 0
    out = capsys.readouterr().out
    assert "longest path: 3" in out
    assert "strategy: uniform\n" in out
    assert "path ingest -> left -> merge: accumulated 3 s [ok]" in out
    assert "  merge: D = 1 s" in out
    assert "note: budget split across the longest path of 3 node(s)" in out


def test_plan_delays_shard_topology(capsys):
    assert cli.main(["plan-delays", "shard-kill", "shards=2"]) == 0
    out = capsys.readouterr().out
    assert "longest path: 3" in out
    assert "path split -> shard2 -> merge" in out
    assert "shard3" not in out


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_plan_delays_prints_the_budgets_the_deployment_is_wired_with(capsys, name):
    assert cli.main(["plan-delays", name]) == 0
    printed = [line.strip() for line in capsys.readouterr().out.splitlines()
               if line.startswith("  ") and ": D = " in line]
    wired = CATALOGUE[name]().build().deployment.wiring.delay_budgets  # deploy only, no run
    assert printed == [f"{node}: D = {delay:g} s" for node, delay in wired.items()]


# --------------------------------------------------------------------------- closed stdout
def test_a_closed_stdout_ends_main_quietly(monkeypatch, capsys):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader went away, like ``repro ... | head`` after its lines
    closed = os.fdopen(write_end, "w")
    monkeypatch.setattr("sys.stdout", closed)
    try:
        assert cli.main(["plan-delays", "diamond"]) == 1
        closed.flush()  # stdout now points at devnull: the exit flush cannot raise
    finally:
        closed.close()
    assert capsys.readouterr().err == ""


# --------------------------------------------------------------------------- profile
def test_profile_runs_an_entry_under_cprofile(capsys):
    code = cli.main(["profile", "live-throughput-chain2", "aggregate_rate=120", "warmup=3",
                     "--top", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "profiled scenario 'chain-2': 3 simulated s" in out
    assert "stable tuples/s" in out
    # The pstats table with the requested restriction and sort order.
    assert "cumtime" in out
    assert "due to restriction <5>" in out


def test_profile_shard_sort_by_tottime(capsys):
    code = cli.main(["profile", "live-throughput-shard4", "aggregate_rate=120", "warmup=3",
                     "--top", "4", "--sort", "tottime"])
    out = capsys.readouterr().out
    assert code == 0
    assert "top 4 by tottime" in out
    assert "Ordered by: internal time" in out


@pytest.mark.skipif(
    os.environ.get("REPRO_LIVE_TESTS") != "1",
    reason="forks live worker processes; set REPRO_LIVE_TESTS=1 to run",
)
def test_profile_live_writes_one_profile_per_worker(capsys, tmp_path):
    code = cli.main(["profile", "live-throughput-chain2", "aggregate_rate=300", "warmup=2",
                     "--backend", "live", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "profiled live 'chain-2': 5 worker processes" in out
    # The edge worker plus one worker per node replica, each a loadable profile
    # that saw the codec run.
    assert sorted(os.listdir(tmp_path)) == [
        "edge.pstats", "node1-r0.pstats", "node1-r1.pstats", "node2-r0.pstats", "node2-r1.pstats"
    ]
    for name in os.listdir(tmp_path):
        functions = {key[2] for key in pstats.Stats(str(tmp_path / name)).stats}
        assert "decode_envelope" in functions and "encode_payload" in functions
    assert out.count("wire codec") == 5
    assert out.count(" wakeups/s; ") == 5
    assert out.count("due to restriction <15>") == 5


def test_profile_live_without_fork_is_a_one_line_error(capsys, monkeypatch, tmp_path):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    code = cli.main(["profile", "live-throughput-chain2", "warmup=1", "--backend", "live",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "live backend unavailable" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
