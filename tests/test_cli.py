"""Tests for the ``python -m repro`` command-line interface."""

import os
import pstats

import pytest

from repro import cli
from repro.analysis.tables import ResultTable


# --------------------------------------------------------------------------- helpers
def fake_experiment(name="fake"):
    def runner(scale):
        table = ResultTable(title=f"{name} ({scale})", row_label="r", column_label="c")
        table.set("row", "col", 1.25)
        return [table]

    return cli.ExperimentCommand(name, "a fake experiment for CLI tests", runner)


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


# --------------------------------------------------------------------------- scenario
def test_scenario_runs_declarative_deployment(capsys):
    code = cli.main(
        [
            "scenario",
            "--rate", "90",
            "--settle", "15",
            "--failure", "disconnect",
            "--failure-duration", "6",
            "--seed", "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Proc_new" in out
    assert "eventually consistent:                 True" in out
    assert "stream_disconnect" in out


def test_scenario_without_failure(capsys):
    assert cli.main(["scenario", "--rate", "60", "--settle", "5", "--warmup", "1"]) == 0
    assert "failure:" not in capsys.readouterr().out


# --------------------------------------------------------------------------- plan-delays
def test_plan_delays_full_strategy(capsys):
    assert cli.main(["plan-delays", "--depth", "4", "--budget", "8", "--strategy", "full"]) == 0
    out = capsys.readouterr().out
    assert "D = 6.5 s" in out
    assert "masked failure duration: 6.5 s" in out


def test_plan_delays_uniform_strategy(capsys):
    assert cli.main(["plan-delays", "--depth", "4", "--budget", "8", "--strategy", "uniform"]) == 0
    out = capsys.readouterr().out
    assert "D = 2 s" in out


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


# --------------------------------------------------------------------------- DAG topologies
def test_scenario_diamond_topology(capsys):
    code = cli.main(
        ["scenario", "--topology", "diamond", "--rate", "60", "--settle", "5",
         "--warmup", "1", "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "topology=diamond" in out
    assert "ingest,left,right,merge" in out


def test_scenario_rejects_unknown_failure_node(capsys):
    code = cli.main(
        ["scenario", "--topology", "diamond", "--failure", "crash",
         "--failure-node", "nope", "--seed", "1"]
    )
    assert code == 2
    assert "invalid scenario" in capsys.readouterr().err


def test_scenario_crash_without_failure_node_hits_the_first_node(capsys):
    code = cli.main(
        ["scenario", "--topology", "diamond", "--failure", "crash", "--failure-duration", "2",
         "--rate", "60", "--warmup", "1", "--settle", "6", "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "failure: node_crash on ingest at t=1s for 2s" in out


def test_scenario_names_failure_targets_only_by_node(capsys):
    with pytest.raises(SystemExit):
        cli.main(["scenario", "--help"])
    help_text = capsys.readouterr().out
    assert "--failure-node" in help_text and "--failure-level" not in help_text
    with pytest.raises(SystemExit):
        cli.main(["scenario", "--failure-level", "1"])
    assert "unrecognized arguments: --failure-level" in capsys.readouterr().err


def test_plan_delays_diamond_topology(capsys):
    assert cli.main(["plan-delays", "--topology", "diamond", "--budget", "9",
                     "--strategy", "uniform"]) == 0
    out = capsys.readouterr().out
    assert "longest path: 3" in out
    assert "path ingest -> left -> merge" in out
    assert "D = 3 s" in out


def test_dag_experiments_registered():
    assert "diamond" in cli.EXPERIMENTS
    assert "fanin" in cli.EXPERIMENTS


def test_scenario_fanin_honors_streams(capsys):
    code = cli.main(["scenario", "--topology", "fanin", "--streams", "6", "--rate", "60",
                     "--settle", "4", "--warmup", "1", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "topology=fanin" in out


def test_scenario_fanin_rejects_odd_streams(capsys):
    code = cli.main(["scenario", "--topology", "fanin", "--streams", "5"])
    assert code == 2
    assert "2 branches" in capsys.readouterr().err


def test_scenario_failure_node_requires_crash(capsys):
    code = cli.main(["scenario", "--topology", "diamond", "--failure", "disconnect",
                     "--failure-node", "left"])
    assert code == 2
    assert "--failure-node" in capsys.readouterr().err


def test_scenario_rejects_zero_streams(capsys):
    code = cli.main(["scenario", "--streams", "0"])
    assert code == 2
    assert "invalid scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["scenario", "--rate", "0"], "rate"),
        (["profile", "aggregate", "--window-size", "-1", "--duration", "1"],
         "window size must be positive"),
        (["profile", "aggregate", "--window-size", "0.3", "--window-slide", "0.1",
          "--duration", "1"], "no exact pane decomposition"),
        (["plan-delays", "--depth", "0"], "chain depth"),
    ],
    ids=["scenario-rate", "profile-window-size", "profile-undecomposable", "plan-delays-depth"],
)
def test_bad_flags_exit_2_with_one_line_and_no_traceback(capsys, argv, reason):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"invalid {argv[0]}: ")
    assert reason in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


# --------------------------------------------------------------------------- sharded topology
def test_scenario_shard_topology(capsys):
    code = cli.main(
        ["scenario", "--topology", "shard", "--shards", "2", "--rate", "60",
         "--settle", "5", "--warmup", "1", "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "topology=shard-2" in out
    assert "split,shard1,shard2,merge" in out


def test_scenario_shard_kill_via_cli(capsys):
    code = cli.main(
        ["scenario", "--topology", "shard", "--shards", "2", "--rate", "60",
         "--failure", "crash", "--failure-node", "shard1", "--failure-replica", "-1",
         "--failure-duration", "4", "--settle", "18", "--warmup", "2", "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("node_crash on shard1") == 2  # both replicas
    assert "eventually consistent:                 True" in out


def test_scenario_rejects_unknown_shard(capsys):
    code = cli.main(
        ["scenario", "--topology", "shard", "--shards", "2", "--failure", "crash",
         "--failure-node", "shard9", "--seed", "1"]
    )
    assert code == 2
    assert "shard9" in capsys.readouterr().err


def test_plan_delays_shard_topology(capsys):
    assert cli.main(["plan-delays", "--topology", "shard", "--shards", "4",
                     "--budget", "9", "--strategy", "uniform"]) == 0
    out = capsys.readouterr().out
    assert "longest path: 3" in out
    assert "path split -> shard1 -> merge" in out
    assert "D = 3 s" in out


def test_shard_experiments_registered():
    assert "shard" in cli.EXPERIMENTS
    assert "shard-throughput" in cli.EXPERIMENTS
    assert "rebalance" in cli.EXPERIMENTS
    assert "autoscale" in cli.EXPERIMENTS


def test_scenario_live_rebalance_via_cli(capsys):
    code = cli.main(
        ["scenario", "--topology", "shard", "--shards", "4", "--rate", "120",
         "--skew", "1.2", "--rebalance-at", "14", "--warmup", "14",
         "--settle", "16", "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "rebalance at t=14s" in out
    assert "bucket move(s)" in out
    assert "eventually consistent:                 True" in out


def test_scenario_rebalance_flags_require_shard_topology(capsys):
    code = cli.main(["scenario", "--depth", "1", "--rebalance-at", "5"])
    assert code == 2
    assert "--rebalance-at" in capsys.readouterr().err
    code = cli.main(["scenario", "--topology", "diamond", "--skew", "1.2"])
    assert code == 2
    assert "--skew" in capsys.readouterr().err


def test_scenario_autoscale_requires_shard_topology(capsys):
    code = cli.main(["scenario", "--depth", "1", "--autoscale"])
    assert code == 2
    assert "--autoscale" in capsys.readouterr().err


def test_scenario_surge_until_requires_surge_at(capsys):
    code = cli.main(
        ["scenario", "--topology", "shard", "--shards", "2", "--surge-until", "20"]
    )
    assert code == 2
    assert "--surge-at" in capsys.readouterr().err


def test_scenario_autoscale_via_cli(capsys):
    code = cli.main(
        ["scenario", "--topology", "shard", "--shards", "2", "--rate", "120",
         "--skew", "1.2", "--autoscale", "--surge-at", "14", "--surge-until", "34",
         "--surge-factor", "2", "--warmup", "14", "--settle", "41", "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "scale-out" in out
    assert "scale-in" in out
    assert "autoscale:" in out
    assert "eventually consistent:                 True" in out


# --------------------------------------------------------------------------- profile
def test_profile_runs_scenario_under_cprofile(capsys):
    code = cli.main(
        ["profile", "chain", "--depth", "1", "--rate", "120", "--duration", "3",
         "--top", "5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "profiled scenario 'profile-chain'" in out
    assert "stable tuples/s" in out
    # The pstats table with the requested restriction and sort order.
    assert "cumtime" in out
    assert "due to restriction <5>" in out


def test_profile_shard_sort_by_tottime(capsys):
    code = cli.main(
        ["profile", "shard", "--shards", "2", "--rate", "120", "--duration", "3",
         "--top", "4", "--sort", "tottime"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "top 4 by tottime" in out
    assert "Ordered by: internal time" in out


@pytest.mark.skipif(
    os.environ.get("REPRO_LIVE_TESTS") != "1",
    reason="forks live worker processes; set REPRO_LIVE_TESTS=1 to run",
)
def test_profile_live_writes_one_profile_per_worker(capsys, tmp_path):
    code = cli.main(
        ["profile", "live", "--depth", "2", "--rate", "300", "--duration", "2",
         "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "profiled live chain-2: 3 worker processes" in out
    # The edge worker plus one worker per node replica, each a loadable profile
    # that saw the codec run.
    assert sorted(os.listdir(tmp_path)) == ["edge.pstats", "node1-r0.pstats", "node2-r0.pstats"]
    for name in os.listdir(tmp_path):
        functions = {key[2] for key in pstats.Stats(str(tmp_path / name)).stats}
        assert "decode_envelope" in functions and "encode_payload" in functions
    assert out.count("wire codec") == 3
    assert out.count(" wakeups/s; ") == 3
    assert out.count("due to restriction <15>") == 3


def test_profile_live_without_fork_is_a_one_line_error(capsys, monkeypatch, tmp_path):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    code = cli.main(["profile", "live", "--duration", "1", "--out", str(tmp_path)])
    assert code == 2
    assert "live backend unavailable" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# --------------------------------------------------------------------------- network faults
def test_scenario_partition_via_cli(capsys):
    code = cli.main(
        ["scenario", "--depth", "2", "--rate", "60", "--failure", "partition",
         "--failure-node", "node1", "--failure-replica", "-1",
         "--failure-duration", "4", "--warmup", "2", "--settle", "18", "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("partition on node1") == 2  # both replicas isolated
    assert "eventually consistent:                 True" in out


def test_scenario_partition_at_flag(capsys):
    code = cli.main(
        ["scenario", "--depth", "2", "--rate", "60", "--partition-at", "3",
         "--failure-node", "node1", "--failure-replica", "-1",
         "--failure-duration", "4", "--warmup", "2", "--settle", "18", "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "partition on node1<->* at t=3s for 4s" in out
    assert "eventually consistent:                 True" in out


def test_scenario_disconnect_at_flag(capsys):
    code = cli.main(
        ["scenario", "--depth", "1", "--rate", "60", "--disconnect-at", "3",
         "--failure-duration", "4", "--warmup", "2", "--settle", "15", "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "stream_disconnect" in out
    assert "at t=3s for 4s" in out


def test_scenario_live_rejects_silence(capsys):
    # Rejected at the flag seam, before any worker process spawns.
    code = cli.main(["scenario", "--backend", "live", "--failure", "silence"])
    assert code == 2
    err = capsys.readouterr().err
    assert "silence" in err and "simulator-only" in err


def test_live_faults_experiment_registered():
    assert "live-faults" in cli.EXPERIMENTS
    assert "parity" in cli.EXPERIMENTS["live-faults"].description
