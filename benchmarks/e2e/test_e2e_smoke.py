"""Smoke test of the end-to-end benchmark (tier-1, a few seconds).

Runs ``run.py --quick`` on the three ``sim-*`` workloads with shrunken sizes
and checks what later PRs rely on: the workload and metric names are exactly
those declared in BENCHMARK.json, the simulator's exact outputs repeat bit
for bit, and ``compare.py`` finds a file equal to itself.  The live workload
forks processes and runs in wall-clock time, so it is exercised only under
``REPRO_LIVE_TESTS=1``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

DECLARED = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in DECLARED["workloads"]]
SIM_WORKLOADS = [name for name in WORKLOADS if name.startswith("sim-")]
END_TO_END = [entry["name"] for entry in DECLARED["end_to_end"]]
PER_LAYER = [entry["name"] for entry in DECLARED["per_layer"]]


def _measure(tmp_path, capsys, workload: str, trace: int, tag: str = "") -> tuple[dict, Path]:
    out = tmp_path / f"{workload}-{trace}{tag}.json"
    arguments = ["--workload", workload, "--seed", "3", "--quick", "--seconds", "0"]
    code = run.main(arguments + ["--trace", str(trace), "--out", str(out)])
    printed = capsys.readouterr().out.strip().splitlines()
    assert code == 0, printed
    return json.loads(printed[-1]), out


def _exact(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in compare.EXACT_UNITS and not name.startswith(("live.", "trace."))
    }


def test_declared_workloads_are_the_registered_ones():
    workloads, _, _ = run._import_program()
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", SIM_WORKLOADS)
def test_sim_workload_emits_declared_metrics_and_repeats_exactly(workload, tmp_path, capsys):
    end_to_end, file_0 = _measure(tmp_path, capsys, workload, trace=0)
    assert end_to_end["correct"] and end_to_end["failed"] == 0 and end_to_end["attempted"] >= 1
    assert list(end_to_end["metrics"]) == END_TO_END
    assert all(metric["value"] > 0 for metric in end_to_end["metrics"].values())

    first, file_1 = _measure(tmp_path, capsys, workload, trace=1)
    second, _ = _measure(tmp_path, capsys, workload, trace=1, tag="-again")
    assert sorted(first["metrics"]) == sorted(PER_LAYER)
    assert _exact(first) and _exact(first) == _exact(second)
    shares = [m["value"] for n, m in first["metrics"].items() if n.endswith(".self_share")]
    assert sum(shares) == pytest.approx(100.0, abs=2.0)

    for path in (file_0, file_1):
        assert compare.main([str(path), str(path)]) == 0
    capsys.readouterr()


def test_command_line_prints_one_json_object_last():
    command = DECLARED["command"] + ["--workload", SIM_WORKLOADS[-1], "--seed", "5"]
    command += ["--seconds", "0", "--trace", "0", "--quick"]
    done = subprocess.run(command, cwd=HERE.parents[1], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]


def test_unknown_workload_is_a_one_line_message(capsys):
    assert run.main(["--workload", "no-such-workload", "--quick"]) == run.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "no-such-workload" in captured.err


def test_missing_fork_is_a_one_line_skip(monkeypatch, tmp_path, capsys):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    out = tmp_path / "skipped.json"
    code = run.main(["--workload", "live-chain2-steady", "--quick", "--out", str(out)])
    assert code == run.EXIT_SKIPPED
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "skipped" in captured.err
    assert "skipped" in json.loads(out.read_text())["runs"][0]


@pytest.mark.skipif(
    os.environ.get("REPRO_LIVE_TESTS") != "1",
    reason="the live workload forks processes and takes wall-clock time; set REPRO_LIVE_TESTS=1",
)
def test_live_workload_emits_declared_metrics(tmp_path, capsys):
    end_to_end, _ = _measure(tmp_path, capsys, "live-chain2-steady", trace=0)
    assert end_to_end["correct"] and list(end_to_end["metrics"]) == END_TO_END
    layers, _ = _measure(tmp_path, capsys, "live-chain2-steady", trace=1)
    assert layers["correct"] and sorted(layers["metrics"]) == sorted(PER_LAYER)
    assert layers["metrics"]["live.transport.frames_per_tuple"]["value"] > 0
