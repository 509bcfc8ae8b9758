"""Data-plane hot path: wall-clock tuples/sec through the engine and a deployment.

Not a paper figure: the paper evaluates DPC on a physical cluster at high
input rates (Section 9); this benchmark is the reproduction's equivalent of
that axis.  It measures the per-tuple cost of the data plane two ways:

* **engine fragment** -- a standalone ``LocalEngine`` running the workhorse
  fragment shape (3-way SUnion -> Filter -> Map -> SOutput) fed pre-generated
  batches of data + boundary tuples.  No simulator, no network: pure
  per-tuple operator cost (tuple construction, bucketing, predicate and
  transform evaluation, stabilization, relabeling).
* **full deployment** -- a failure-free ``shard(4)`` scenario (split router,
  4 key-hash shard fragments with SJoins, fan-in merge) run end to end,
  reporting stable tuples delivered to the client per wall-clock second.

Wall-clock readings are best-of-``ROUNDS`` and recorded in ``extra_info`` as
``*_wall_ms`` / ``*_tuples_per_sec``; ``check_bench_regression.py`` tracks
those warn-only (noisy runners must not flake CI) while the deterministic
companion metrics (output counts, simulator events, Proc_new, the
output-buffer retention at the end of the run, and the client stores' packed
bytes per ledger tuple) stay hard-fail.  So do the two exact work counters of
one profiled shard(4) run -- calls and ``StreamTuple`` row constructions per
source tuple -- which are checked against fixed upper bounds: seconds cannot
tell a re-introduced per-row loop from a noisy host, counts can.  The same
call counter is gated on the two failure scenarios of the end-to-end
benchmark: the (100, 1) window with a replica crash, where a per-row loop in
the pane Aggregate roughly doubles it, and the chain-4 disconnect, whose cost
is per-batch overhead on the failure path.
"""

from __future__ import annotations

import time

from conftest import full_sweep, print_results

from repro.config import DPCConfig
from repro.experiments import shard_throughput_run
from repro.runtime import ScenarioSpec
from repro.spe.engine import LocalEngine
from repro.spe.operators import Filter, Map, SOutput, SUnion
from repro.spe.query_diagram import QueryDiagram
from repro.spe.streams import StreamWriter
from repro.spe.tuples import TupleBlock

ROUNDS = 3
#: Data tuples pushed through the standalone fragment per round.
FRAGMENT_TUPLES = 18_000
FRAGMENT_PORTS = 3
FRAGMENT_RATE = 100.0  # stimes per port advance at 1/rate
BUCKET_SIZE = 0.1
BOUNDARY_INTERVAL = 0.1
BATCH_TUPLES = 20  # tuples per pushed batch, mirroring the transport batching

SHARD_RATE = 1200.0
SHARD_DURATION = 15.0
#: The retention check reruns shard(4) this many times longer: buffers that
#: are truncated on checkpoint acknowledgments end both runs equally full.
RETENTION_STRETCH = 3


def build_fragment_engine() -> LocalEngine:
    """The workhorse fragment: 3-way SUnion -> Filter -> Map -> SOutput."""
    diagram = QueryDiagram(name="hot-path")
    merge = SUnion("merge", arity=FRAGMENT_PORTS, bucket_size=BUCKET_SIZE)
    keep = Filter("keep", lambda values: values["seq"] % 10 != 0)
    scale = Map("scale", lambda values: {"seq": values["seq"], "value": values["value"] * 2.0})
    out = SOutput("out.soutput")
    for operator in (merge, keep, scale, out):
        diagram.add_operator(operator)
    diagram.connect(merge, keep)
    diagram.connect(keep, scale)
    diagram.connect(scale, out)
    for port in range(FRAGMENT_PORTS):
        diagram.bind_input(f"in{port}", merge, port)
    diagram.bind_output("out", out)
    diagram.validate()
    return LocalEngine(diagram)


def generate_batches(n_tuples: int) -> list[tuple[str, list]]:
    """Pre-generate the input batches (generation cost stays out of the timing).

    Every port carries an interleaved stream of insertion tuples (stimes
    advancing at ``FRAGMENT_RATE``) with a boundary every
    ``BOUNDARY_INTERVAL`` so SUnion buckets keep stabilizing, exactly like a
    source-fed deployment in the steady state.  Batches are column blocks, as
    sources and upstream nodes deliver them.
    """
    writers = [StreamWriter(stream_name=f"in{port}") for port in range(FRAGMENT_PORTS)]
    next_boundary = [BOUNDARY_INTERVAL] * FRAGMENT_PORTS
    pending: list[list] = [[] for _ in range(FRAGMENT_PORTS)]
    batches: list[tuple[str, list]] = []
    period = 1.0 / FRAGMENT_RATE
    for sequence in range(n_tuples):
        port = sequence % FRAGMENT_PORTS
        stime = (sequence // FRAGMENT_PORTS) * period
        if stime >= next_boundary[port]:
            pending[port].append(writers[port].boundary(next_boundary[port]))
            next_boundary[port] += BOUNDARY_INTERVAL
        pending[port].append(
            writers[port].insertion(stime, {"seq": sequence, "value": float(sequence)})
        )
        if len(pending[port]) >= BATCH_TUPLES:
            batches.append((f"in{port}", TupleBlock.of(pending[port])))
            pending[port] = []
    for port in range(FRAGMENT_PORTS):
        # Closing boundaries so the last buckets stabilize and flush.
        pending[port].append(writers[port].boundary(next_boundary[port] + BOUNDARY_INTERVAL))
        batches.append((f"in{port}", TupleBlock.of(pending[port])))
    return batches


def run_fragment_once(batches: list[tuple[str, list]]) -> dict:
    engine = build_fragment_engine()
    produced = 0
    started = time.perf_counter()
    for stream, batch in batches:
        out = engine.push(stream, batch)["out"]
        produced += out.data_rows
    wall = time.perf_counter() - started
    return {
        "wall_seconds": wall,
        "tuples_in": FRAGMENT_TUPLES,
        "tuples_out": produced,
        "tuples_per_second": FRAGMENT_TUPLES / wall if wall > 0 else float("inf"),
        "processed": engine.tuples_processed,
    }


def best_fragment_run(rounds: int = ROUNDS) -> dict:
    batches = generate_batches(FRAGMENT_TUPLES)
    best = None
    for _ in range(rounds):
        row = run_fragment_once(batches)
        if best is None or row["tuples_per_second"] > best["tuples_per_second"]:
            best = row
    return best


def best_shard_run(rounds: int = ROUNDS) -> dict:
    best = None
    for _ in range(rounds):
        row = shard_throughput_run(4, aggregate_rate=SHARD_RATE, duration=SHARD_DURATION)
        if best is None or row["tuples_per_second"] > best["tuples_per_second"]:
            best = row
    return best


def test_engine_fragment_hot_path(run_once, benchmark):
    rounds = ROUNDS * 2 if full_sweep() else ROUNDS
    row = run_once(lambda: best_fragment_run(rounds))
    print_results(
        "Engine-fragment hot path: SUnion(3) -> Filter -> Map -> SOutput",
        [
            f"tuples in        {row['tuples_in']:>8}",
            f"tuples out       {row['tuples_out']:>8}",
            f"wall time        {row['wall_seconds'] * 1000:>8.1f} ms (best of {rounds})",
            f"throughput       {row['tuples_per_second']:>8.0f} tuples/s",
        ],
    )
    benchmark.extra_info["fragment_wall_ms"] = round(row["wall_seconds"] * 1000, 3)
    benchmark.extra_info["fragment_tuples_per_sec"] = round(row["tuples_per_second"], 1)
    # Deterministic companions: the fragment's output count and the engine's
    # processed-tuple counter must never drift under a perf refactor.
    benchmark.extra_info["fragment_stable_tuples"] = row["tuples_out"]
    benchmark.extra_info["fragment_processed_events"] = row["processed"]

    # The Filter drops every 10th tuple; everything else must come out stably.
    assert row["tuples_out"] == FRAGMENT_TUPLES - FRAGMENT_TUPLES // 10
    # Every data tuple is counted once per operator it traverses (4 stages,
    # minus the filtered-out share that never reaches Map/SOutput).
    assert row["processed"] > FRAGMENT_TUPLES * 3


def test_shard4_deployment_hot_path(run_once, benchmark):
    row = run_once(best_shard_run)
    print_results(
        "Full shard(4) deployment: wall-clock stable tuples/sec at the sink",
        [
            f"{row['label']:<10} tuples/s={row['tuples_per_second']:>8.0f} "
            f"wall={row['wall_seconds'] * 1000:>7.1f} ms events={row['events_fired']} "
            f"Proc_new={row['proc_new']:.3f}s "
            f"consistent={'yes' if row['eventually_consistent'] else 'NO'}",
        ],
    )
    benchmark.extra_info["shard4_wall_ms"] = round(row["wall_seconds"] * 1000, 3)
    benchmark.extra_info["shard4_tuples_per_sec"] = round(row["tuples_per_second"], 1)
    benchmark.extra_info["shard4_hot_path_events"] = row["events_fired"]
    benchmark.extra_info["shard4_hot_path_proc_new"] = round(row["proc_new"], 6)
    benchmark.extra_info["shard4_hot_path_stable_tuples"] = row["stable_tuples"]
    # Bounded retention (Section 8.1): what the output buffers hold at the end
    # is a few checkpoint windows, and a run three times as long ends the same.
    stretched = shard_throughput_run(
        4, aggregate_rate=SHARD_RATE, duration=SHARD_DURATION * RETENTION_STRETCH
    )
    ratio = stretched["output_buffered_end"] / row["output_buffered_end"]
    benchmark.extra_info["shard4_output_buffered_end"] = row["output_buffered_end"]
    benchmark.extra_info["shard4_retention_ratio"] = round(ratio, 4)
    # The client's own stores: sealed ledger bytes + arrival-column bytes per
    # delivered tuple (an object per tuple was ~600).
    benchmark.extra_info["shard4_client_bytes_per_tuple"] = round(
        row["client_bytes_per_tuple"], 2
    )
    print_results(
        "shard(4) output-buffer retention",
        [
            f"buffered at end  {row['output_buffered_end']:>8} tuples after {SHARD_DURATION:.0f} s",
            f"                 {stretched['output_buffered_end']:>8} tuples after "
            f"{SHARD_DURATION * RETENTION_STRETCH:.0f} s (ratio {ratio:.2f})",
            f"client stores    {row['client_bytes_per_tuple']:>8.1f} packed bytes per ledger tuple",
        ],
    )

    # Exact work counters under cProfile, on the scenario the end-to-end
    # benchmark calls sim-shard4-steady (they repeat exactly for a seed; the
    # row-at-a-time data path read 242.5 calls and 21.1 rows per source tuple).
    spec = ScenarioSpec.sharded(
        shards=4, replicas_per_node=2, n_input_streams=3, aggregate_rate=2400, warmup=30,
        settle=0, seed=1,
    )
    _stats, counters = spec.build().run_profiled()
    for name, value in counters.items():
        benchmark.extra_info[name] = round(value, 3)
    print_results(
        "shard(4) exact work counters (cProfile)",
        [f"{name:<36} {value:>8.2f}" for name, value in counters.items()],
    )

    assert row["eventually_consistent"]
    assert row["stable_tuples"] > 0
    assert row["output_buffered_end"] < row["stable_tuples"]
    assert ratio < 1.5
    assert row["client_bytes_per_tuple"] < 120


def test_failure_path_work_counters(run_once, benchmark):
    """Calls per source tuple of sim-window-crash and sim-chain4-disconnect (seed 1)."""
    scenarios = {
        "window_crash": ScenarioSpec.windowed_aggregate(
            window_size=100, window_slide=1, aggregate_rate=2400, replicas_per_node=2,
            checkpoint_interval=2, warmup=20, settle=30, seed=1,
        ).with_failure("crash", start=20, duration=10, node_replica=0),
        "chain4_disconnect": ScenarioSpec.chain(
            4, replicas_per_node=2, aggregate_rate=150, per_node_delay=2.0,
            config=DPCConfig(max_incremental_latency=8.0), warmup=10, settle=45, seed=1,
        ).with_failure("silence", start=10, duration=30, stream_index=0),
    }

    def profile_all() -> dict:
        return {
            f"{label}_calls_per_source_tuple": spec.build().run_profiled()[1]["calls_per_source_tuple"]
            for label, spec in scenarios.items()
        }

    counters = run_once(profile_all)
    for name, value in counters.items():
        benchmark.extra_info[name] = round(value, 3)
    print_results(
        "failure-path exact work counters (cProfile)",
        [f"{name:<42} {value:>8.2f}" for name, value in counters.items()],
    )
    # Row by row, the pane Aggregate alone made 20.6 of 45.0 calls per source tuple.
    assert counters["window_crash_calls_per_source_tuple"] <= 30
