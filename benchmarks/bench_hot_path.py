"""Data-plane hot path: the engine-fragment microbench and the failure-path work bounds.

Not a paper figure.  Two measurements the simulator-level checks do not make:

* **engine fragment** -- a standalone ``LocalEngine`` running the workhorse
  fragment shape (3-way SUnion -> Filter -> Map -> SOutput) fed pre-generated
  20-row column blocks of data + boundary tuples.  No simulator, no network:
  pure per-tuple operator cost.  The wall-clock reading is printed, never
  asserted; the output and processed-tuple counts are exact.
* **failure-path work** -- calls per source tuple under cProfile of the two
  failure scenarios of the end-to-end benchmark (the (100, 1) window with a
  replica crash, where a per-row loop in the pane Aggregate roughly doubles
  the count, and the chain-4 disconnect, whose cost is per-batch overhead),
  held under fixed upper bounds, and the chain-4 disconnect's
  ``StreamTuple`` row constructions and payload mappings, held at zero (its
  tentative, UNDO and redo path is columnar): seconds cannot tell a
  re-introduced per-row loop or per-batch step from a noisy host, counts
  can.  The window crash builds a payload mapping only for its Map's
  transform, one per window result, and its sources slice no rows for sends
  that reach nobody.  The steady shard(4)
  counterpart is the tier-1 ``tests/runtime/test_row_construction_guard.py``.

Run with ``cd benchmarks && PYTHONPATH=../src python -m pytest -q -s bench_hot_path.py``.
"""

from __future__ import annotations

import time

from repro.spe.engine import LocalEngine
from repro.spe.operators import Filter, Map, SOutput, SUnion
from repro.spe.query_diagram import QueryDiagram
from repro.spe.streams import StreamWriter
from repro.spe.tuples import TupleBlock
from repro.workloads.catalogue import CATALOGUE

ROUNDS = 3
#: Data tuples pushed through the standalone fragment per round.
FRAGMENT_TUPLES = 18_000
FRAGMENT_PORTS = 3
FRAGMENT_RATE = 100.0  # stimes per port advance at 1/rate
BUCKET_SIZE = 0.1
BOUNDARY_INTERVAL = 0.1
BATCH_TUPLES = 20  # tuples per pushed batch, mirroring the transport batching

#: Calls per source tuple of the window-crash scenario (17.63 on Python 3.11;
#: row by row, the pane Aggregate alone made 20.6 of 45.0).
WINDOW_CRASH_CALLS = 20
#: Calls per source tuple of the chain-4 disconnect: 301.30 on Python 3.11,
#: plus 1 % (435.11 with a per-batch split of every run at its boundary, a
#: row per tentative arrival and per-receiver send bookkeeping).
CHAIN4_DISCONNECT_CALLS = 304.3


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


def generate_batches(n_tuples: int) -> list[tuple[str, TupleBlock]]:
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
    batches: list[tuple[str, TupleBlock]] = []
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


def run_fragment_once(batches: list[tuple[str, TupleBlock]]) -> tuple[float, int, int]:
    """(wall seconds, data tuples out, tuples processed) of one pass over ``batches``."""
    engine = build_fragment_engine()
    produced = 0
    started = time.perf_counter()
    for stream, batch in batches:
        produced += engine.push(stream, batch)["out"].data_rows
    return time.perf_counter() - started, produced, engine.tuples_processed


def test_engine_fragment_hot_path():
    batches = generate_batches(FRAGMENT_TUPLES)
    runs = [run_fragment_once(batches) for _ in range(ROUNDS)]
    wall = min(seconds for seconds, _, _ in runs)
    print(f"\nengine fragment: {FRAGMENT_TUPLES} tuples in {wall * 1000:.1f} ms "
          f"(best of {ROUNDS}), {FRAGMENT_TUPLES / wall:.0f} tuples/s")
    # The Filter drops every 10th tuple; everything else comes out stably, and
    # every tuple is counted once per operator it traverses: SUnion and Filter
    # see all of them, Map and SOutput the kept ones.  Identical every round.
    kept = FRAGMENT_TUPLES - FRAGMENT_TUPLES // 10
    assert {(out, processed) for _, out, processed in runs} == {
        (kept, 2 * FRAGMENT_TUPLES + 2 * kept)
    }


def test_failure_path_work_counters():
    """Calls and row constructions per source tuple of sim-window-crash and sim-chain4-disconnect (seed 1)."""
    runtimes = {
        "window_crash": CATALOGUE["sim-window-crash"]().build(),
        "chain4_disconnect": CATALOGUE["sim-chain4-disconnect"]().build(),
    }
    profiles = {label: runtime.run_profiled() for label, runtime in runtimes.items()}
    counters = {label: profile[1] for label, profile in profiles.items()}
    unreached = sum(source.unreached_rows for source in runtimes["window_crash"].sources)
    print("\n" + "\n".join(
        f"{label:<18} {c['calls_per_source_tuple']:>8.2f} calls, "
        f"{c['row_constructions_per_source_tuple']:.2f} row constructions, "
        f"{c['mapping_constructions_per_source_tuple']:.4f} payload mappings per source tuple"
        for label, c in counters.items()
    ) + f"\nwindow_crash       {unreached} source rows sliced for sends that reached nobody")
    window_crash = counters["window_crash"]
    assert window_crash["calls_per_source_tuple"] <= WINDOW_CRASH_CALLS, counters
    # The one user callable on its path is the Map stamping each window
    # result: a mapping per transform call, and none anywhere else.
    runtime = runtimes["window_crash"]
    transforms = {
        (code.co_filename, code.co_firstlineno, code.co_name)
        for node in runtime.nodes()
        for operator in node.diagram
        if isinstance(operator, Map) and (code := operator.transform.__code__)
    }
    stamped = sum(profiles["window_crash"][0].stats[key][1] for key in transforms)
    produced = sum(source.tuples_produced for source in runtime.sources)
    assert stamped > 0
    assert window_crash["mapping_constructions_per_source_tuple"] == stamped / produced, counters
    # The crashed replica's backlog is not sliced every tick (2.44 M rows
    # over 600 dropped sends when the sources sent to it regardless).
    assert unreached == 0
    chain4 = counters["chain4_disconnect"]
    assert chain4["calls_per_source_tuple"] <= CHAIN4_DISCONNECT_CALLS, counters
    assert chain4["row_constructions_per_source_tuple"] == 0, counters
    assert chain4["mapping_constructions_per_source_tuple"] == 0, counters
