"""Per-layer numbers, measured from outside the program.

Two kinds, both computed without touching ``src/``:

* :func:`counters` reads exact counts from the public statistics of a
  completed run (events, messages, batches, checkpoints, ...);
* :func:`micro_timings` times each layer's public functions in isolation on
  inputs generated by the workload's own sources and pushed through the
  workload's own entry fragment.

On ``live-chain2-steady`` both describe the simulator oracle of the same
placement and seed; only :func:`live_counters` reads the live processes.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Callable

from repro import statexfer
from repro.core.data_path import OutputStreamManager
from repro.core.input_streams import InputStreamMonitor
from repro.core.protocol import DATA, SubscribeRequest, TupleBatch
from repro.core.states import NodeState
from repro.deploy.filters import SubscriptionFilter
from repro.live.wire import decode_envelope, encode_envelope
from repro.metrics.collector import MetricsCollector
from repro.sharding import stable_key_hash
from repro.sim.event_loop import Simulator
from repro.sim.network import Network
from repro.sim.sources import DataSource
from repro.spe.operators import Aggregate, AggregateSpec, SUnion
from repro.spe.windows import WindowSpec
from repro.topology import Topology

from workloads import LIVE_STARTUP_S, LiveObservation, SimRun

Metrics = dict[str, tuple[float, str]]

#: Source tuples generated for the micro-timings (quick: a tenth).
_SAMPLE_TUPLES = 12_000
_SAMPLE_MAX_VIRTUAL_S = 30.0
_EVENT_LOOP_EVENTS = 20_000


# --------------------------------------------------------------------------- counters
def counters(run: SimRun) -> Metrics:
    """Exact counts of one completed simulated run, from public statistics."""
    tuples = run.source_tuples
    deployment = run.deployment
    network = deployment.network.stats
    stats = [node.statistics() for node in run.nodes]
    summaries = [client.summary() for client in deployment.clients]
    recoveries = [record for node in run.nodes for record in node.recoveries]
    aggregates = [op for node in run.nodes for op in node.diagram if isinstance(op, Aggregate)]

    def total(key: str) -> int:
        return sum(s[key] for s in stats)

    return {
        "sim.events_per_tuple": (deployment.simulator.events_fired / tuples, "1/tuple"),
        "sim.network_msgs_per_tuple": (network.sent / tuples, "1/tuple"),
        "sim.network_dropped": (network.dropped, "count"),
        "spe.tuples_processed_per_tuple": (total("tuples_processed") / tuples, "1/tuple"),
        "spe.aggregate_open_cells": (
            max((op.open_cell_count for op in aggregates), default=0),
            "count",
        ),
        "core.output_buffered_end": (
            sum(out["buffered"] for s in stats for out in s["outputs"].values()),
            "count",
        ),
        "core.tuples_sent_per_tuple": (total("tuples_sent") / tuples, "1/tuple"),
        "core.batches_sent_per_tuple": (total("batches_sent") / tuples, "1/tuple"),
        "core.checkpoints": (total("checkpoints"), "count"),
        "core.reconciliations": (total("reconciliations"), "count"),
        "core.reconciliations_aborted": (total("reconciliations_aborted"), "count"),
        "core.switches": (total("switches") + sum(s["switches"] for s in summaries), "count"),
        "client.undos": (sum(s["total_undos"] for s in summaries), "count"),
        "client.rec_done": (sum(s["total_rec_done"] for s in summaries), "count"),
        "statexfer.recovery_checkpoints": (
            sum(node.recovery_checkpoints_taken for node in run.nodes),
            "count",
        ),
        "statexfer.shipped_items": (sum(r.get("shipped_items", 0) for r in recoveries), "count"),
        "statexfer.replayed_tuples": (sum(r.get("replayed", 0) for r in recoveries), "count"),
    }


def live_counters(observed: LiveObservation | None) -> Metrics:
    """Transport counters of the live run (all zero on the ``sim-*`` workloads)."""
    units = {
        "live.transport.frames_per_tuple": "1/tuple",
        "live.transport.heartbeats_per_s": "1/s",
        "live.transport.retries": "count",
        "live.transport.dropped_frames": "count",
        "live.transport.dead_letters": "count",
        "live.supervisor.drain_share": "%",
    }
    values = dict.fromkeys(units, 0)
    if observed is not None:
        result = observed.result
        links = [link for stats in result.transport.values() for link in stats["links"].values()]
        frames = sum(link["frames_sent"] for link in links)
        heartbeats = sum(stats["heartbeats_sent"] for stats in result.transport.values())
        values = {
            "live.transport.frames_per_tuple": frames / observed.source_tuples,
            "live.transport.heartbeats_per_s": heartbeats / (result.wall_seconds - LIVE_STARTUP_S),
            "live.transport.retries": sum(link["retries"] for link in links),
            "live.transport.dropped_frames": result.dropped_frames,
            "live.transport.dead_letters": result.dead_letters,
            "live.supervisor.drain_share": 100.0 * observed.drain_s / observed.duration,
        }
    return {name: (values[name], unit) for name, unit in units.items()}


# --------------------------------------------------------------------------- micro-timings
def _timed(rounds: Callable[[], tuple[float, int]], budget_s: float) -> float:
    """Median ns per item over fresh-state rounds; ``rounds()`` -> (seconds, items)."""
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < 3 or time.perf_counter() < deadline:
        seconds, items = rounds()
        samples.append(seconds / items * 1e9)
    return median(samples)


def _data_count(batches) -> int:
    return sum(1 for batch in batches for item in batch if item.is_data)


def _source_batches(run: SimRun, horizon: float) -> tuple[list[TupleBatch], float]:
    """What the workload's sources send in ``horizon`` virtual seconds, and the wall time.

    Copies of the deployment's sources run on a bare simulator and network,
    feeding one endpoint that only keeps the batches.
    """
    simulator = Simulator()
    network = Network(simulator)
    received: list[TupleBatch] = []
    network.register("bench.sink", lambda message, now: received.append(message.payload))
    for source in run.deployment.cluster.sources:
        copy = DataSource(
            name=source.name,
            stream=source.stream,
            simulator=simulator,
            network=network,
            rate=source.rate,
            boundary_interval=source.boundary_interval,
            batch_interval=source.batch_interval,
            payload=source.payload,
            start_time=source.start_time,
            rate_profile=source.rate_profile,
        )
        copy.subscribe("bench.sink")
        copy.start()
    started = time.perf_counter()
    simulator.run_until(horizon)
    return received, time.perf_counter() - started


def micro_timings(
    build: Callable[[], SimRun], finished: SimRun, budget_s: float, quick: bool
) -> Metrics:
    """Time each layer's public functions on the workload's own inputs.

    ``build`` returns a fresh, not yet run, deployment of the workload;
    ``finished`` is a completed run, whose nodes hold the workload's end
    state (for the checkpoint timings) and whose client holds its outputs.
    ``budget_s`` is the wall budget of each timing.
    """
    rate = sum(source.rate for source in finished.deployment.cluster.sources)
    wanted = _SAMPLE_TUPLES // 10 if quick else _SAMPLE_TUPLES
    horizon = min(wanted / rate, _SAMPLE_MAX_VIRTUAL_S)

    # ---- staging: source batches -> entry fragment -> output buffer ----------
    source_batches, _ = _source_batches(build(), horizon)
    source_items = [batch.tuples for batch in source_batches]
    n_source = _data_count(source_items)
    entry = build().nodes[0]
    out_stream = entry.data_path.output_streams()[0]
    engine_out = [entry.engine.push(b.stream, b.tuples)[out_stream] for b in source_batches]
    engine_out = [batch for batch in engine_out if batch]
    staging = OutputStreamManager(out_stream, entry.endpoint)
    physical = [staging.append_all(batch) for batch in engine_out]
    wire_batches = source_batches + [
        TupleBatch.of(out_stream, batch, entry.endpoint, NodeState.STABLE, NodeState.STABLE)
        for batch in physical
    ]
    n_wire = _data_count(batch.tuples for batch in wire_batches)
    frames = [encode_envelope(b.producer, "bench.sink", DATA, b) for b in wire_batches]
    ledger = [c.metrics.consistency.ledger[:wanted] for c in finished.deployment.clients]
    ledger = [item for items in ledger for item in items]

    # ---- one function per timing; each builds the fresh state it needs -------
    def event_loop() -> tuple[float, int]:
        simulator = Simulator()
        started = time.perf_counter()
        for index in range(_EVENT_LOOP_EVENTS):
            simulator.schedule_at(index * 1e-3, _noop)
        simulator.run_until(_EVENT_LOOP_EVENTS)
        return time.perf_counter() - started, _EVENT_LOOP_EVENTS

    def sources() -> tuple[float, int]:
        return _source_batches(build(), horizon)[1], n_source

    def engine_push() -> tuple[float, int]:
        engine = build().nodes[0].engine
        started = time.perf_counter()
        for batch in source_batches:
            engine.push(batch.stream, batch.tuples)
        return time.perf_counter() - started, n_source

    sunion_out: list[list] = []

    def sunion() -> tuple[float, int]:
        node = build().nodes[0]
        ports = {}
        for batch in source_batches:
            if batch.stream not in ports:
                name, port = node.engine.entry_operators(batch.stream)[0]
                operator = node.diagram.operator(name)
                if not isinstance(operator, SUnion):
                    raise TypeError(f"entry operator {name!r} of {node.name!r} is not an SUnion")
                ports[batch.stream] = (operator.process_batch, port)
        produced = []
        started = time.perf_counter()
        for batch in source_batches:
            process_batch, port = ports[batch.stream]
            produced.append(process_batch(port, batch.tuples))
        elapsed = time.perf_counter() - started
        sunion_out[:] = [batch for batch in produced if batch]
        return elapsed, n_source

    def aggregate() -> tuple[float, int]:
        operator = Aggregate(
            name="bench.rollup",
            window=WindowSpec.sliding(size=100.0, slide=1.0),
            aggregates=[
                AggregateSpec("n", "count"),
                AggregateSpec("total", "sum", "value"),
                AggregateSpec("lo", "min", "value"),
                AggregateSpec("hi", "max", "value"),
            ],
        )
        started = time.perf_counter()
        for batch in sunion_out:
            operator.process_batch(0, batch)
        return time.perf_counter() - started, _data_count(sunion_out)

    def output_buffer(timed: str) -> tuple[float, int]:
        manager = OutputStreamManager(out_stream, "bench")
        manager.subscribe(SubscribeRequest(stream=out_stream, subscriber="bench.sink"))
        clock = time.perf_counter
        seconds = {"append": 0.0, "truncate": 0.0}
        for batch in engine_out:
            t0 = clock()
            manager.append_all(batch)
            t1 = clock()
            manager.pending_batches()
            manager.mark_delivered("bench.sink")
            t2 = clock()
            manager.truncate_delivered()
            seconds["truncate"] += clock() - t2
            seconds["append"] += t1 - t0
        return seconds[timed], sum(len(batch) for batch in engine_out)

    def input_record() -> tuple[float, int]:
        monitors = {}
        for batch in source_batches:
            if batch.stream not in monitors:
                monitor = InputStreamMonitor(stream=batch.stream)
                monitor.add_producer(batch.producer, is_source=True)
                monitors[batch.stream] = monitor.record_tuple
        started = time.perf_counter()
        for batch in source_batches:
            record = monitors[batch.stream]
            for item in batch.tuples:
                record(item, item.stime)
        return time.perf_counter() - started, sum(len(items) for items in source_items)

    def route() -> tuple[float, int]:
        # A fresh assignment starts with a cold routing memo, as a run does.
        assignment = Topology.shard(4, n_input_streams=3).shard_assignment
        filters = [
            SubscriptionFilter(predicate, f"bench.shard{index}")
            for index, predicate in enumerate(assignment.predicates())
        ]
        items = [item for tuples in source_items for item in tuples if item.is_data]
        started = time.perf_counter()
        for item in items:
            stable_key_hash(item.values["seq"])
            for filter_ in filters:
                filter_.passes(item)
        return time.perf_counter() - started, len(items)

    def observe() -> tuple[float, int]:
        collector = MetricsCollector(stream=out_stream)
        started = time.perf_counter()
        for item in ledger:
            collector.observe(item, item.stime)
        return time.perf_counter() - started, len(ledger)

    def encode() -> tuple[float, int]:
        started = time.perf_counter()
        for batch in wire_batches:
            encode_envelope(batch.producer, "bench.sink", DATA, batch)
        return time.perf_counter() - started, n_wire

    def decode() -> tuple[float, int]:
        started = time.perf_counter()
        for frame in frames:
            decode_envelope(frame)
        return time.perf_counter() - started, n_wire

    # ---- checkpoint capture / adopt on the workload's end state ---------------
    group = finished.deployment.cluster.nodes[0]
    checkpoint = statexfer.capture_checkpoint(group[0], finished.deployment.simulator.now)

    def capture() -> tuple[float, int]:
        started = time.perf_counter()
        statexfer.capture_checkpoint(group[0], checkpoint.created_at)
        return time.perf_counter() - started, 1

    def adopt() -> tuple[float, int]:
        started = time.perf_counter()
        statexfer.adopt_checkpoint(group[-1], checkpoint, checkpoint.created_at)
        return time.perf_counter() - started, 1

    def ns(rounds) -> tuple[float, str]:
        return _timed(rounds, budget_s), "ns"

    def ms(rounds) -> tuple[float, str]:
        return _timed(rounds, budget_s) / 1e6, "ms"

    return {
        "sim.event_loop_ns_per_event": ns(event_loop),
        "sim.sources_ns_per_tuple": ns(sources),
        "spe.engine_push_ns_per_tuple": ns(engine_push),
        "spe.sunion_ns_per_tuple": ns(sunion),
        "spe.aggregate_ns_per_tuple": ns(aggregate),
        "core.output_append_ns_per_tuple": ns(lambda: output_buffer("append")),
        "core.output_truncate_ns_per_tuple": ns(lambda: output_buffer("truncate")),
        "core.input_record_ns_per_tuple": ns(input_record),
        "sharding.route_ns_per_key": ns(route),
        "metrics.client_observe_ns_per_tuple": ns(observe),
        "live.wire.encode_ns_per_tuple": ns(encode),
        "live.wire.decode_ns_per_tuple": ns(decode),
        "live.wire.bytes_per_tuple": (sum(len(frame) for frame in frames) / n_wire, "B/tuple"),
        "statexfer.capture_ms": ms(capture),
        "statexfer.adopt_ms": ms(adopt),
        "statexfer.checkpoint_items": (checkpoint.item_count, "count"),
    }


def _noop(now: float) -> None:
    return None
