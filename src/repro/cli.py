"""Command-line interface of the reproduction.

``python -m repro`` exposes the experiment registry
(:mod:`repro.analysis.registry`) so every table and figure of the paper can be
regenerated (exported as text, Markdown, or CSV) and checked against the
paper's claims without writing any code::

    python -m repro list
    python -m repro run table3
    python -m repro report --output report.md
    python -m repro run fig16 --scale quick --format markdown
    python -m repro run replicas --output replicas.csv --format csv
    python -m repro scenario --depth 2 --failure disconnect --failure-duration 10
    python -m repro scenario --topology diamond --failure crash --failure-node left
    python -m repro scenario --backend live --depth 2 --warmup 2 --settle 3 --failure crash --failure-duration 1
    python -m repro claims
    python -m repro profile shard --shards 4 --duration 15
    python -m repro plan-delays --depth 4 --budget 8 --strategy full
    python -m repro plan-delays --topology diamond --budget 9 --strategy uniform

The CLI is a thin layer over :mod:`repro.runtime`, the scenario catalogue
(:mod:`repro.workloads.catalogue`) and :mod:`repro.analysis`; everything it prints can also be produced
programmatically with the :class:`~repro.runtime.ScenarioSpec` API::

    from repro import ScenarioSpec

    spec = ScenarioSpec.chain(2, warmup=2.0, settle=3.0).with_failure("disconnect", duration=1.0)
    print(spec.run().client.summary())             # the deterministic simulator
    print(spec.run_live().client()["summary"])     # the same schedule on forked workers
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Sequence

from .analysis.registry import EXPERIMENTS, SCALES, Experiment, build_report
from .analysis.tables import ResultTable, render_csv, render_markdown, render_text
from .config import DelayAssignment
from .core.delay_planner import DelayPlanner
from .deploy import AutoscalePolicy
from .errors import ConfigurationError, LiveBackendUnavailable, SimulationError
from .runtime import ScenarioSpec
from .runtime.runtime import LIVE_POST_STOP_SLACK
from .workloads.catalogue import CATALOGUE
from .workloads.generators import step_rate

#: Renderers selectable with ``--format``.
_RENDERERS: dict[str, Callable[[ResultTable], str]] = {
    "text": render_text,
    "markdown": render_markdown,
    "csv": render_csv,
}

#: ``ExperimentCommand(name, description, runner)``: a tables-only registry entry.
ExperimentCommand = Experiment

#: The deployment shapes ``scenario``, ``profile`` and ``plan-delays`` build.
TOPOLOGIES = ("chain", "diamond", "fanin", "shard")


# --------------------------------------------------------------------------- commands
def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    print("Available experiments:")
    for name, command in EXPERIMENTS.items():
        print(f"  {name:<{width}}  {command.description}")
    return 0


def _cmd_claims(_args: argparse.Namespace) -> int:
    for name, command in EXPERIMENTS.items():
        claim = command.claim
        if claim is not None:
            print(f"{name} (Section {claim.section}) -- {claim.title}")
            print(f"  {claim.claim}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        command = EXPERIMENTS[args.experiment]
    except KeyError:
        print(f"unknown experiment {args.experiment!r}; run 'python -m repro list'", file=sys.stderr)
        return 2
    renderer = _RENDERERS[args.format]
    tables, checks = command.run(args.scale)
    rendered = "\n\n".join(renderer(table) for table in tables)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    if checks:
        passed = sum(check.passed for check in checks)
        print(f"\nshape checks ({passed}/{len(checks)} passed):")
        for check in checks:
            print(f"  {check.row()}")
    return 0 if all(check.passed for check in checks) else 1


def _cmd_report(args: argparse.Namespace) -> int:
    print("running the quick grid of every experiment with shape checks ...")
    report = build_report()
    report.write(args.output)
    passed = sum(1 for section in report.sections if section.passed)
    print(f"wrote {args.output}: {passed}/{len(report.sections)} experiments match the paper's shape")
    for section in report.sections:
        for check in section.checks:
            if not check.passed:
                print(f"{section.claim.experiment_id}: {check.row()}", file=sys.stderr)
    return 0 if report.all_passed else 1


def _shape_spec(shape: str, args: argparse.Namespace, **common) -> ScenarioSpec:
    """The spec of one named deployment shape, from the flags that size it.

    ``scenario`` (both backends), ``profile`` and ``plan-delays`` all build
    their topology here; flags a subcommand does not define keep the spec's
    defaults.
    """
    streams = getattr(args, "streams", None)
    inputs = {} if streams is None else {"n_input_streams": streams}
    if shape == "shard":
        return ScenarioSpec.sharded(
            shards=args.shards, skew=getattr(args, "skew", None), **inputs, **common
        )
    if shape == "diamond":
        return ScenarioSpec.diamond(**inputs, **common)
    if shape == "fanin":
        if streams is None:
            return ScenarioSpec.fanin(**common)
        if streams < 2 or streams % 2:
            raise ConfigurationError(
                f"--streams {streams} cannot be split across the fanin topology's "
                "2 branches (use an even count >= 2)"
            )
        return ScenarioSpec.fanin(streams_per_branch=streams // 2, **common)
    if shape == "aggregate":
        return ScenarioSpec.windowed_aggregate(
            window_size=args.window_size, window_slide=args.window_slide, **common
        )
    return ScenarioSpec.chain(args.depth, **inputs, **common)


def _scenario_spec(args: argparse.Namespace) -> ScenarioSpec:
    """The :class:`ScenarioSpec` the ``scenario`` flags describe, for either backend."""
    if (
        args.failure_node
        and args.failure not in ("crash", "partition")
        and args.partition_at is None
    ):
        raise ConfigurationError(
            "--failure-node only applies to crash/partition failures "
            "(disconnect/silence target a source stream via --failure-stream)"
        )
    if args.topology != "shard":
        for flag, value in (
            ("--skew", args.skew),
            ("--rebalance-at", args.rebalance_at),
            ("--autoscale", args.autoscale or None),
        ):
            if value is not None:
                raise ConfigurationError(f"{flag} only applies to --topology shard")
    if args.rebalance_tolerance is not None and args.rebalance_at is None:
        raise ConfigurationError(
            "--rebalance-tolerance only applies together with --rebalance-at"
        )
    if args.surge_until is not None and args.surge_at is None:
        raise ConfigurationError("--surge-until only applies together with --surge-at")
    checkpoint_interval = "inherit"
    if args.checkpoint_interval is not None:
        # <= 0 disables recovery checkpoints (forces full-replay recovery).
        checkpoint_interval = (
            None if args.checkpoint_interval <= 0 else args.checkpoint_interval
        )
    spec = _shape_spec(
        args.topology,
        args,
        name=args.name,
        replicas_per_node=args.replicas,
        aggregate_rate=args.rate,
        warmup=args.warmup,
        settle=args.settle,
        seed=args.seed,
        checkpoint_interval=checkpoint_interval,
    )
    if args.rebalance_at is not None:
        spec = spec.with_overrides(
            rebalance_at=args.rebalance_at,
            rebalance_tolerance=(
                0.10 if args.rebalance_tolerance is None else args.rebalance_tolerance
            ),
        )
    if args.autoscale:
        spec = spec.with_overrides(
            autoscale=AutoscalePolicy(
                high_watermark=args.autoscale_high,
                low_watermark=args.autoscale_low,
                min_shards=args.shards,
                max_shards=args.shards + 2,
            )
        )
    # Each failure kind reads only its own target fields (stream, or node + replica).
    failure = dict(
        duration=args.failure_duration,
        stream_index=args.failure_stream,
        node=args.failure_node,
        node_replica=args.failure_replica,
    )
    if args.failure:
        spec = spec.with_failure(args.failure, **failure)
    if args.disconnect_at is not None:
        spec = spec.with_failure("disconnect", start=args.disconnect_at, **failure)
    if args.partition_at is not None:
        spec = spec.with_failure("partition", start=args.partition_at, **failure)
    if args.surge_at is not None:
        spec = spec.with_overrides(
            rate_profile=step_rate(args.surge_at, args.surge_factor, until=args.surge_until)
        )
    return spec


def _print_client(summary: dict) -> None:
    """The client's view of a run, as both backends report it."""
    print(f"Proc_new (max latency of new results): {summary['proc_new']:.3f} s")
    print(f"stable / tentative / undone:           {summary['total_stable']} / "
          f"{summary['total_tentative']} / {summary['total_undos']}")
    print(f"upstream switches:                     {summary['switches']}")


def _cmd_scenario_live(spec: ScenarioSpec) -> int:
    """Run ``spec`` on the live backend and print the live-only report.

    Crashes SIGKILL a replica's worker process; disconnects and partitions
    are enforced at the socket layer as a deterministic fault plan.
    """
    topology = spec.resolved_topology()
    print(
        f"scenario {spec.name!r} [live]: topology={topology.name} "
        f"nodes={','.join(topology.node_names)} replicas={spec.replicas_per_node} "
        f"rate={spec.aggregate_rate:g} tuples/s seed={spec.seed} "
        f"(~{spec.total_duration() + LIVE_POST_STOP_SLACK:g} wall seconds plus drain)"
    )
    result = spec.run_live()
    for rule in result.faults:
        print(f"  fault rule: {rule['kind']} on {rule['link']} "
              f"t={rule['start']:g}s..{rule['end']:g}s")
    for record in result.kills:
        print(f"  SIGKILL: {record['endpoint']} (worker {record['worker']}) "
              f"at t={record['at']:.2f}s, respawned at t={record['respawned_at']:.2f}s")
    for record in result.recoveries():
        print(f"  recovery: {record['endpoint']} via {record['mode']}")
    injected = result.injected_faults()
    if injected:
        counts = ", ".join(f"{kind}={n}" for kind, n in sorted(injected.items()))
        print(f"  injected faults: {counts}")
    print(f"workers: {len(result.nodes) + 1} processes over Unix sockets, "
          f"{result.wall_seconds:.1f} s wall")
    _print_client(result.client()["summary"])
    print(f"frames dropped / dead-lettered:        {result.dropped_frames} / "
          f"{result.dead_letters}")
    print(f"reconnect attempts / reconnects:       {result.reconnect_attempts} / "
          f"{result.reconnects}")
    consistent = result.eventually_consistent
    print(f"eventually consistent:                 {consistent}")
    return 0 if consistent else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    spec = _scenario_spec(args)
    if args.backend == "live":
        return _cmd_scenario_live(spec)
    runtime = spec.run()
    summary = runtime.client.summary()
    topology = runtime.topology
    print(f"scenario {spec.name!r}: topology={topology.name} nodes={','.join(topology.node_names)} "
          f"replicas={spec.replicas_per_node} rate={spec.aggregate_rate:g} tuples/s seed={spec.seed}")
    for record in runtime.injected:
        print(f"  failure: {record.failure_type.value} on {record.target} "
              f"at t={record.start:g}s for {record.duration:g}s")
    for record in runtime.deployment.rebalances:
        if record.get("noop"):
            print(f"  rebalance at t={record['applied_at']:g}s: no-op (loads within tolerance)")
        else:
            print(f"  rebalance at t={record['applied_at']:g}s: "
                  f"{len(record['moves'])} bucket move(s), imbalance "
                  f"{record['imbalance_before']:.3f} -> {record['imbalance_after']:.3f}, "
                  f"{record.get('state_tuples_shipped', 0)} join-state tuple(s) shipped")
        for abort in record.get("aborts", ()):
            print(f"    handoff aborted at t={abort['at']:g}s ({abort['reason']}); "
                  f"{abort['restored_tuples']} tuple(s) restored to the old owner")
    if runtime.autoscaler is not None:
        for action in runtime.autoscaler.actions:
            print(f"  autoscale at t={action['at']:g}s: {action['action']} -> "
                  f"{action['shards']} shard(s) "
                  f"(mean {action['rate_per_shard']:.1f} tuples/s per shard)")
        print(f"  autoscale: {len(runtime.autoscaler.actions)} action(s), "
              f"{len(runtime.autoscaler.skipped)} skipped tick(s), final "
              f"{runtime.deployment.active_shards()} shard(s)")
    _print_client(summary)
    consistent = runtime.eventually_consistent()
    print(f"simulator events fired:                {runtime.simulator.events_fired}")
    print(f"eventually consistent:                 {consistent}")
    return 0 if consistent else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one scenario under cProfile and print the hottest call sites.

    Future perf work should start from this data, not from guesses: the
    hot-path overhaul (slotted tuples, batch operator loops) was driven by
    exactly this view of a shard(4) run.
    """
    if args.top is None:
        args.top = 15 if args.scenario == "live" else 25
    common = dict(
        name=f"profile-{args.scenario}",
        aggregate_rate=args.rate,
        warmup=args.duration,
        settle=0.0,
        seed=args.seed,
        replicas_per_node=args.replicas,
    )
    if args.scenario == "live":
        return _profile_live(args, _shape_spec("chain", args, **common))
    if args.scenario == "recovery":
        # The catalogue's checkpoint-shipped crash, resized by the flags: the
        # profile covers capture, transfer, adoption, and the post-rejoin
        # replay suffix -- the statexfer path.
        outage = max(args.duration * 0.4, 4.0)
        spec = CATALOGUE["recovery"](failure_duration=outage).with_overrides(
            name=common["name"],
            chain_depth=args.depth,
            replicas_per_node=max(args.replicas, 2),
            aggregate_rate=args.rate,
            settle=max(args.duration - 5.0, 10.0),
            seed=args.seed,
        )
    else:
        spec = _shape_spec(args.scenario, args, **common)
    runtime = spec.build()
    stats, counters = runtime.run_profiled()
    stats.stream = sys.stdout
    stable = sum(c.summary()["total_stable"] for c in runtime.clients)
    wall = runtime.wall_seconds
    print(
        f"profiled scenario {spec.name!r}: {spec.total_duration():g} simulated s, "
        f"{runtime.simulator.events_fired} events, {stable} stable tuples delivered"
    )
    if wall > 0:
        print(f"wall time {wall * 1000:.1f} ms -> {stable / wall:,.0f} stable tuples/s")
    print(f"top {args.top} by {args.sort}:")
    stats.sort_stats(args.sort).print_stats(args.top)
    print(
        f"per source tuple: {counters['calls_per_source_tuple']:.1f} calls, "
        f"{counters['row_constructions_per_source_tuple']:.2f} StreamTuple row constructions"
    )
    return 0


def _profile_live(args: argparse.Namespace, spec: ScenarioSpec) -> int:
    """Profile every worker process of a failure-free live run of ``spec``.

    The simulator profile above sees one process; the live backend's CPU is
    spent in forked workers, so each runs under its own cProfile and leaves a
    ``<worker>.pstats`` in ``--out``.  The profiles are timed in CPU seconds
    (``time.process_time``), so a worker descheduled mid-call is not charged
    for the wait.  Per worker this prints its own CPU seconds, peak RSS and
    wakeups per wall second (voluntary context switches: each is one sleep
    of its event loop), the CPU outside the event loop's ``poll``, the share
    of it spent under the wire codec's entry points, and the top entries.
    """
    import pstats
    import tempfile

    out_dir = args.out or tempfile.mkdtemp(prefix="repro-profile-live-")
    os.makedirs(out_dir, exist_ok=True)
    result = spec.run_live(profile_dir=out_dir)
    produced = sum(result.sources.values())
    print(
        f"profiled live chain-{args.depth}: {len(result.transport)} worker processes, "
        f"{produced} source tuples, {result.total_stable} stable tuples delivered, "
        f"{result.wall_seconds:.1f} s wall; profiles in {out_dir}"
    )
    codec = ("encode_payload", "encode_envelope_prefix", "decode_envelope")
    for worker in sorted(result.transport):
        stats = pstats.Stats(os.path.join(out_dir, f"{worker}.pstats"), stream=sys.stdout)
        idle = wire = 0.0
        for (filename, _, name), (_, _, tottime, cumtime, _) in stats.stats.items():
            if filename == "~" and "poll" in name:
                idle += tottime
            elif name in codec and filename.endswith(os.path.join("live", "wire.py")):
                wire += cumtime
        busy = stats.total_tt - idle
        usage = result.workers[worker]
        print(
            f"worker {worker}: {usage['cpu_s']:.2f} s CPU, peak RSS "
            f"{usage['peak_rss_mb']:.1f} MB, "
            f"{usage['wakeups'] / result.wall_seconds:.0f} wakeups/s; "
            f"{busy:.2f} s CPU outside poll of {stats.total_tt:.2f} s CPU profiled, "
            f"wire codec {100.0 * wire / busy if busy > 0 else 0.0:.1f}% of it; "
            f"top {args.top} by {args.sort}:"
        )
        stats.sort_stats(args.sort).print_stats(args.top)
    return 0 if result.eventually_consistent else 1


def _cmd_plan_delays(args: argparse.Namespace) -> int:
    topology = _shape_spec(args.topology, args).resolved_topology()
    planner = DelayPlanner.for_topology(
        topology, total_budget=args.budget, queuing_allowance=args.queuing_allowance
    )
    strategy = DelayAssignment(args.strategy)
    plan = planner.plan(strategy)
    print(f"topology: {topology.name} (longest path: {topology.depth()} node(s))")
    print(f"strategy: {plan.strategy.value}")
    print(f"end-to-end budget X: {plan.total_budget:g} s")
    print(f"masked failure duration: {plan.masked_failure:g} s")
    for node, delay in plan.per_node.items():
        print(f"  {node}: D = {delay:g} s")
    for diagnostic in planner.diagnose(plan.per_node):
        status = "ok" if diagnostic.within_budget else "OVER BUDGET"
        print(f"path {' -> '.join(diagnostic.path)}: accumulated "
              f"{diagnostic.accumulated_delay:g} s [{status}]")
    for note in plan.notes:
        print(f"note: {note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of DPC fault-tolerance in the Borealis stream processing engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available experiments").set_defaults(func=_cmd_list)
    sub.add_parser("claims", help="print the paper claims behind each experiment").set_defaults(
        func=_cmd_claims
    )

    run = sub.add_parser("run", help="run one experiment and print its tables")
    run.add_argument("experiment", help="experiment id (see 'list')")
    run.add_argument("--scale", choices=SCALES, default="quick",
                     help="quick runs the reduced grid the shape checks were validated on; "
                          "full matches the paper's parameter grid")
    run.add_argument("--format", choices=sorted(_RENDERERS), default="text")
    run.add_argument("--output", help="write the rendered tables to this file instead of stdout")
    run.set_defaults(func=_cmd_run)

    report = sub.add_parser(
        "report",
        help="run the quick grid of every experiment with shape checks and write a "
             "paper-vs-measured Markdown report (exit 1 on a failed check)",
    )
    report.add_argument("--output", default="report.md", help="path of the Markdown report")
    report.set_defaults(func=_cmd_report)

    scenario = sub.add_parser(
        "scenario",
        help="describe and run one custom scenario (the ScenarioSpec API from the shell)",
        description="Build a ScenarioSpec from the flags below, compile it into a "
        "SimulationRuntime, run it, and print the client's view of the run.",
    )
    scenario.add_argument("--name", default="cli-scenario", help="label for the scenario")
    scenario.add_argument("--topology", choices=TOPOLOGIES, default="chain",
                          help="deployment shape; chain uses --depth, shard uses --shards, "
                               "other DAG shapes are preset")
    scenario.add_argument("--depth", type=int, default=1, help="number of chained nodes")
    scenario.add_argument("--shards", type=int, default=4,
                          help="shard count of the sharded topology (crash one with "
                               "--failure crash --failure-node shard1)")
    scenario.add_argument("--skew", type=float, default=None,
                          help="zipfian hot-key workload skew for the sharded topology "
                               "(shards on the skewed 'key' attribute)")
    scenario.add_argument("--rebalance-at", type=float, default=None,
                          help="apply a load-driven live rebalance (bucket handoff) "
                               "at this simulated time (sharded topology only)")
    scenario.add_argument("--rebalance-tolerance", type=float, default=None,
                          help="peak-to-mean shard-load tolerance of the mid-run "
                               "rebalance (default 0.10; requires --rebalance-at)")
    scenario.add_argument("--autoscale", action="store_true",
                          help="arm the elastic autoscaler loop on the sharded "
                               "topology (scale-out past the high watermark, "
                               "scale-in below the low one)")
    scenario.add_argument("--autoscale-high", type=float, default=200.0,
                          help="autoscaler high watermark in per-shard processed "
                               "tuples per simulated second (default 200)")
    scenario.add_argument("--autoscale-low", type=float, default=140.0,
                          help="autoscaler low watermark in per-shard processed "
                               "tuples per simulated second (default 140)")
    scenario.add_argument("--surge-at", type=float, default=None,
                          help="step every source to --surge-factor times its base "
                               "rate at this simulated time")
    scenario.add_argument("--surge-until", type=float, default=None,
                          help="step the rate back down at this simulated time "
                               "(requires --surge-at)")
    scenario.add_argument("--surge-factor", type=float, default=2.0,
                          help="rate multiplier of the surge window (default 2.0)")
    scenario.add_argument("--replicas", type=int, default=2, help="replicas per node")
    scenario.add_argument("--streams", type=int, default=None,
                          help="number of input streams (default 3; fanin splits them "
                               "across its 2 branches)")
    scenario.add_argument("--rate", type=float, default=150.0,
                          help="aggregate source rate in tuples per simulated second")
    scenario.add_argument("--warmup", type=float, default=5.0, help="seconds before the failure")
    scenario.add_argument("--settle", type=float, default=30.0, help="seconds after the failure")
    scenario.add_argument("--failure", choices=("disconnect", "silence", "crash", "partition"),
                          help="failure to inject at the end of the warmup (omit for none)")
    scenario.add_argument("--disconnect-at", type=float, default=None,
                          help="disconnect the --failure-stream source at this time for "
                               "--failure-duration seconds (both backends; shorthand for "
                               "--failure disconnect with an explicit start)")
    scenario.add_argument("--partition-at", type=float, default=None,
                          help="partition the --failure-node replicas "
                               "(--failure-replica, -1 for all) at this time for "
                               "--failure-duration seconds (both backends)")
    scenario.add_argument("--failure-duration", type=float, default=10.0,
                          help="failure length in simulated seconds")
    scenario.add_argument("--failure-stream", type=int, default=0,
                          help="input stream hit by a disconnect/silence failure")
    scenario.add_argument("--failure-node", default=None,
                          help="logical node name hit by a crash or partition, e.g. "
                               "node2 (chain), left (diamond), shard1 (shard); "
                               "default: the first node in topological order")
    scenario.add_argument("--failure-replica", type=int, default=0,
                          help="replica index of the node hit by a crash or partition "
                               "(-1: every replica)")
    scenario.add_argument("--checkpoint-interval", type=float, default=None,
                          help="recovery-checkpoint capture cadence in simulated seconds "
                               "(default: the DPCConfig cadence; <= 0 disables checkpoints "
                               "and forces full-replay crash recovery)")
    scenario.add_argument("--seed", type=int, default=None,
                          help="determinism seed (same seed => identical run)")
    scenario.add_argument("--backend", choices=("sim", "live"), default="sim",
                          help="sim runs the deterministic simulator; live runs the same "
                               "compiled placement as real processes over Unix sockets "
                               "in wall-clock time (crash, disconnect and partition "
                               "failures; silence, rebalance and autoscale are "
                               "simulator-only)")
    scenario.set_defaults(func=_cmd_scenario)

    profile = sub.add_parser(
        "profile",
        help="run one scenario under cProfile and print the hottest call sites",
        description="Run a failure-free scenario of the given shape under "
        "cProfile and print the top-N hot spots, so perf PRs start from data "
        "instead of guesses.",
    )
    profile.add_argument("scenario",
                         choices=TOPOLOGIES + ("aggregate", "recovery", "live"),
                         help="deployment shape to profile ('recovery' crashes one replica "
                              "mid-run and profiles the checkpoint-shipped rejoin; 'live' "
                              "runs chain --depth on the live backend for --duration wall "
                              "seconds and profiles every worker process, top 15 each "
                              "unless --top is given)")
    profile.add_argument("--depth", type=int, default=2, help="chain depth (chain only)")
    profile.add_argument("--shards", type=int, default=4, help="shard count (shard only)")
    profile.add_argument("--window-size", type=float, default=1.0,
                         help="window size in seconds (aggregate only)")
    profile.add_argument("--window-slide", type=float, default=0.25,
                         help="window slide in seconds (aggregate only)")
    profile.add_argument("--replicas", type=int, default=1,
                         help="replicas per node (1: profile the data plane, "
                              "not the replication factor)")
    profile.add_argument("--rate", type=float, default=1200.0,
                         help="aggregate source rate in tuples per simulated second")
    profile.add_argument("--duration", type=float, default=15.0,
                         help="simulated seconds to run")
    profile.add_argument("--seed", type=int, default=1, help="determinism seed")
    profile.add_argument("--top", type=int, default=None,
                         help="number of entries to print (default 25; live: 15 per worker)")
    profile.add_argument("--out", default=None,
                         help="directory for the per-worker .pstats files "
                              "(live only; default: a fresh temporary directory)")
    profile.add_argument("--sort", choices=("cumulative", "tottime", "ncalls"),
                         default="cumulative", help="pstats sort order")
    profile.set_defaults(func=_cmd_profile)

    plan = sub.add_parser("plan-delays", help="plan per-node delay budgets for a deployment")
    plan.add_argument("--topology", choices=TOPOLOGIES, default="chain",
                      help="deployment shape to plan over")
    plan.add_argument("--depth", type=int, default=4, help="number of nodes in the chain")
    plan.add_argument("--shards", type=int, default=4,
                      help="shard count of the sharded topology")
    plan.add_argument("--budget", type=float, default=8.0, help="end-to-end bound X in seconds")
    plan.add_argument("--queuing-allowance", type=float, default=1.5,
                      help="allowance subtracted by the FULL strategy")
    plan.add_argument("--strategy", choices=[s.value for s in DelayAssignment], default="full")
    plan.set_defaults(func=_cmd_plan_delays)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` (and by the CLI tests)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LiveBackendUnavailable as error:
        print(f"live backend unavailable: {error}", file=sys.stderr)
        return 2
    except (ConfigurationError, SimulationError) as error:
        # ConfigurationError: the flags or the spec were invalid up front.
        # SimulationError: a run refused a scheduled action mid-simulation
        # (e.g. a rebalance colliding with failure handling that validation
        # could not foresee).
        print(f"invalid {args.command}: {error}", file=sys.stderr)
        return 2
