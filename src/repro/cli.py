"""Command-line interface of the reproduction.

``python -m repro`` exposes the experiment registry
(:mod:`repro.analysis.registry`) so every table and figure of the paper can be
regenerated (exported as text, Markdown, or CSV) and checked against the
paper's claims without writing any code, and runs, profiles or plans any entry
of the scenario catalogue (:mod:`repro.workloads.catalogue`) at a point of its
builder's keywords::

    python -m repro list
    python -m repro run table3
    python -m repro report --output report.md
    python -m repro run fig16 --scale quick --format markdown
    python -m repro run replicas --output replicas.csv --format csv
    python -m repro claims
    python -m repro scenario table3 failure_duration=8
    python -m repro scenario chain-silence policy='Delay & Delay' failure_duration=15
    python -m repro scenario recovery failure_duration=1 checkpoint_interval=0.5 --backend live
    python -m repro profile shard-throughput --sort tottime
    python -m repro profile live-throughput-chain2 aggregate_rate=4000 warmup=6 --backend live
    python -m repro plan-delays delay-assignment

A ``key=value`` value is a Python literal (a bare word is a string) of the
type the builder annotates; ``scenario --help`` lists every entry with its
keywords.  Everything the CLI prints can also be produced programmatically::

    from repro.workloads.catalogue import CATALOGUE

    spec = CATALOGUE["chain2-disconnect"](seed=2)
    print(spec.run().client.summary())             # the deterministic simulator
    print(spec.run_live().client()["summary"])     # the same schedule on forked workers
"""

from __future__ import annotations

import argparse
import ast
import inspect
import os
import sys
from typing import Callable, Sequence

from .analysis.registry import EXPERIMENTS, SCALES, build_report
from .analysis.tables import ResultTable, render_csv, render_markdown, render_text
from .deploy.wiring import delay_planner, node_delay_budgets
from .errors import ConfigurationError, LiveBackendUnavailable, SimulationError
from .runtime import ScenarioSpec
from .runtime.runtime import LIVE_POST_STOP_SLACK
from .workloads.catalogue import CATALOGUE

#: Renderers selectable with ``--format``.
_RENDERERS: dict[str, Callable[[ResultTable], str]] = {
    "text": render_text,
    "markdown": render_markdown,
    "csv": render_csv,
}

#: The annotations a catalogue keyword may carry, as the catalogue spells them.
_TYPES = {"float": float, "int": int, "bool": bool, "str": str, "None": type(None)}


# --------------------------------------------------------------------------- catalogue entries
def _signature(build: Callable[..., ScenarioSpec]) -> str:
    """``(key: type = default, ...)``: the keywords a catalogue entry takes."""
    keys = ", ".join(f"{p.name}: {p.annotation} = {p.default!r}"
                     for p in inspect.signature(build).parameters.values())
    return f"({keys})"


def _entries_help() -> str:
    """Every catalogue entry with its keywords and the first line of its docstring."""
    lines = ["catalogue entries (set a keyword with key=value, e.g. failure_duration=15):"]
    for name, build in CATALOGUE.items():
        lines.append(f"  {name}{_signature(build)}")
        doc = inspect.getdoc(getattr(build, "func", build))  # a partial documents its function
        if doc:
            lines.append(f"      {doc.splitlines()[0]}")
    return "\n".join(lines)


def _typed(key: str, text: str, annotation: str) -> object:
    """``text`` as a Python literal (else the bare string), checked against ``annotation``."""
    try:
        value = ast.literal_eval(text)
    except (ValueError, TypeError, SyntaxError):
        value = text
    kinds = [_TYPES[name.strip()] for name in annotation.split("|")]
    if type(value) is int and float in kinds and int not in kinds:
        value = float(value)
    if type(value) not in kinds:
        raise ConfigurationError(f"{key}={text} is not {annotation}")
    return value


def _entry_spec(args: argparse.Namespace) -> ScenarioSpec:
    """The spec the catalogue entry ``args.entry`` builds at the point ``args.point``."""
    build = CATALOGUE.get(args.entry)
    if build is None:
        raise ConfigurationError(
            f"unknown entry {args.entry!r}; entries: {', '.join(CATALOGUE)}"
        )
    parameters = inspect.signature(build).parameters
    point = {}
    for pair in args.point:
        key, equals, text = pair.partition("=")
        if not equals or key not in parameters:
            raise ConfigurationError(
                f"{args.entry} takes no {pair!r}; its keywords: {_signature(build)}"
            )
        point[key] = _typed(key, text, parameters[key].annotation)
    return build(**point)


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
    topology = spec.topology
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
    spec = _entry_spec(args)
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
    """Run one catalogue entry under cProfile and print the hottest call sites.

    Future perf work should start from this data, not from guesses: the
    hot-path overhaul (slotted tuples, batch operator loops) was driven by
    exactly this view of a shard(4) run.
    """
    spec = _entry_spec(args)
    if args.backend == "live":
        return _profile_live(args, spec)
    top = 25 if args.top is None else args.top
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
    print(f"top {top} by {args.sort}:")
    stats.sort_stats(args.sort).print_stats(top)
    print(
        f"per source tuple: {counters['calls_per_source_tuple']:.1f} calls, "
        f"{counters['row_constructions_per_source_tuple']:.2f} StreamTuple row constructions, "
        f"{counters['mapping_constructions_per_source_tuple']:.2f} payload mappings"
    )
    return 0


def _profile_live(args: argparse.Namespace, spec: ScenarioSpec) -> int:
    """Profile every worker process of a live run of ``spec``.

    Each forked worker runs under its own CPU-time cProfile (``time.process_time``:
    a descheduled worker is not charged for the wait) and leaves a ``<worker>.pstats``
    in ``--out``.  Per worker this prints its CPU seconds, peak RSS, wakeups per wall
    second (voluntary context switches), the CPU outside the event loop's ``poll``,
    the wire codec's share of it and the top entries.
    """
    import pstats
    import tempfile

    top = 15 if args.top is None else args.top
    out_dir = args.out or tempfile.mkdtemp(prefix="repro-profile-live-")
    os.makedirs(out_dir, exist_ok=True)
    result = spec.run_live(profile_dir=out_dir)
    produced = sum(result.sources.values())
    print(
        f"profiled live {spec.name!r}: {len(result.transport)} worker processes, "
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
            f"top {top} by {args.sort}:"
        )
        stats.sort_stats(args.sort).print_stats(top)
    return 0 if result.eventually_consistent else 1


def _cmd_plan_delays(args: argparse.Namespace) -> int:
    """The per-node D the entry's deployment is wired with, and every path's total."""
    spec = _entry_spec(args)
    topology, config = spec.topology, spec.dpc_config()
    budgets = node_delay_budgets(topology, config, spec.per_node_delay)
    planner = delay_planner(topology, config)
    print(f"topology: {topology.name} (longest path: {topology.depth()} node(s))")
    override = "" if spec.per_node_delay is None else " (overridden: per_node_delay)"
    print(f"strategy: {config.delay_assignment.value}{override}")
    print(f"end-to-end budget X: {config.max_incremental_latency:g} s")
    print(f"masked failure duration: {min(budgets.values()):g} s")
    for node, delay in budgets.items():
        print(f"  {node}: D = {delay:g} s")
    for diagnostic in planner.diagnose(budgets):
        status = "ok" if diagnostic.within_budget else "OVER BUDGET"
        print(f"path {' -> '.join(diagnostic.path)}: accumulated "
              f"{diagnostic.accumulated_delay:g} s [{status}]")
    if spec.per_node_delay is None:
        for note in planner.plan(config.delay_assignment).notes:
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

    entries = _entries_help()

    def entry_parser(name: str, func, backend: bool, **kwargs) -> argparse.ArgumentParser:
        command = sub.add_parser(name, epilog=entries,
                                 formatter_class=argparse.RawDescriptionHelpFormatter, **kwargs)
        command.add_argument("entry", help="catalogue entry (listed below)")
        command.add_argument("point", nargs="*", metavar="key=value",
                             help="a keyword of the entry's builder and its value")
        if backend:
            command.add_argument(
                "--backend", choices=("sim", "live"), default="sim",
                help="sim runs the deterministic simulator; live runs the same compiled "
                     "placement as real processes over Unix sockets in wall-clock time "
                     "(silence, rebalance and autoscale are simulator-only)")
        command.set_defaults(func=func)
        return command

    entry_parser(
        "scenario", _cmd_scenario, True,
        help="run one catalogue entry and print the client's view of the run",
        description="Build the ScenarioSpec a catalogue entry describes, run it, and "
        "print the client's view of the run (exit 1 unless eventually consistent).",
    )
    profile = entry_parser(
        "profile", _cmd_profile, True,
        help="run one catalogue entry under cProfile and print the hottest call sites",
        description="Run a catalogue entry under cProfile and print the top-N hot "
        "spots, so perf PRs start from data instead of guesses; on the live backend "
        "every worker process is profiled on its own.",
    )
    profile.add_argument("--top", type=int, default=None,
                         help="number of entries to print (default 25; live: 15 per worker)")
    profile.add_argument("--sort", choices=("cumulative", "tottime", "ncalls"),
                         default="cumulative", help="pstats sort order")
    profile.add_argument("--out", default=None,
                         help="directory for the per-worker .pstats files "
                              "(live only; default: a fresh temporary directory)")
    entry_parser(
        "plan-delays", _cmd_plan_delays, False,
        help="print the per-node delay budgets a catalogue entry is deployed with",
        description="Print the delay budget D of every node of a catalogue entry's "
        "deployment, as the deployment wires it, and the accumulated D of every path.",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` (and by the CLI tests)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader went away (``repro scenario ... | head``): send what is
        # still buffered to devnull so the exit flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except LiveBackendUnavailable as error:
        print(f"live backend unavailable: {error}", file=sys.stderr)
        return 2
    except (ConfigurationError, SimulationError) as error:
        # An invalid entry, keyword or spec up front, or a scheduled action a run
        # refused mid-simulation (e.g. a rebalance colliding with failure handling).
        print(f"invalid {args.command}: {error}", file=sys.stderr)
        return 2
