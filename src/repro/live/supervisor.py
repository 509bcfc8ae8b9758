"""Process supervisor for the live execution backend.

``Placement.deploy(backend="live")`` binds the placement to a
:class:`LiveDeployment`; :func:`hosted_by_worker` assigns its endpoints to
workers -- one worker process per node replica plus one *edge* worker
hosting every data source and client proxy -- and
:meth:`LiveDeployment.run` orchestrates a wall-clock run:

1. create a socket directory and the address book (endpoint -> worker ->
   Unix socket path);
2. fork all workers; each builds its fragment (see :mod:`repro.live.worker`),
   binds its socket and reports ready over its control pipe.  Once every
   worker is ready, send each the shared monotonic *epoch*, ``startup_delay``
   out, at which all of them start their protocol stacks;
3. optionally SIGKILL one replica's worker mid-run (:class:`LiveKill`) and
   respawn it after a downtime with ``recovering={endpoint}`` (the same
   handshake, answered with the run's epoch, so it starts at once), which
   drives the checkpoint-shipped statexfer recovery over real sockets;
4. after the requested duration, poll the edge worker until every client's
   ledger stops growing (the pipeline has drained), then collect results
   from all workers and tear everything down.

Failure injection is the *process* dying -- no cooperation from the victim,
exactly the crash model of the paper -- which is why the supervisor, not the
transport, owns it.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar, Iterable, Sequence

from ..deploy.placement import DeployOptions, Placement
from ..errors import ConfigurationError, LiveBackendUnavailable, SimulationError
from ..metrics.consistency import stable_rows
from ..spe.tuple_codec import decode_tuples
from .faults import FaultPlan
from .worker import WorkerSpec, worker_main

#: Seconds a forked worker has to build its fragment, bind its socket and
#: report ready (13 workers take about 0.1 s) before the run is abandoned.
_READY_TIMEOUT = 10.0

#: Consecutive identical ledger polls that count as "drained".
_DRAIN_STABLE_POLLS = 3
_DRAIN_POLL_INTERVAL = 0.3


def require_fork() -> None:
    """Raise :class:`LiveBackendUnavailable` unless ``fork`` is available.

    The live backend forks workers so the compiled placement (closures,
    payload generators) crosses by memory inheritance; ``spawn``-only
    platforms (Windows, some macOS configurations) cannot run it.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        raise LiveBackendUnavailable(
            "the live backend needs the 'fork' multiprocessing start method, "
            f"which this platform does not offer (available: "
            f"{multiprocessing.get_all_start_methods()}); use backend='sim'"
        )


def _check_schedule(item, length: str, length_ok: bool, bound: str, hint: str = "") -> None:
    """Reject a negative ``at``, a ``length`` out of ``bound`` or an
    unresolved replica when a schedule is built: validated at the API seam,
    not just in the CLI, because it is a configuration bug, never a runtime
    condition."""
    name = type(item).__name__
    if item.at < 0:
        raise ConfigurationError(f"{name}.at must be >= 0, got {item.at!r}")
    if not length_ok:
        raise ConfigurationError(f"{name}.{length} must be {bound}, got {getattr(item, length)!r}")
    if item.replica < 0:
        raise ConfigurationError(
            f"{name}.replica must be a concrete replica index >= 0, got {item.replica!r}{hint}"
        )


@dataclass(frozen=True)
class LiveKill:
    """SIGKILL one replica's worker at deployment time ``at``, respawn after ``downtime``."""

    node: str
    replica: int = 0
    at: float = 2.0
    downtime: float = 1.0
    verb: ClassVar[str] = "kill"

    def __post_init__(self) -> None:
        _check_schedule(
            self, "downtime", self.downtime >= 0, ">= 0",
            " (use faults.compile_failures to expand replica=-1 schedules into "
            "one kill per replica)",
        )

    @property
    def last_signal(self) -> float:
        """The SIGKILL; the respawn may come after the run."""
        return self.at


@dataclass(frozen=True)
class LivePause:
    """SIGSTOP one replica's worker at ``at``, SIGCONT after ``duration``.

    A paused process is silent but not dead: its heartbeats stop, peers must
    raise *suspicion*, and on resume -- within the transport's confirmation
    grace -- the suspicion must clear without any crash declaration or
    recovery.  This is the liveness-detector probe, not a failure.
    """

    node: str
    replica: int = 0
    at: float = 2.0
    duration: float = 1.0
    verb: ClassVar[str] = "pause"

    def __post_init__(self) -> None:
        _check_schedule(self, "duration", self.duration > 0, "> 0")

    @property
    def last_signal(self) -> float:
        """The SIGCONT: a worker left stopped would never drain."""
        return self.at + self.duration


@dataclass
class LiveRunResult:
    """Merged results of one live run."""

    duration: float
    wall_seconds: float
    #: Seconds from ``run()`` entry to the shared epoch: fork, build, bind,
    #: the ready handshake and the ``startup_delay`` margin.
    startup_s: float = 0.0
    #: client name -> {"summary", "ledger_segments", "eventually_consistent"};
    #: the segments are the client ledger in the tuple codec, as its worker
    #: sealed them (rows are decoded on demand by :meth:`stable_rows`).
    clients: dict = field(default_factory=dict)
    #: replica endpoint -> {"statistics", "recoveries"}
    nodes: dict = field(default_factory=dict)
    #: source name -> tuples produced
    sources: dict = field(default_factory=dict)
    #: source name -> log entries still retained when the run stopped
    source_logs: dict = field(default_factory=dict)
    kills: list = field(default_factory=list)
    pauses: list = field(default_factory=list)
    #: Digest of the enforced fault plan (``FaultPlan.describe()``).
    faults: list = field(default_factory=list)
    #: worker name -> transport hardening/fault counters.
    transport: dict = field(default_factory=dict)
    #: client name -> {"first", "last", "count"} wall window of tentative output.
    tentative_phase: dict = field(default_factory=dict)
    #: worker name -> {"cpu_s", "peak_rss_mb", "wakeups"} of that process when
    #: it reported; ``wakeups`` is its voluntary context switches.
    workers: dict = field(default_factory=dict)

    @property
    def eventually_consistent(self) -> bool:
        return bool(self.clients) and all(
            c["eventually_consistent"] for c in self.clients.values()
        )

    def client(self, name: str | None = None) -> dict:
        if name is None:
            name = sorted(self.clients)[0]
        return self.clients[name]

    def stable_rows(self, name: str | None = None) -> list:
        """The client's stable ledger rows, decoded one segment at a time."""
        return [
            row
            for segment in self.client(name)["ledger_segments"]
            for row in stable_rows(decode_tuples(segment))
        ]

    def recoveries(self) -> list[dict]:
        return [
            dict(record, endpoint=endpoint)
            for endpoint, node in sorted(self.nodes.items())
            for record in node["recoveries"]
        ]

    @property
    def total_stable(self) -> int:
        return sum(c["summary"]["total_stable"] for c in self.clients.values())

    @property
    def total_tentative(self) -> int:
        return sum(
            c["summary"].get("total_tentative", 0) for c in self.clients.values()
        )

    # ---- transport hardening aggregates --------------------------------------
    def _link_total(self, key: str) -> int:
        return sum(
            link.get(key, 0)
            for stats in self.transport.values()
            for link in stats.get("links", {}).values()
        )

    @property
    def dead_letters(self) -> int:
        """Frames that exhausted the bounded retry budget, all links."""
        return self._link_total("dead_letters")

    @property
    def dropped_frames(self) -> int:
        """Frames shed while a peer's socket was down (replay-healed)."""
        return self._link_total("dropped_frames")

    @property
    def reconnects(self) -> int:
        return self._link_total("reconnects")

    @property
    def reconnect_attempts(self) -> int:
        return self._link_total("reconnect_attempts")

    def injected_faults(self) -> dict:
        """Injected-fault counts by kind, summed over all workers."""
        totals: dict = {}
        for stats in self.transport.values():
            for kind, count in stats.get("injected", {}).items():
                totals[kind] = totals.get(kind, 0) + count
        return totals

    def peer_transitions(self) -> list[dict]:
        """Merged liveness transitions (observer-tagged, time-ordered)."""
        transitions = [
            dict(record, observer=worker)
            for worker, stats in self.transport.items()
            for record in stats.get("peer_transitions", [])
        ]
        transitions.sort(key=lambda record: (record["at"], record["observer"]))
        return transitions


class _WorkerHandle:
    """One supervised worker process and its control pipe."""

    def __init__(self, spec: WorkerSpec, process, conn) -> None:
        self.spec = spec
        self.process = process
        self.conn = conn


def hosted_by_worker(placement: Placement) -> dict[str, list[str]]:
    """Worker name -> the endpoints it hosts.

    One *edge* worker hosts every source and client; every node replica gets
    a worker of its own, so killing a worker kills exactly one replica.
    """
    hosted = {
        "edge": [plan.name for plan in placement.sources]
        + [plan.name for plan in placement.clients]
    }
    for plan in placement.nodes:
        for index, endpoint in enumerate(plan.replica_names):
            hosted[f"{plan.name}-r{index}"] = [endpoint]
    return hosted


class LiveDeployment:
    """A placement bound to the live backend, ready to run."""

    def __init__(self, placement: Placement, options: DeployOptions) -> None:
        require_fork()
        self.placement = placement
        #: The resolved deploy options every worker hands to the placement walk.
        self.options = options

    # ------------------------------------------------------------------ worker plan
    def _worker_plan(
        self, socket_dir: str, fault_plan: FaultPlan, profile_dir: str | None
    ) -> list[WorkerSpec]:
        hosted = hosted_by_worker(self.placement)
        worker_sockets = {
            worker: os.path.join(socket_dir, f"{worker}.sock") for worker in hosted
        }
        endpoint_worker = {
            endpoint: worker for worker, endpoints in hosted.items() for endpoint in endpoints
        }
        return [
            WorkerSpec(
                name=worker,
                hosted=frozenset(endpoints),
                socket_path=worker_sockets[worker],
                worker_sockets=worker_sockets,
                endpoint_worker=endpoint_worker,
                fault_plan=fault_plan,
                profile_path=(
                    os.path.join(profile_dir, f"{worker}.pstats") if profile_dir else None
                ),
            )
            for worker, endpoints in hosted.items()
        ]

    def _spawn(self, ctx, spec: WorkerSpec) -> _WorkerHandle:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=worker_main,
            args=(spec, self.placement, self.options, child_conn),
            name=f"repro-live-{spec.name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(spec, process, parent_conn)

    @staticmethod
    def _await_ready(handles: Iterable[_WorkerHandle]) -> None:
        """Block until every worker of ``handles`` has reported ready.

        Raises :class:`SimulationError` naming a worker that exits first, or
        that has not reported within ``_READY_TIMEOUT`` seconds.
        """
        # Imported here, not with the module: ``ctx.Pipe()`` loads it for a
        # live run anyway, and simulator-only importers would pay ~6 ms.
        from multiprocessing.connection import wait

        deadline = time.monotonic() + _READY_TIMEOUT
        waiting = {handle.conn: handle for handle in handles}
        while waiting:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                names = ", ".join(sorted(handle.spec.name for handle in waiting.values()))
                raise SimulationError(
                    f"live worker(s) {names} did not report ready within {_READY_TIMEOUT:g}s"
                )
            for conn in wait(list(waiting), remaining):
                handle = waiting.pop(conn)
                try:
                    conn.recv()  # ("ready", name)
                except EOFError:  # only the worker held the other end
                    handle.process.join(timeout=1.0)
                    raise SimulationError(
                        f"live worker {handle.spec.name!r} exited before reporting "
                        f"ready (exitcode={handle.process.exitcode})"
                    ) from None

    # ------------------------------------------------------------------ validation
    def _validate_schedule(self, given, kind: type, duration: float) -> list:
        """``given`` -- None, one ``kind`` schedule or a sequence of them -- as
        a list, each checked against the placement and the run's length."""
        items = [] if given is None else list(given) if isinstance(given, (list, tuple)) else [given]
        for item in items:
            if not isinstance(item, kind):
                raise ConfigurationError(
                    f"{kind.verb} schedules must be {kind.__name__} instances, got "
                    f"{type(item).__name__}; compile sim failure specs with "
                    f"repro.live.faults.compile_failures first"
                )
            replicas = len(self.placement.node_plan(item.node).replica_names)
            if item.replica >= replicas:
                raise ConfigurationError(
                    f"node {item.node!r} has {replicas} replica(s); "
                    f"cannot {kind.verb} replica {item.replica}"
                )
            if item.last_signal >= duration:
                raise ConfigurationError(
                    f"{kind.verb} at t={item.at:g}s signals until "
                    f"t={item.last_signal:g}s, past the end of the run "
                    f"(duration={duration:g}s)"
                )
        return items

    def _validate_faults(self, faults: FaultPlan | None, duration: float) -> FaultPlan:
        if faults is None:
            return FaultPlan()
        if not isinstance(faults, FaultPlan):
            raise ConfigurationError(
                f"faults must be a repro.live.faults.FaultPlan, got "
                f"{type(faults).__name__}"
            )
        faults.validate()
        from .faults import WINDOW_KINDS

        for rule in faults.rules:
            # A disconnect/partition window that outlives the run would end
            # mid-failure: the ledger never reconciles and every consistency
            # assertion is vacuous.  (Open-ended *wire* rules are fine -- the
            # retry/dedup machinery keeps the run convergent under them.)
            if rule.kind in WINDOW_KINDS and rule.end > duration + 1e-9:
                raise ConfigurationError(
                    f"fault window {rule.kind!r} runs until t={rule.end:g}s but "
                    f"the run is only {duration:g}s; it would never heal"
                )
        return faults

    # ------------------------------------------------------------------ run
    def run(
        self,
        duration: float,
        kill: "LiveKill | Sequence[LiveKill] | None" = None,
        drain_timeout: float = 15.0,
        startup_delay: float = 0.1,
        faults: FaultPlan | None = None,
        pause: "LivePause | Sequence[LivePause] | None" = None,
        profile_dir: str | None = None,
    ) -> LiveRunResult:
        """Run the deployment for ``duration`` wall-clock seconds and collect.

        ``kill`` injects mid-run SIGKILLs + respawns (one or a schedule),
        ``pause`` SIGSTOP/SIGCONT probes, and ``faults`` a wire-level
        :class:`~repro.live.faults.FaultPlan` every worker's transport
        enforces.  After ``duration`` the supervisor waits (bounded by
        ``drain_timeout``) for every client's ledger to stop growing before
        stopping the workers, so in-flight batches are not cut off
        mid-pipeline.  ``profile_dir`` (an existing directory) runs every
        worker under cProfile and leaves one ``<worker>.pstats`` there.
        ``startup_delay`` is the margin from the last worker's "ready" to the
        shared epoch, in which the start message reaches every worker.
        """
        kills = self._validate_schedule(kill, LiveKill, duration)
        pauses = self._validate_schedule(pause, LivePause, duration)
        plan = self._validate_faults(faults, duration)
        started_wall = time.monotonic()
        ctx = multiprocessing.get_context("fork")
        socket_dir = tempfile.mkdtemp(prefix="repro-live-")
        handles: dict[str, _WorkerHandle] = {}
        result = LiveRunResult(duration=duration, wall_seconds=0.0)
        result.faults = plan.describe()
        timeline = sorted(
            [(k.at, 0, "kill", k) for k in kills]
            + [(k.at + k.downtime, 1, "respawn", k) for k in kills]
            + [(p.at, 0, "pause", p) for p in pauses]
            + [(p.at + p.duration, 1, "resume", p) for p in pauses],
            key=lambda event: (event[0], event[1]),
        )
        try:
            for spec in self._worker_plan(socket_dir, plan, profile_dir):
                handles[spec.name] = self._spawn(ctx, spec)
            self._await_ready(handles.values())
            epoch = time.monotonic() + startup_delay
            for handle in handles.values():
                handle.conn.send(("start", epoch))
            result.startup_s = epoch - started_wall
            for at, _, action, directive in timeline:
                self._sleep_until(epoch + at)
                self._apply_action(ctx, handles, epoch, action, directive, result)
            self._sleep_until(epoch + duration)
            self._await_drain(handles["edge"], drain_timeout)
            for handle in handles.values():
                self._collect(handle, result)
            result.wall_seconds = time.monotonic() - started_wall
            if profile_dir is not None:
                # Let the workers exit on their own: the profile is written
                # after the result is sent, and the teardown below terminates.
                for handle in handles.values():
                    handle.process.join(timeout=10.0)
            return result
        finally:
            for handle in handles.values():
                if handle.process.is_alive():
                    handle.process.terminate()
                handle.process.join(timeout=5.0)
                if handle.process.is_alive():  # pragma: no cover - last resort
                    handle.process.kill()
                    handle.process.join(timeout=5.0)
                handle.conn.close()
            shutil.rmtree(socket_dir, ignore_errors=True)

    # ------------------------------------------------------------------ actions
    def _endpoint_and_worker(self, node: str, replica: int) -> tuple[str, str]:
        endpoint = self.placement.node_plan(node).replica_names[replica]
        return endpoint, f"{node}-r{replica}"

    def _apply_action(
        self, ctx, handles: dict, epoch: float, action: str, directive, result: LiveRunResult
    ) -> None:
        if action == "kill":
            endpoint, worker_name = self._endpoint_and_worker(
                directive.node, directive.replica
            )
            os.kill(handles[worker_name].process.pid, signal.SIGKILL)
            result.kills.append(
                {"endpoint": endpoint, "at": time.monotonic() - epoch, "worker": worker_name}
            )
        elif action == "respawn":
            endpoint, worker_name = self._endpoint_and_worker(
                directive.node, directive.replica
            )
            victim = handles[worker_name]
            respawn_spec = replace(
                victim.spec,
                recovering=frozenset({endpoint}),
                # Bump the incarnation so peers reject any frame a zombie
                # predecessor connection might still deliver.
                generation=victim.spec.generation + 1,
            )
            victim.process.join(timeout=5.0)
            victim.conn.close()
            respawned = handles[worker_name] = self._spawn(ctx, respawn_spec)
            self._await_ready([respawned])
            respawned.conn.send(("start", epoch))
            for record in result.kills:
                if record["worker"] == worker_name and "respawned_at" not in record:
                    record["respawned_at"] = time.monotonic() - epoch
                    break
        elif action == "pause":
            endpoint, worker_name = self._endpoint_and_worker(
                directive.node, directive.replica
            )
            os.kill(handles[worker_name].process.pid, signal.SIGSTOP)
            result.pauses.append(
                {"endpoint": endpoint, "at": time.monotonic() - epoch, "worker": worker_name}
            )
        elif action == "resume":
            endpoint, worker_name = self._endpoint_and_worker(
                directive.node, directive.replica
            )
            os.kill(handles[worker_name].process.pid, signal.SIGCONT)
            for record in result.pauses:
                if record["worker"] == worker_name and "resumed_at" not in record:
                    record["resumed_at"] = time.monotonic() - epoch
                    break

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def _sleep_until(deadline: float) -> None:
        delay = deadline - time.monotonic()
        if delay > 0:
            time.sleep(delay)

    def _request(self, handle: _WorkerHandle, request: str, timeout: float = 5.0):
        handle.conn.send(request)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if handle.conn.poll(0.05):
                kind, payload = handle.conn.recv()
                return payload
        raise SimulationError(
            f"live worker {handle.spec.name!r} did not answer {request!r} "
            f"within {timeout}s"
        )

    def _await_drain(self, edge: _WorkerHandle, drain_timeout: float) -> None:
        """Wait until every client ledger stops growing (pipeline drained)."""
        deadline = time.monotonic() + drain_timeout
        stable_polls = 0
        last = None
        while time.monotonic() < deadline:
            status = self._request(edge, "status")
            counts = (status["ledgers"], status["stable"])
            if counts == last:
                stable_polls += 1
                if stable_polls == _DRAIN_STABLE_POLLS:
                    return
            else:
                stable_polls = 0
                last = counts
            time.sleep(_DRAIN_POLL_INTERVAL)

    def _collect(self, handle: _WorkerHandle, result: LiveRunResult) -> None:
        try:
            payload = self._request(handle, "stop", timeout=10.0)
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise SimulationError(
                f"live worker {handle.spec.name!r} died before reporting results "
                f"(exitcode={handle.process.exitcode})"
            ) from exc
        result.clients.update(payload["clients"])
        result.nodes.update(payload["nodes"])
        result.sources.update(payload["sources"])
        result.source_logs.update(payload["source_logs"])
        result.tentative_phase.update(payload.get("tentative_phase", {}))
        transport = payload.get("transport")
        if transport is not None:
            result.transport[handle.spec.name] = transport
        result.workers[handle.spec.name] = payload["usage"]
