"""Configuration objects shared across the SPE, the simulator, and DPC.

The paper expresses every protocol knob in seconds of (wall-clock) time.  The
reproduction keeps the same units but interprets them as *simulated* seconds,
so values such as the availability bound ``X = 3 s`` or a ``boundary interval
of 100 ms`` can be copied verbatim from the paper into these dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import ConfigurationError


class ProcessingPolicy(str, Enum):
    """What an SUnion does with newly arriving tuples while inconsistent.

    The paper (Section 6.1) distinguishes three behaviours that can be applied
    independently during UP_FAILURE and during STABILIZATION:

    * ``PROCESS`` -- emit available tuples (as tentative) as soon as they
      arrive, after the initial suspension window.
    * ``DELAY`` -- hold every bucket of tuples for the node's maximum
      incremental delay ``D`` before emitting it tentatively.
    * ``SUSPEND`` -- do not emit anything; only viable for short failures or
      short reconciliations, otherwise the availability bound is violated.
    """

    PROCESS = "process"
    DELAY = "delay"
    SUSPEND = "suspend"


class DelayAssignment(str, Enum):
    """How the application-level bound ``X`` is divided among SUnions.

    Section 6.3 of the paper compares splitting ``X`` uniformly across the
    nodes of a chain against assigning (almost) the whole budget to every
    SUnion.  The latter masks longer failures without producing tentative
    tuples while still meeting the bound, because all SUnions downstream of a
    failure suspend simultaneously.

    ACCUMULATED is the per-path refinement the paper sketches at the end of
    Section 6.3 (Figure 21): each node spends only the budget its most
    delayed input path has not already consumed, divided by the longest
    remaining path to a sink.  On a chain it degenerates to UNIFORM; on
    unbalanced DAGs it stops short branches from being under-assigned.
    """

    UNIFORM = "uniform"
    FULL = "full"
    ACCUMULATED = "accumulated"


@dataclass(frozen=True)
class DelayPolicy:
    """Pairing of the behaviours used during failure and during stabilization.

    The six combinations studied in Figure 13 are expressed as instances of
    this class, e.g. ``DelayPolicy.process_process()`` is the baseline the
    paper calls *Process & Process*.
    """

    during_failure: ProcessingPolicy = ProcessingPolicy.PROCESS
    during_stabilization: ProcessingPolicy = ProcessingPolicy.PROCESS

    @classmethod
    def process_process(cls) -> "DelayPolicy":
        return cls(ProcessingPolicy.PROCESS, ProcessingPolicy.PROCESS)

    @classmethod
    def delay_delay(cls) -> "DelayPolicy":
        return cls(ProcessingPolicy.DELAY, ProcessingPolicy.DELAY)

    @classmethod
    def process_delay(cls) -> "DelayPolicy":
        return cls(ProcessingPolicy.PROCESS, ProcessingPolicy.DELAY)

    @classmethod
    def delay_process(cls) -> "DelayPolicy":
        return cls(ProcessingPolicy.DELAY, ProcessingPolicy.PROCESS)

    @classmethod
    def process_suspend(cls) -> "DelayPolicy":
        return cls(ProcessingPolicy.PROCESS, ProcessingPolicy.SUSPEND)

    @classmethod
    def delay_suspend(cls) -> "DelayPolicy":
        return cls(ProcessingPolicy.DELAY, ProcessingPolicy.SUSPEND)

    @property
    def name(self) -> str:
        """Human readable name matching the paper, e.g. ``Delay & Process``."""
        return (
            f"{self.during_failure.value.capitalize()} & "
            f"{self.during_stabilization.value.capitalize()}"
        )


@dataclass(frozen=True)
class DPCConfig:
    """All DPC protocol parameters for one deployment.

    Attributes mirror the quantities named in the paper:

    * ``max_incremental_latency`` -- the application bound ``X`` (seconds).
    * ``delay_assignment`` -- how ``X`` is split among SUnions (Section 6.3).
    * ``delay_safety_factor`` -- SUnions delay for ``0.9 * D`` instead of
      ``D`` because the scheduler controls when they run (footnote, §5.2).
    * ``queuing_allowance`` -- subtracted from ``X`` when the FULL assignment
      is used (the paper uses 6.5 s out of an 8 s budget).
    * ``boundary_interval`` -- period of boundary tuples emitted by sources
      and operators.
    * ``bucket_size`` -- SUnion bucket granularity.
    * ``keepalive_period`` -- period at which a processing node advertises
      its state to every consumer that got no data batch in the period (a
      pushed heartbeat response) and runs its control loop; a whole
      multiple of ``SimulationConfig.batch_interval``.
    * ``failure_detection_timeout`` -- missing-boundary / missing-heartbeat
      window after which an input stream is declared failed.
    * ``startup_grace`` -- extra allowance right after deployment, before the
      first boundaries have propagated through the diagram.
    * ``checkpoint_cost`` / ``redo_rate`` -- reconciliation cost model:
      restoring a checkpoint costs ``checkpoint_cost`` seconds and
      reprocessing buffered tuples proceeds at ``redo_rate`` tuples per
      simulated second.
    * ``tentative_bucket_wait`` -- minimum wait before processing a tentative
      bucket (300 ms in the implementation described by the paper, because
      tentative boundaries are not produced).
    * ``checkpoint_interval`` -- cadence (seconds) at which a STABLE replica
      captures a recovery checkpoint of its whole fragment so a crashed peer
      can rejoin from shipped state plus a short replay suffix instead of
      replaying the entire retained window.  Each capture is acknowledged
      upstream (clients acknowledge their ledger on the same cadence), which
      is what truncates output buffers and source logs (Section 8.1).
      ``None`` disables periodic capture and the acknowledgments with it:
      full-replay recovery, everything retained.
    * ``checkpoint_transfer_cost`` -- simulated seconds per checkpointed
      state item when shipping a recovery checkpoint between replicas, on
      top of the fixed ``checkpoint_cost``; makes transfer non-instantaneous
      so shipping races the replay it replaces.  Rebalance bucket handoffs are
      priced through the same model (``repro.statexfer.transfer_delay``).
    """

    max_incremental_latency: float = 3.0
    delay_policy: DelayPolicy = field(default_factory=DelayPolicy.process_process)
    delay_assignment: DelayAssignment = DelayAssignment.UNIFORM
    delay_safety_factor: float = 0.9
    queuing_allowance: float = 1.5
    boundary_interval: float = 0.1
    bucket_size: float = 0.1
    keepalive_period: float = 0.1
    failure_detection_timeout: float = 0.25
    startup_grace: float = 1.0
    checkpoint_cost: float = 0.05
    redo_rate: float = 1200.0
    tentative_bucket_wait: float = 0.3
    per_stream_granularity: bool = False
    checkpoint_interval: float | None = 2.0
    checkpoint_transfer_cost: float = 0.00002

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if any field is inconsistent."""
        if self.max_incremental_latency <= 0:
            raise ConfigurationError("max_incremental_latency (X) must be positive")
        if not 0 < self.delay_safety_factor <= 1:
            raise ConfigurationError("delay_safety_factor must be in (0, 1]")
        if self.boundary_interval <= 0 or self.bucket_size <= 0:
            raise ConfigurationError("boundary_interval and bucket_size must be positive")
        if self.keepalive_period <= 0 or self.failure_detection_timeout <= 0:
            raise ConfigurationError("keepalive and detection timeouts must be positive")
        if self.failure_detection_timeout >= self.max_incremental_latency:
            raise ConfigurationError(
                "failure_detection_timeout must be well below the availability bound X"
            )
        if self.redo_rate <= 0:
            raise ConfigurationError("redo_rate must be positive")
        if self.checkpoint_cost < 0:
            raise ConfigurationError("checkpoint_cost cannot be negative")
        if self.queuing_allowance < 0:
            raise ConfigurationError("queuing_allowance cannot be negative")
        if self.startup_grace < 0:
            raise ConfigurationError("startup_grace cannot be negative")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ConfigurationError("checkpoint_interval must be positive or None")
        if self.checkpoint_transfer_cost < 0:
            raise ConfigurationError("checkpoint_transfer_cost cannot be negative")

    def with_(self, **changes: object) -> "DPCConfig":
        """Return a copy of this configuration with ``changes`` applied."""
        return replace(self, **changes)


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of the discrete-event substrate.

    * ``network_latency`` -- one-way latency of every link (seconds).
    * ``batch_interval`` -- sources and nodes flush their output this often.
    """

    network_latency: float = 0.005
    batch_interval: float = 0.05

    def validate(self) -> None:
        if self.network_latency < 0:
            raise ConfigurationError("network_latency cannot be negative")
        if self.batch_interval <= 0:
            raise ConfigurationError("batch_interval must be positive")


DEFAULT_DPC_CONFIG = DPCConfig()
DEFAULT_SIMULATION_CONFIG = SimulationConfig()
