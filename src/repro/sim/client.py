"""Client application (and its DPC-aware proxy).

The paper assumes client applications either link a fault-tolerant library or
talk to the system through a proxy implementing DPC (Section 2.2).
:class:`ClientApplication` plays both roles in the simulation: it subscribes
to the replicas of the node producing its output stream, applies the same
upstream-switching rules a processing node would (via its own
:class:`~repro.core.consistency_manager.ConsistencyManager`), and records
everything it receives into a :class:`~repro.metrics.collector.MetricsCollector`
so experiments can report Proc_new, N_tentative, and the raw output trace.
"""

from __future__ import annotations

from typing import Sequence

from ..config import DPCConfig
from ..core.consistency_manager import ConsistencyManager
from ..core.protocol import DATA, TupleBatch
from ..core.states import NodeState
from ..metrics.collector import MetricsCollector
from ..core.clock import Clock
from ..sim.network import Message, Network
from ..spe.payload import CONTROL_PAYLOAD
from ..spe.tuples import BOUNDARY, TENTATIVE, UNDO, TupleBlock


class ClientApplication:
    """Receives one output stream of the distributed SPE and measures it."""

    def __init__(
        self,
        name: str,
        stream: str,
        simulator: Clock,
        network: Network,
        config: DPCConfig | None = None,
        sequence_attribute: str = "seq",
        rng_seed: int | None = None,
    ) -> None:
        self.name = name
        self.endpoint = name
        self.stream = stream
        self.simulator = simulator
        self.network = network
        self.config = config or DPCConfig()
        self.metrics = MetricsCollector(stream=stream, sequence_attribute=sequence_attribute)
        self.cm = ConsistencyManager(
            owner=self, simulator=simulator, network=network, config=self.config, rng_seed=rng_seed
        )
        self._started = False
        #: Peer registry wired by the deploy layer (``None``: hand-built, no
        #: acknowledgments).  A client never redoes, so what it has recorded
        #: is durable: it acknowledges its ledger position to every replica of
        #: its sink on the recovery-checkpoint cadence, from the arrival that
        #: comes due (no timer of its own).
        self.statexfer_registry = None
        self._next_ack_at = 0.0
        network.register(self.endpoint, self._on_message)

    # ------------------------------------------------------------------ wiring
    def register_upstream(
        self,
        producers: Sequence[str],
        source_producers: Sequence[str] = (),
    ) -> None:
        """Declare which endpoints can produce the client's stream."""
        self.cm.register_input(self.stream, producers, source_producers)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.cm.start()

    # ------------------------------------------------------------------ message handling
    def _on_message(self, message: Message, now: float) -> None:
        if message.kind != DATA:
            self.cm.handle_message(message, now)
            return
        batch: TupleBatch = message.payload
        if batch.stream != self.stream:
            return
        role = self.cm.receive_batch(batch, message.sender, now)
        if role == "ignore":
            return
        monitor = self.cm.monitors[batch.stream]
        block = monitor.record_block(batch.tuples, now)
        # Punctuation is not output; fresh tentative data is taken from the
        # primary connection only.
        codes = block.codes
        if BOUNDARY in codes or (role == "correcting" and TENTATIVE in codes):
            unwanted = (BOUNDARY, TENTATIVE) if role == "correcting" else (BOUNDARY,)
            block = block.take([i for i, code in enumerate(codes) if code not in unwanted])
        self.metrics.observe_block(block, now)
        # The monitor buffers stable arrivals for a redo; a client has none.
        monitor.clear_stable_buffer()
        interval = self.config.checkpoint_interval
        if (
            interval is not None
            and self.statexfer_registry is not None
            and now + 1e-9 >= self._next_ack_at
        ):
            self._next_ack_at = now + interval
            self.cm.acknowledge_inputs(self.statexfer_registry)

    # ------------------------------------------------------------------ ConsistencyOwner interface
    def on_input_failure(self, stream: str, now: float) -> None:
        """Clients have no processing to suspend; the trace simply shows the gap."""

    def on_inputs_healed(self, now: float) -> None:
        for monitor in self.cm.monitors.values():
            monitor.mark_healed()
        if self.cm.state is NodeState.UP_FAILURE:
            self.cm.set_state(NodeState.STABLE)

    def apply_local_undo(self, stream: str, now: float) -> None:
        """An UNDO reached the application: revoke the tentative suffix."""
        undo = TupleBlock(bytes((UNDO,)), (-1,), (now,), CONTROL_PAYLOAD, (-1,))
        self.metrics.consistency.observe_run(undo)

    def start_reconciliation(self, now: float) -> None:
        """Clients hold no operator state; nothing to reconcile."""

    def wants_reconciliation(self) -> bool:
        return False

    # ------------------------------------------------------------------ results
    @property
    def proc_new(self) -> float:
        """Maximum end-to-end latency of new output tuples (seconds)."""
        return self.metrics.latency.proc_new

    @property
    def n_tentative(self) -> int:
        """Total tentative tuples received (the quantity plotted in Figs 13-20)."""
        return self.metrics.consistency.total_tentative

    @property
    def stable_sequence(self) -> list:
        """Stable values of the sequence attribute, after applying undos."""
        return self.metrics.consistency.stable_values(self.metrics.sequence_attribute)

    def summary(self) -> dict:
        data = self.metrics.summary()
        data["client"] = self.name
        data["switches"] = self.cm.switches_performed
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClientApplication {self.name!r} stream={self.stream!r}>"
