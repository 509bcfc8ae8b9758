"""Peer-worker liveness for the live backend: ``ALIVE -> SUSPECT -> DOWN``.

Every :data:`HEARTBEAT_INTERVAL` seconds a worker sends a heartbeat frame
to each peer worker whose link carried no data within that interval, over
the same reliable in-order link its data frames take (the paper's
keep-alives, Sections 2.2 and 4.1).  Any admitted frame from a peer --
heartbeat or data -- counts as hearing it.
:class:`PeerLiveness` turns the silence since a peer was last heard into a
typed verdict: SUSPECT after :data:`SUSPECT_AFTER`, DOWN after
:data:`DOWN_AFTER`, ALIVE again on the next frame.  The transport's
``can_communicate`` reads the DOWN verdict -- the same signal DPC's failure
detection reads in the simulator.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

#: Heartbeat cadence and liveness thresholds (seconds of silence).
HEARTBEAT_INTERVAL = 0.25
SUSPECT_AFTER = 0.75
DOWN_AFTER = 2.5


class PeerState(str, Enum):
    """Typed liveness verdict for one peer worker."""

    ALIVE = "alive"
    SUSPECT = "suspect"
    DOWN = "down"


class PeerLiveness:
    """The liveness verdicts one worker holds about its peer workers."""

    def __init__(self, worker: str, workers: Iterable[str]) -> None:
        self.worker = worker
        self.peers = tuple(peer for peer in workers if peer != worker)
        self._last_heard: dict[str, float] = {}
        self._state: dict[str, PeerState] = {}
        self.transitions: list[dict] = []
        self.suspicions = 0
        self.confirmations = 0

    def state(self, peer: str) -> PeerState:
        return self._state.get(peer, PeerState.ALIVE)

    def states(self) -> dict[str, str]:
        """The verdicts that ever left ALIVE, by peer name."""
        return {peer: state.value for peer, state in sorted(self._state.items())}

    def heard(self, peer: str, now: float) -> None:
        """A frame from ``peer`` was admitted at ``now``."""
        if peer in self.peers:
            self._last_heard[peer] = now
            self._set(peer, PeerState.ALIVE, now)

    def sweep(self, now: float) -> None:
        """Re-judge every peer by its silence at ``now`` (once per heartbeat)."""
        for peer in self.peers:
            last = self._last_heard.get(peer)
            if last is None:
                # First sighting of the peer set: arm the silence clock now so
                # startup staggering never produces an instant suspicion.
                self._last_heard[peer] = now
                continue
            silence = now - last
            if silence >= DOWN_AFTER:
                state = PeerState.DOWN
            elif silence >= SUSPECT_AFTER:
                state = PeerState.SUSPECT
            else:
                state = PeerState.ALIVE
            self._set(peer, state, now)

    def _set(self, peer: str, state: PeerState, now: float) -> None:
        previous = self._state.get(peer, PeerState.ALIVE)
        if state is previous:
            return
        self._state[peer] = state
        self.transitions.append(
            {"peer": peer, "from": previous.value, "to": state.value, "at": now}
        )
        if state is PeerState.SUSPECT:
            self.suspicions += 1
        elif state is PeerState.DOWN:
            self.confirmations += 1
