"""Content filters attached to subscriptions (producer-side routing).

A :class:`SubscriptionFilter` is the deployment-owned predicate of one
*filtered subscription*: the producer evaluates it against every buffered
tuple before putting the tuple on the wire, so a consumer that only wants a
slice of a stream (a shard fragment's key-hash slice) never receives -- and
never pays serialization, transport, or ingress-drop work for -- the
foreign remainder.  Control tuples (boundaries, undos, REC_DONE markers)
always pass: punctuation and failure semantics are slice-independent.

Two properties make filtered subscriptions safe under DPC's replica
machinery:

* **Cursor translation.**  Subscription cursors stay in the coordinates of
  the *full* logical stream (the replica-independent ``stable_seq`` stamped
  on every stable tuple).  A filtered subscriber therefore observes stamped
  positions with gaps; when it re-subscribes (replica switch, crash
  recovery) it quotes the last stamp it received, the producer translates
  that stamp back into a buffer position, and replays the *filtered* suffix.
  The replay batch is flagged so the consumer can tell a legitimate
  filter gap from a stale-cursor race (see
  :meth:`repro.core.input_streams.InputStreamMonitor.record_tuple`).

* **Epoch determinism.**  A filter is a piecewise function of the tuple's
  serialization timestamp: :meth:`advance` installs a new predicate for
  every tuple with ``stime >= cut_stime`` while older tuples keep routing
  through the predicate that governed them when they were first delivered.
  Routing is therefore a pure function of the tuple -- every replica, every
  replay, and every retry routes a tuple identically -- which is what keeps
  a live rebalance (bucket handoff between shard fragments) gap-free and
  duplicate-free: tuples below the cut belong to the old owner, tuples at
  or above it to the new one, and a tie group (tuples sharing an stime)
  can never straddle the cut.

One filter object is shared by every replica-pair subscription of one
consumer fragment (both replicas of ``shard2`` subscribe to both replicas
of ``split`` through the same object), so advancing an epoch re-routes the
whole fragment at once, on the producer side and in every consumer's
re-subscription state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..spe.tuples import StreamTuple, TupleBlock

#: Deterministic tuple predicate (same shape as repro.topology.SelectPredicate).
Predicate = Callable[[Mapping[str, Any]], bool]


class SubscriptionFilter:
    """The content predicate of one filtered subscription, with stime epochs."""

    def __init__(self, predicate: Predicate, name: str) -> None:
        if not name:
            raise ConfigurationError("subscription filter needs a non-empty name")
        self.name = name
        #: ``(cut_stime, predicate)`` pairs; epoch i governs tuples with
        #: ``cut_stime[i] <= stime < cut_stime[i+1]``.  The first epoch
        #: starts at -inf (it governs everything until the first advance).
        self._epochs: list[tuple[float, Predicate]] = [(float("-inf"), predicate)]

    # ------------------------------------------------------------------ epochs
    def advance(self, cut_stime: float, predicate: Predicate) -> None:
        """Install ``predicate`` for every tuple with ``stime >= cut_stime``.

        Cuts must move forward: re-routing tuples an earlier epoch already
        governed would break the determinism that makes replays safe.
        """
        last_cut, _ = self._epochs[-1]
        if cut_stime <= last_cut:
            raise ConfigurationError(
                f"filter {self.name!r}: epoch cut {cut_stime:g} does not advance "
                f"past the current cut {last_cut:g}"
            )
        self._epochs.append((cut_stime, predicate))

    @property
    def epochs(self) -> int:
        """Number of installed epochs (1 until the first :meth:`advance`)."""
        return len(self._epochs)

    @property
    def key(self) -> str:
        """Stable grouping key: subscribers sharing it share multicast batches.

        The epoch count is part of the key so that batches formed before an
        :meth:`advance` are never merged with batches formed after it.
        """
        return f"{self.name}#{len(self._epochs)}"

    # ------------------------------------------------------------------ evaluation
    def predicate_for(self, stime: float) -> Predicate:
        """The predicate governing tuples serialized at ``stime``."""
        for cut, predicate in reversed(self._epochs):
            if stime >= cut:
                return predicate
        return self._epochs[0][1]  # pragma: no cover - first cut is -inf

    def passes(self, item: "StreamTuple") -> bool:
        """Whether ``item`` should reach this subscription's consumer."""
        if not item.is_data:
            return True
        return bool(self.predicate_for(item.stime)(item.values))

    def select(self, block: "TupleBlock") -> "TupleBlock":
        """The rows of ``block`` that reach this subscription's consumer.

        One comprehension over the type and payload columns when a single
        epoch governs the whole slice (always, until the first
        :meth:`advance`; afterwards whenever the slice lies past the last
        cut); a slice that straddles a cut looks the epoch up per row.
        """
        codes, values = block.codes, block.values
        last_cut, predicate = self._epochs[-1]
        if len(self._epochs) == 1 or min(block.stimes, default=last_cut) >= last_cut:
            picks = [i for i, code in enumerate(codes) if code > 1 or predicate(values[i])]
        else:
            predicate_for = self.predicate_for
            picks = [
                i
                for i, (code, stime) in enumerate(zip(codes, block.stimes))
                if code > 1 or predicate_for(stime)(values[i])
            ]
        return block.take(picks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SubscriptionFilter {self.name!r} epochs={len(self._epochs)}>"
