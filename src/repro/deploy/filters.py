"""Content filters attached to subscriptions (producer-side routing).

A :class:`SubscriptionFilter` is the deployment-owned predicate of one
*filtered subscription*: the producer selects a pending slice through it
before putting the slice on the wire, so a consumer that only wants part of
a stream (a shard fragment's key-hash slice) never receives -- and never
pays serialization, transport, or ingress-drop work for -- the foreign
remainder.  Control tuples (boundaries, undos, REC_DONE markers) always
pass: punctuation and failure semantics are slice-independent.  A filter
selects by a *route column*, one value per row, which every filter sharing
the router reads: a shard(4) split routes each row once, not four times.

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
  Routing is therefore a pure function of the tuple, which keeps a live
  rebalance gap-free and duplicate-free: tuples below the cut belong to the
  old owner, tuples at or above it to the new one, and a tie group (tuples
  sharing an stime) can never straddle the cut.

One filter object is shared by every replica-pair subscription of one
consumer fragment, so advancing an epoch re-routes the whole fragment at
once, on the producer side and in every consumer's re-subscription state.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from typing import Any, Callable, Mapping

from ..errors import ConfigurationError
from ..sharding import ShardSlice
from ..spe.tuples import StreamTuple, TupleBlock

#: Deterministic tuple predicate (same shape as repro.topology.SelectPredicate).
Predicate = Callable[[Mapping[str, Any]], bool]


def _route(predicate: Predicate) -> tuple[Callable[[TupleBlock], list], frozenset]:
    """``predicate`` as ``(router, keep)``: a shard slice's bucket column, else itself per row.

    A router maps a block to one route per row, ``None`` for each control row;
    ``keep`` holds the routes that pass, ``None`` among them.
    """
    if isinstance(predicate, ShardSlice):
        return predicate.spec.route, predicate.keep | {None}

    def router(block: TupleBlock) -> list:
        rows = block.mappings()
        return [None if code > 1 else bool(predicate(row)) for code, row in zip(block.codes, rows)]

    return router, frozenset((True, None))


class SubscriptionFilter:
    """The content predicate of one filtered subscription, with stime epochs."""

    def __init__(self, predicate: Predicate, name: str) -> None:
        if not name:
            raise ConfigurationError("subscription filter needs a non-empty name")
        self.name = name
        #: ``(cut_stime, router, keep)`` triples; epoch i governs tuples with
        #: ``cut_stime[i] <= stime < cut_stime[i+1]``.  The first epoch
        #: starts at -inf (it governs everything until the first advance).
        self._epochs = [(float("-inf"), *_route(predicate))]

    # ------------------------------------------------------------------ epochs
    def advance(self, cut_stime: float, predicate: Predicate) -> None:
        """Install ``predicate`` for every tuple with ``stime >= cut_stime``.

        Cuts must move forward: re-routing tuples an earlier epoch already
        governed would break the determinism that makes replays safe.
        """
        last_cut = self._epochs[-1][0]
        if cut_stime <= last_cut:
            raise ConfigurationError(
                f"filter {self.name!r}: epoch cut {cut_stime:g} does not advance "
                f"past the current cut {last_cut:g}"
            )
        self._epochs.append((cut_stime, *_route(predicate)))

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
    def select(self, block: TupleBlock, columns: dict | None = None) -> TupleBlock:
        """The rows of ``block`` that reach this subscription's consumer.

        ``columns`` caches router -> route column for one slice, so the filters
        sharing a router (every shard of one spec) route it once.  A slice that
        straddles an epoch cut routes each epoch's rows through its own router.
        """
        epochs = self._epochs
        cut, router, keep = epochs[-1]
        if len(epochs) == 1 or min(block.stimes, default=cut) >= cut:
            if columns is None:
                columns = {}
            if router not in columns:
                columns[router] = router(block)
            passing = map(keep.__contains__, columns[router])
            return block.take(list(compress(range(len(block)), passing)))
        cuts = [epoch[0] for epoch in epochs]
        governing = [bisect_right(cuts, stime) - 1 for stime in block.stimes]
        picks: list[int] = []
        for epoch in set(governing):
            rows = [i for i, governor in enumerate(governing) if governor == epoch]
            _, router, keep = epochs[epoch]
            picks += compress(rows, map(keep.__contains__, router(block.take(rows))))
        return block.take(sorted(picks))

    def passes(self, item: StreamTuple) -> bool:
        """Whether ``item`` reaches this subscription's consumer: a one-row :meth:`select`."""
        return not item.is_data or bool(self.select(TupleBlock.of((item,))))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SubscriptionFilter {self.name!r} epochs={len(self._epochs)}>"
