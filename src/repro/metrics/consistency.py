"""Consistency metrics: tentative-tuple counting and eventual-consistency checks.

``N_tentative`` (Definition 2 of the paper) measures inconsistency as the
number of tentative tuples produced on an output stream since the last stable
tuple; summed over all output streams of a query diagram.  The experiment
figures report the total number of tentative tuples a client received during a
failure/reconciliation episode, which this tracker also maintains.

The module also provides the ledger used to *verify* eventual consistency: the
stable prefix a client ends up with (after applying undo tuples) must equal,
in content and order, the output of a failure-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from operator import eq
from typing import Iterable, Sequence

from ..spe.tuples import BOUNDARY, REC_DONE, STABLE, UNDO, StreamTuple, TupleBlock
from .ledger import TupleLedger


@dataclass
class ConsistencyTracker:
    """Counts tentative tuples and maintains the corrected (stable) ledger."""

    #: Total tentative tuples ever received (the quantity plotted in Figs 13-20).
    total_tentative: int = 0
    #: Tentative tuples received since the last stable tuple (Definition 2).
    tentative_since_stable: int = 0
    #: Stable tuples received.
    total_stable: int = 0
    #: Undo tuples received.
    total_undos: int = 0
    #: REC_DONE markers received.
    total_rec_done: int = 0
    #: The client-visible sequence after applying undos: stable prefix plus the
    #: current tentative suffix.
    ledger: TupleLedger = field(default_factory=TupleLedger)

    def observe(self, item: StreamTuple) -> None:
        """Account for one received tuple: a block of one."""
        self.observe_run(TupleBlock.of((item,)))

    def observe_run(self, run: TupleBlock) -> None:
        """Account for a data run, or for one control row (see :meth:`TupleBlock.runs`)."""
        codes = run.codes
        code = codes[0]
        if code < BOUNDARY:
            stable = codes.count(STABLE)
            self.total_stable += stable
            self.total_tentative += len(codes) - stable
            if stable:
                self.tentative_since_stable = len(codes) - 1 - codes.rfind(STABLE)
            else:
                self.tentative_since_stable += len(codes)
            self.ledger.extend(run)
        elif code == UNDO:
            self.total_undos += 1
            self.tentative_since_stable = 0
            self.ledger.drop_tentative_suffix()
        elif code == REC_DONE:
            self.total_rec_done += 1

    # ------------------------------------------------------------------ summaries
    @property
    def n_tentative(self) -> int:
        """The paper's N_tentative for this stream (since the last stable tuple)."""
        return self.tentative_since_stable

    def stable_values(self, attribute: str) -> list:
        """Attribute values of the stable tuples in ledger order."""
        return self.ledger.stable_values(attribute)

    def stable_prefix(self) -> list[StreamTuple]:
        return [item for item in self.ledger if item.is_stable]

    def has_pending_tentative(self) -> bool:
        """True while the ledger still ends with uncorrected tentative tuples."""
        return self.ledger.tentative > 0


def eventually_consistent(
    received: Sequence[StreamTuple],
    reference: Sequence[StreamTuple],
    attribute: str,
) -> bool:
    """Check Definition 1 against a reference (failure-free) output.

    ``received`` is a client's final stable ledger, ``reference`` the stable
    output of a failure-free run of the same diagram on the same input.  They
    must agree on the sequence of ``attribute`` values.
    """
    received_values = [item.value(attribute) for item in received if item.is_stable]
    reference_values = [item.value(attribute) for item in reference if item.is_stable]
    return received_values == reference_values


def duplicate_stable_values(received: Iterable[StreamTuple], attribute: str) -> list:
    """Stable attribute values that appear more than once (should be empty).

    Equality decides, never object identity: a NaN equals nothing, itself
    included, so it is not a duplicate -- whether two tuples share one float
    object or were decoded from a sealed segment into two.
    """
    seen: set = set()
    duplicates: list = []
    for item in received:
        if not item.is_stable:
            continue
        value = item.value(attribute)
        if value != value:
            continue
        if value in seen:
            duplicates.append(value)
        seen.add(value)
    return duplicates


def client_is_eventually_consistent(client) -> bool:
    """Final stable output must be gap-free, duplicate-free, and in order.

    The one ledger verdict of both backends.  ``client`` is a
    :class:`~repro.sim.client.ClientApplication`, or anything holding the
    primary one as ``.client`` (a runtime, a deployment, a cluster).
    """
    sequence = getattr(client, "client", client).stable_sequence
    # In order, without duplicates or gaps: each value is the previous plus one.
    return bool(sequence) and all(map(eq, sequence, count(sequence[0])))


def stable_rows(ledger: Iterable[StreamTuple]) -> list:
    """Replica-independent form of the stable tuples of a ledger.

    (stable_seq, repr(stime), sorted payload items) -- the row form the parity
    harness compares between a live and a simulator run; ``repr`` keeps floats
    exact.
    """
    return [
        (
            item.stable_seq,
            repr(item.stime),
            tuple(sorted((key, repr(value)) for key, value in item.values.items())),
        )
        for item in ledger
        if item.is_stable
    ]


def stable_ledger_rows(client) -> list:
    """:func:`stable_rows` of a client's ledger."""
    return stable_rows(client.metrics.consistency.ledger)
