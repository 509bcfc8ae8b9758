"""Tuple data model extended with DPC tuple types.

The paper (Section 4.1, Table I) extends the classic Borealis tuple
``(t, a1, ..., am)`` with a type field and a serialization timestamp::

    (tuple_type, tuple_id, tuple_stime, a1, ..., am)

This module provides :class:`StreamTuple`, the immutable value object used on
every stream in the reproduction, plus :class:`TupleType` covering both the
data-stream types (INSERTION, TENTATIVE, BOUNDARY, UNDO, REC_DONE) and the
control-stream signals SUnion/SOutput send to the Consistency Manager
(UP_FAILURE, REC_REQUEST).

Hot-path design (see DESIGN.md, "Performance"): a simulated run pushes tens
of thousands of tuples through every operator of every replica, so the tuple
model is built for per-instance cost rather than generic convenience:

* ``StreamTuple`` is a ``__slots__`` class.  The type predicates
  (``is_data``, ``is_stable``, ...) are **plain attributes** precomputed from
  the interned :class:`TupleType` at construction -- reading one costs a slot
  load, not a property call plus an ``Enum`` membership test.
* The factory classmethods and the copying transforms build instances with
  ``object.__new__`` and direct slot stores, skipping ``__init__`` dispatch
  and, for the transforms, skipping payload-dict allocation entirely: the
  copy *shares* the source tuple's ``values`` mapping.
* Instances are immutable **by convention**: nothing in the codebase ever
  mutates a tuple (payload dicts included) after construction, so relabeled
  copies share payload mappings and ``copy.copy`` / ``copy.deepcopy`` return
  the tuple itself -- a checkpoint container that deep-copies captured
  state holds the buffered tuples by reference.  ``__slots__`` still rejects
  foreign attributes outright.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Iterable, Mapping, Sequence


class TupleType(str, Enum):
    """Tuple types from Table I of the paper.

    Members are interned singletons; the predicate table below precomputes
    each member's classification once so per-tuple code never re-tests
    membership in a set of string enums.
    """

    #: Regular stable tuple.
    INSERTION = "insertion"
    #: Result of processing a subset of inputs; may later be corrected.
    TENTATIVE = "tentative"
    #: Punctuation + heartbeat: no later tuple will carry a smaller stime.
    BOUNDARY = "boundary"
    #: A suffix of the stream (everything after ``undo_from_id``) is revoked.
    UNDO = "undo"
    #: End of a reconciliation burst of corrections.
    REC_DONE = "rec_done"
    # --- control-stream signals (SUnion/SOutput -> Consistency Manager) ---
    #: SUnion signals that it entered an inconsistent state.
    UP_FAILURE = "up_failure"
    #: SUnion signals that its input was corrected and state can be reconciled.
    REC_REQUEST = "rec_request"


#: tuple_type -> (is_data, is_stable, is_tentative, is_boundary, is_undo,
#: is_rec_done), unpacked into the slots of every constructed tuple.
_PREDICATES_BY_TYPE: dict[TupleType, tuple[bool, bool, bool, bool, bool, bool]] = {
    TupleType.INSERTION: (True, True, False, False, False, False),
    TupleType.TENTATIVE: (True, False, True, False, False, False),
    TupleType.BOUNDARY: (False, False, False, True, False, False),
    TupleType.UNDO: (False, False, False, False, True, False),
    TupleType.REC_DONE: (False, False, False, False, False, True),
    TupleType.UP_FAILURE: (False, False, False, False, False, False),
    TupleType.REC_REQUEST: (False, False, False, False, False, False),
}


#: Tuple types that carry application data (payload values).
DATA_TYPES = frozenset({TupleType.INSERTION, TupleType.TENTATIVE})

#: Tuple types that may legally appear on a data stream between nodes.
STREAM_TYPES = frozenset(
    {
        TupleType.INSERTION,
        TupleType.TENTATIVE,
        TupleType.BOUNDARY,
        TupleType.UNDO,
        TupleType.REC_DONE,
    }
)

_new = object.__new__
_INSERTION = TupleType.INSERTION
_TENTATIVE = TupleType.TENTATIVE
_BOUNDARY = TupleType.BOUNDARY
_UNDO = TupleType.UNDO
_REC_DONE = TupleType.REC_DONE


class StreamTuple:
    """One immutable tuple on a stream.

    Attributes
    ----------
    tuple_type:
        One of :class:`TupleType`.
    tuple_id:
        Identifier unique within its stream, assigned in transmission order by
        the producer.  Because links are reliable and in-order, a single
        tuple_id suffices to describe "everything received so far".
    stime:
        The serialization timestamp ``tuple_stime`` used by SUnion to order
        tuples and by window operators to delimit windows.
    values:
        Mapping of attribute name to value.  Empty for BOUNDARY / UNDO /
        REC_DONE tuples.  Treated as frozen once attached; relabeled copies
        share it.
    undo_from_id:
        For UNDO tuples only: the id of the *last tuple not to be undone*.
    stable_seq:
        For stable tuples crossing node boundaries: the tuple's position in
        the logical stable stream (count of stable tuples before it).  Because
        replicas produce the same stable tuples in the same order, this
        position is replica-independent; consumers use it to resume
        subscriptions after switching replicas and to discard stable tuples
        they already received from another replica.
    is_data, is_stable, is_tentative, is_boundary, is_undo, is_rec_done:
        Predicate flags precomputed from ``tuple_type`` at construction.
    """

    __slots__ = (
        "tuple_type",
        "tuple_id",
        "stime",
        "values",
        "undo_from_id",
        "stable_seq",
        "is_data",
        "is_stable",
        "is_tentative",
        "is_boundary",
        "is_undo",
        "is_rec_done",
    )

    def __init__(
        self,
        tuple_type: TupleType,
        tuple_id: int,
        stime: float,
        values: Mapping[str, Any] | None = None,
        undo_from_id: int | None = None,
        stable_seq: int | None = None,
    ) -> None:
        self.tuple_type = tuple_type
        self.tuple_id = tuple_id
        self.stime = stime
        self.values = {} if values is None else values
        self.undo_from_id = undo_from_id
        self.stable_seq = stable_seq
        (
            self.is_data,
            self.is_stable,
            self.is_tentative,
            self.is_boundary,
            self.is_undo,
            self.is_rec_done,
        ) = _PREDICATES_BY_TYPE[tuple_type]

    # ---------------------------------------------------------------- classmethods
    @classmethod
    def insertion(cls, tuple_id: int, stime: float, values: Mapping[str, Any]) -> "StreamTuple":
        """Create a stable data tuple (the payload mapping is copied)."""
        t = _new(cls)
        t.tuple_type = _INSERTION
        t.tuple_id = tuple_id
        t.stime = stime
        t.values = dict(values)
        t.undo_from_id = None
        t.stable_seq = None
        t.is_data = True
        t.is_stable = True
        t.is_tentative = False
        t.is_boundary = False
        t.is_undo = False
        t.is_rec_done = False
        return t

    @classmethod
    def tentative(cls, tuple_id: int, stime: float, values: Mapping[str, Any]) -> "StreamTuple":
        """Create a tentative data tuple (the payload mapping is copied)."""
        t = _new(cls)
        t.tuple_type = _TENTATIVE
        t.tuple_id = tuple_id
        t.stime = stime
        t.values = dict(values)
        t.undo_from_id = None
        t.stable_seq = None
        t.is_data = True
        t.is_stable = False
        t.is_tentative = True
        t.is_boundary = False
        t.is_undo = False
        t.is_rec_done = False
        return t

    @classmethod
    def data(
        cls,
        tuple_id: int,
        stime: float,
        values: Mapping[str, Any],
        stable: bool,
        stable_seq: int | None = None,
    ) -> "StreamTuple":
        """Create a data tuple **sharing** ``values`` (no defensive copy).

        The allocation-free sibling of :meth:`insertion` / :meth:`tentative`
        for relabeling paths whose payload already belongs to another tuple
        (SUnion serialization, SOutput forwarding, the node data path): the
        payload of a constructed tuple is frozen by convention, so re-wrapping
        it needs no copy.  The node data path passes the ``stable_seq`` it
        stamps, so a buffered output tuple costs one allocation.
        """
        t = _new(cls)
        t.tuple_id = tuple_id
        t.stime = stime
        t.values = values
        t.undo_from_id = None
        t.stable_seq = stable_seq
        t.is_data = True
        t.is_boundary = False
        t.is_undo = False
        t.is_rec_done = False
        if stable:
            t.tuple_type = _INSERTION
            t.is_stable = True
            t.is_tentative = False
        else:
            t.tuple_type = _TENTATIVE
            t.is_stable = False
            t.is_tentative = True
        return t

    @classmethod
    def boundary(cls, tuple_id: int, stime: float) -> "StreamTuple":
        """Create a boundary tuple promising no later tuple has stime < ``stime``."""
        t = _new(cls)
        t.tuple_type = _BOUNDARY
        t.tuple_id = tuple_id
        t.stime = stime
        t.values = {}
        t.undo_from_id = None
        t.stable_seq = None
        t.is_data = False
        t.is_stable = False
        t.is_tentative = False
        t.is_boundary = True
        t.is_undo = False
        t.is_rec_done = False
        return t

    @classmethod
    def undo(cls, tuple_id: int, stime: float, undo_from_id: int) -> "StreamTuple":
        """Create an undo tuple revoking every tuple after ``undo_from_id``."""
        t = _new(cls)
        t.tuple_type = _UNDO
        t.tuple_id = tuple_id
        t.stime = stime
        t.values = {}
        t.undo_from_id = undo_from_id
        t.stable_seq = None
        t.is_data = False
        t.is_stable = False
        t.is_tentative = False
        t.is_boundary = False
        t.is_undo = True
        t.is_rec_done = False
        return t

    @classmethod
    def rec_done(cls, tuple_id: int, stime: float) -> "StreamTuple":
        """Create a tuple marking the end of a burst of corrections."""
        t = _new(cls)
        t.tuple_type = _REC_DONE
        t.tuple_id = tuple_id
        t.stime = stime
        t.values = {}
        t.undo_from_id = None
        t.stable_seq = None
        t.is_data = False
        t.is_stable = False
        t.is_tentative = False
        t.is_boundary = False
        t.is_undo = False
        t.is_rec_done = True
        return t

    @classmethod
    def from_columns(
        cls,
        tuple_types: Sequence[TupleType],
        tuple_ids: Sequence[int],
        stimes: Sequence[float],
        values: Sequence[Mapping[str, Any]],
        undo_from_ids: Sequence[int | None],
        stable_seqs: Sequence[int | None],
    ) -> "list[StreamTuple]":
        """Create one tuple per row of six equal-length columns.

        The bulk sibling of ``__init__`` for decoders that hold a batch
        column-wise: each payload mapping is attached as is (no copy), and the
        predicate flags are looked up once per stretch of equal types rather
        than once per tuple.
        """
        tuples = []
        append = tuples.append
        last_type = None
        for tuple_type, tuple_id, stime, payload, undo_from_id, stable_seq in zip(
            tuple_types, tuple_ids, stimes, values, undo_from_ids, stable_seqs
        ):
            if tuple_type is not last_type:
                predicates = _PREDICATES_BY_TYPE[tuple_type]
                last_type = tuple_type
            t = _new(cls)
            t.tuple_type = tuple_type
            t.tuple_id = tuple_id
            t.stime = stime
            t.values = payload
            t.undo_from_id = undo_from_id
            t.stable_seq = stable_seq
            (
                t.is_data,
                t.is_stable,
                t.is_tentative,
                t.is_boundary,
                t.is_undo,
                t.is_rec_done,
            ) = predicates
            append(t)
        return tuples

    # ---------------------------------------------------------------- transforms
    def as_tentative(self) -> "StreamTuple":
        """Return a tentative copy of this tuple (data tuples only).

        The copy shares this tuple's payload mapping and **deliberately drops
        ``stable_seq`` and ``undo_from_id``**: a relabeled data tuple is a
        *new fact on a new stream position*.  ``stable_seq`` is the stamped
        position in a producer's logical *stable* stream -- a tentative copy
        has no such position (only stable tuples are numbered), and the
        stability downgrade happens before the data path stamps positions
        anyway.  ``undo_from_id`` only ever travels on UNDO tuples, which are
        not data and are returned unchanged.  Non-data tuples (boundaries,
        undos, REC_DONE) pass through as ``self``.
        """
        if not self.is_data:
            return self
        t = _new(StreamTuple)
        t.tuple_type = _TENTATIVE
        t.tuple_id = self.tuple_id
        t.stime = self.stime
        t.values = self.values
        t.undo_from_id = None
        t.stable_seq = None
        t.is_data = True
        t.is_stable = False
        t.is_tentative = True
        t.is_boundary = False
        t.is_undo = False
        t.is_rec_done = False
        return t

    def as_stable(self) -> "StreamTuple":
        """Return a stable copy of this tuple (data tuples only).

        Mirror of :meth:`as_tentative`: shares the payload and drops
        ``stable_seq`` / ``undo_from_id``.  The dropped ``stable_seq`` is
        load-bearing -- an upgraded tuple must *not* carry the position some
        other producer stamped on its tentative ancestor; the data path of
        whichever node emits the stable version assigns the authoritative
        position when it appends the tuple to its output buffer.
        """
        if not self.is_data:
            return self
        t = _new(StreamTuple)
        t.tuple_type = _INSERTION
        t.tuple_id = self.tuple_id
        t.stime = self.stime
        t.values = self.values
        t.undo_from_id = None
        t.stable_seq = None
        t.is_data = True
        t.is_stable = True
        t.is_tentative = False
        t.is_boundary = False
        t.is_undo = False
        t.is_rec_done = False
        return t

    def with_id(self, tuple_id: int) -> "StreamTuple":
        """Return a copy of this tuple carrying a different stream-local id."""
        t = _new(StreamTuple)
        t.tuple_type = self.tuple_type
        t.tuple_id = tuple_id
        t.stime = self.stime
        t.values = self.values
        t.undo_from_id = self.undo_from_id
        t.stable_seq = self.stable_seq
        t.is_data = self.is_data
        t.is_stable = self.is_stable
        t.is_tentative = self.is_tentative
        t.is_boundary = self.is_boundary
        t.is_undo = self.is_undo
        t.is_rec_done = self.is_rec_done
        return t

    def with_stable_seq(self, stable_seq: int) -> "StreamTuple":
        """Return a copy carrying its position in the logical stable stream."""
        t = _new(StreamTuple)
        t.tuple_type = self.tuple_type
        t.tuple_id = self.tuple_id
        t.stime = self.stime
        t.values = self.values
        t.undo_from_id = self.undo_from_id
        t.stable_seq = stable_seq
        t.is_data = self.is_data
        t.is_stable = self.is_stable
        t.is_tentative = self.is_tentative
        t.is_boundary = self.is_boundary
        t.is_undo = self.is_undo
        t.is_rec_done = self.is_rec_done
        return t

    def with_values(self, values: Mapping[str, Any]) -> "StreamTuple":
        """Return a copy of this tuple with different attribute values (copied)."""
        t = self.with_id(self.tuple_id)
        t.values = dict(values)
        return t

    def value(self, name: str, default: Any = None) -> Any:
        """Return attribute ``name`` or ``default`` when missing."""
        return self.values.get(name, default)

    # ---------------------------------------------------------------- dunder protocol
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not StreamTuple:
            return NotImplemented
        return (
            self.tuple_type is other.tuple_type
            and self.tuple_id == other.tuple_id
            and self.stime == other.stime
            and self.values == other.values
            and self.undo_from_id == other.undo_from_id
            and self.stable_seq == other.stable_seq
        )

    __hash__ = None  # mutable payload mapping: identity-free hashing is a bug farm

    def __copy__(self) -> "StreamTuple":
        return self

    def __deepcopy__(self, memo) -> "StreamTuple":
        return self

    def __getstate__(self):
        """Slot state for pickling (live checkpoints cross processes by pickle)."""
        return None, {slot: getattr(self, slot) for slot in StreamTuple.__slots__}

    def __setstate__(self, state) -> None:
        _dict, slots = state
        for slot, value in slots.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = self.tuple_type.value.upper()
        if self.is_undo:
            return f"<{kind} id={self.tuple_id} undo_from={self.undo_from_id}>"
        if self.is_data:
            return f"<{kind} id={self.tuple_id} stime={self.stime:.3f} {dict(self.values)}>"
        return f"<{kind} id={self.tuple_id} stime={self.stime:.3f}>"


def count_tentative(tuples: Iterable[StreamTuple]) -> int:
    """Number of tentative tuples in ``tuples``."""
    return sum(1 for t in tuples if t.is_tentative)


def count_stable(tuples: Iterable[StreamTuple]) -> int:
    """Number of stable data tuples in ``tuples``."""
    return sum(1 for t in tuples if t.is_stable)


def data_only(tuples: Iterable[StreamTuple]) -> list[StreamTuple]:
    """Filter out non-data tuples (boundaries, undos, rec_done)."""
    return [t for t in tuples if t.is_data]


def max_stime(tuples: Iterable[StreamTuple], default: float = float("-inf")) -> float:
    """Largest stime among ``tuples`` or ``default`` when empty."""
    best = default
    for t in tuples:
        if t.stime > best:
            best = t.stime
    return best
