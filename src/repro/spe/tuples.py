"""Tuple data model extended with DPC tuple types.

The paper (Section 4.1, Table I) extends the classic Borealis tuple
``(t, a1, ..., am)`` with a type field and a serialization timestamp::

    (tuple_type, tuple_id, tuple_stime, a1, ..., am)

Two representations of that model live here (see DESIGN.md, "Performance"):

* :class:`TupleBlock` -- a run of tuples held **column-wise**: one type-code
  byte per row, an id column, a ``stimes`` list, two sparse columns
  (``undo_from_id``, ``stable_seq``) and the payload as schema runs of typed
  values (:mod:`repro.spe.payload`).  It is the unit of work from the data
  sources to the client ledger: sources, logs, network batches, operators,
  output buffers, the wire codec and the ledger produce and consume blocks,
  so a stable tuple crossing a node costs a few C-level list operations, not
  a Python object per hop -- nor a mapping: one is built only for a user
  callable (``Filter``, ``Map``, ``Join``) or a reader of rows.
  :class:`BlockBuffer` is its growable sibling for the places that
  accumulate rows.
* :class:`StreamTuple` -- one row as a ``__slots__`` object whose type
  predicates (``is_data``, ``is_stable``, ...) are plain attributes.  A block
  is a ``Sequence[StreamTuple]``: rows are built only when someone indexes or
  iterates it (control-tuple handlers, operators that work row by row, tests).

Rows, blocks, payload values and mappings are immutable **by convention**:
nothing mutates them after construction, so relabeled blocks share the
``stimes`` and payload lists of the block they came from, and ``copy.copy``
/ ``copy.deepcopy`` return the object itself -- a checkpoint that
deep-copies captured state holds buffered tuples by reference.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from enum import Enum
from itertools import chain, repeat
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping

from .payload import (
    _gathered,
    _mapping,
    _rows_of,
    cut_runs,
    drop_runs,
    grow_runs,
    merged_runs,
    schema_runs,
)


class TupleType(str, Enum):
    """Tuple types from Table I of the paper (members are interned singletons).

    The definition order is the *type code* of a row in a :class:`TupleBlock`
    and the type byte of the wire format: append-only.
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


#: Type code -> member, and back.  Codes 0 and 1 are the data types, so
#: ``code < 2`` reads "data row" and ``code == 0`` "stable row".
TYPE_BY_CODE: tuple[TupleType, ...] = tuple(TupleType)
CODE_BY_TYPE = {member: code for code, member in enumerate(TYPE_BY_CODE)}
STABLE, TENTATIVE, BOUNDARY, UNDO, REC_DONE = range(5)

#: Tuple types that carry application data (payload values).
DATA_TYPES = frozenset({TupleType.INSERTION, TupleType.TENTATIVE})

#: Tuple types that may legally appear on a data stream between nodes.
STREAM_TYPES = frozenset(TYPE_BY_CODE[:5])

#: code -> (is_data, is_stable, is_tentative, is_boundary, is_undo, is_rec_done).
_PREDICATES = tuple(
    (code < 2, code == 0, code == 1, code == 2, code == 3, code == 4)
    for code in range(len(TYPE_BY_CODE))
)
_CONTROL_ROW = re.compile(rb"[^\x00\x01]")
#: Payload of every control tuple built column-wise (never mutated, like all payloads).
NO_VALUES: Mapping[str, Any] = {}
_new = object.__new__


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
        "tuple_type", "tuple_id", "stime", "values", "undo_from_id", "stable_seq",
        "is_data", "is_stable", "is_tentative", "is_boundary", "is_undo", "is_rec_done",
    )  # fmt: skip

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
        flags = _PREDICATES[CODE_BY_TYPE[tuple_type]]
        self.is_data, self.is_stable, self.is_tentative = flags[:3]
        self.is_boundary, self.is_undo, self.is_rec_done = flags[3:]

    # ---------------------------------------------------------------- classmethods
    @classmethod
    def insertion(cls, tuple_id: int, stime: float, values: Mapping[str, Any]) -> "StreamTuple":
        """Create a stable data tuple (the payload mapping is copied)."""
        return _row(STABLE, tuple_id, stime, dict(values))

    @classmethod
    def tentative(cls, tuple_id: int, stime: float, values: Mapping[str, Any]) -> "StreamTuple":
        """Create a tentative data tuple (the payload mapping is copied)."""
        return _row(TENTATIVE, tuple_id, stime, dict(values))

    @classmethod
    def data(
        cls,
        tuple_id: int,
        stime: float,
        values: Mapping[str, Any],
        stable: bool,
        stable_seq: int | None = None,
    ) -> "StreamTuple":
        """Create a data tuple **sharing** ``values`` (no defensive copy)."""
        return _row(STABLE if stable else TENTATIVE, tuple_id, stime, values, None, stable_seq)

    @classmethod
    def boundary(cls, tuple_id: int, stime: float) -> "StreamTuple":
        """Create a boundary tuple promising no later tuple has stime < ``stime``."""
        return _row(BOUNDARY, tuple_id, stime, {})

    @classmethod
    def undo(cls, tuple_id: int, stime: float, undo_from_id: int) -> "StreamTuple":
        """Create an undo tuple revoking every tuple after ``undo_from_id``."""
        return _row(UNDO, tuple_id, stime, {}, undo_from_id)

    @classmethod
    def rec_done(cls, tuple_id: int, stime: float) -> "StreamTuple":
        """Create a tuple marking the end of a burst of corrections."""
        return _row(REC_DONE, tuple_id, stime, {})

    # ---------------------------------------------------------------- transforms
    def as_tentative(self) -> "StreamTuple":
        """Return a tentative copy of this tuple (data tuples only).

        The copy shares this tuple's payload mapping and **deliberately drops
        ``stable_seq`` and ``undo_from_id``**: a relabeled data tuple is a
        *new fact on a new stream position* (only stable tuples are numbered,
        and ``undo_from_id`` only ever travels on UNDO tuples).  Non-data
        tuples pass through as ``self``.
        """
        return _row(TENTATIVE, self.tuple_id, self.stime, self.values) if self.is_data else self

    def as_stable(self) -> "StreamTuple":
        """Return a stable copy of this tuple (data tuples only).

        Mirror of :meth:`as_tentative`.  The dropped ``stable_seq`` is
        load-bearing -- an upgraded tuple must *not* carry the position some
        other producer stamped on its tentative ancestor; the data path of
        whichever node emits the stable version assigns the authoritative
        position when it appends the tuple to its output buffer.
        """
        return _row(STABLE, self.tuple_id, self.stime, self.values) if self.is_data else self

    def with_id(self, tuple_id: int) -> "StreamTuple":
        """Return a copy of this tuple carrying a different stream-local id."""
        code = CODE_BY_TYPE[self.tuple_type]
        return _row(code, tuple_id, self.stime, self.values, self.undo_from_id, self.stable_seq)

    def with_stable_seq(self, stable_seq: int) -> "StreamTuple":
        """Return a copy carrying its position in the logical stable stream."""
        code = CODE_BY_TYPE[self.tuple_type]
        return _row(code, self.tuple_id, self.stime, self.values, self.undo_from_id, stable_seq)

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

    def __deepcopy__(self, memo=None) -> "StreamTuple":
        return self

    __copy__ = __deepcopy__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = self.tuple_type.value.upper()
        if self.is_undo:
            return f"<{kind} id={self.tuple_id} undo_from={self.undo_from_id}>"
        if self.is_data:
            return f"<{kind} id={self.tuple_id} stime={self.stime:.3f} {dict(self.values)}>"
        return f"<{kind} id={self.tuple_id} stime={self.stime:.3f}>"


def _row(code, tuple_id, stime, values, undo_from_id=None, stable_seq=None) -> StreamTuple:
    """Build one row; every :class:`StreamTuple` not made by ``__init__`` comes from here."""
    t = _new(StreamTuple)
    t.tuple_type = TYPE_BY_CODE[code]
    t.tuple_id = tuple_id
    t.stime = stime
    t.values = values
    t.undo_from_id = undo_from_id
    t.stable_seq = stable_seq
    t.is_data, t.is_stable, t.is_tentative, t.is_boundary, t.is_undo, t.is_rec_done = (
        _PREDICATES[code]
    )
    return t


# --------------------------------------------------------------------------- blocks
def _sparse(column: Sequence | None) -> Sequence | None:
    """``None`` for a sparse column without a single value."""
    return None if column is None or column.count(None) == len(column) else column


class TupleBlock(Sequence):
    """A run of tuples as parallel columns; a ``Sequence[StreamTuple]``.

    ``codes`` is one type code per row (``bytes``), ``ids`` any int sequence
    (a ``range`` when one writer numbered the run), ``stimes`` a list that
    relabeled blocks **share by reference** and nobody mutates;
    ``undo_from_ids`` / ``stable_seqs`` are ``None`` when no row has a value,
    else full-length lists with ``None`` holes.  ``payload`` holds the
    attribute values as schema runs ``(count, keys, values)``, values row by
    row (see :mod:`repro.spe.payload`).  A row's
    mapping is built only when someone indexes or iterates the block, or asks
    for :meth:`mappings` (user predicates and transforms take one).
    """

    __slots__ = ("codes", "ids", "stimes", "payload", "undo_from_ids", "stable_seqs")

    def __init__(self, codes, ids, stimes, payload, undo_from_ids=None, stable_seqs=None) -> None:
        self.codes = codes
        self.ids = ids
        self.stimes = stimes
        self.payload = payload
        self.undo_from_ids = undo_from_ids
        self.stable_seqs = stable_seqs

    @staticmethod
    def of(rows: "Iterable[StreamTuple]") -> "TupleBlock":
        """``rows`` as a block: the adapter at every entry point that takes tuples."""
        if rows.__class__ is TupleBlock:
            return rows
        if isinstance(rows, TupleBlock):  # a buffer: detach from its growing columns
            return rows[:]
        rows = tuple(rows)
        if not rows:
            return EMPTY_BLOCK
        codes = bytes([CODE_BY_TYPE[row.tuple_type] for row in rows])
        return TupleBlock(
            codes,
            [row.tuple_id for row in rows],
            [row.stime for row in rows],
            schema_runs([row.values for row in rows], codes),
            _sparse([row.undo_from_id for row in rows]),
            _sparse([row.stable_seq for row in rows]),
        )

    @staticmethod
    def concat(parts: "Iterable[Iterable[StreamTuple]]") -> "TupleBlock":
        """The parts (blocks or row lists) as one block, in order."""
        blocks = []
        for block in parts:
            if block.__class__ is not TupleBlock:
                block = TupleBlock.of(block)
            if block.codes:
                blocks.append(block)
        if len(blocks) < 2:
            return blocks[0] if blocks else EMPTY_BLOCK
        return TupleBlock(
            b"".join([block.codes for block in blocks]),
            list(chain.from_iterable([block.ids for block in blocks])),
            list(chain.from_iterable([block.stimes for block in blocks])),
            merged_runs(chain.from_iterable([block.payload for block in blocks])),
            _joined([block.undo_from_ids for block in blocks], blocks),
            _joined([block.stable_seqs for block in blocks], blocks),
        )

    # ---------------------------------------------------------------- rows
    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        codes, undos, seqs = self.codes, self.undo_from_ids, self.stable_seqs
        if index.__class__ is slice:
            start, stop, payload = index.start or 0, index.stop, self.payload
            if stop is not None and stop < 0 <= start:  # [a:-k], the common negative cut
                stop += len(codes)
            elif start < 0 or stop is None or stop < 0:
                start, stop, _ = index.indices(len(codes))
            if start >= stop:
                return EMPTY_BLOCK
            if payload[1:] or not payload or payload.__class__ is list:
                payload = cut_runs(payload, start, stop)
            else:  # one run: the common block
                count, keys, values = payload[0]
                if keys and (start or stop < count):
                    width = len(keys)
                    values = values[start * width : stop * width]
                payload = (((stop if stop < count else count) - start, keys, values),)
            return TupleBlock(
                bytes(codes[start:stop]),
                self.ids[start:stop],
                self.stimes[start:stop],
                payload,
                None if undos is None else _sparse(undos[start:stop]),
                None if seqs is None else _sparse(seqs[start:stop]),
            )
        head = codes[index], self.ids[index], self.stimes[index]
        offset = index + len(codes) if index < 0 else index
        ((_, keys, values),) = cut_runs(self.payload, offset, offset + 1)
        values = _mapping(keys, values) if keys and head[0] < 2 else NO_VALUES
        return _row(*head, values, undos and undos[index], seqs and seqs[index])

    def __iter__(self) -> Iterator[StreamTuple]:
        n = len(self.codes)
        undos = self.undo_from_ids or repeat(None, n)
        seqs = self.stable_seqs or repeat(None, n)
        return map(_row, self.codes, self.ids, self.stimes, self.mappings(), undos, seqs)

    def mappings(self) -> Iterator[Mapping[str, Any]]:
        """Every row's payload mapping, built now (control rows share ``NO_VALUES``)."""
        built = chain.from_iterable([
            map(_mapping, repeat(keys, count), zip(*[iter(values)] * len(keys)))
            if keys
            else repeat(NO_VALUES, count)
            for count, keys, values in self.payload
        ])
        if _CONTROL_ROW.search(self.codes) is None:
            return built
        return map(_payload, self.codes, built)

    def column(self, key: str, default: Any = None) -> list:
        """Attribute ``key`` of every row, ``default`` where a row lacks it (no mapping built)."""
        values = list(chain.from_iterable([
            values[keys.index(key) :: len(keys)] if keys and key in keys else repeat(default, count)
            for count, keys, values in self.payload
        ]))
        for control in _CONTROL_ROW.finditer(self.codes) if default is not None else ():
            values[control.start()] = default
        return values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __add__(self, other) -> "TupleBlock":
        return TupleBlock.concat((self, other))

    def __deepcopy__(self, memo=None) -> "TupleBlock":
        return self

    __copy__ = __deepcopy__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {len(self)} rows, {self.data_rows} data>"

    # ---------------------------------------------------------------- columns
    @property
    def data_rows(self) -> int:
        """Number of data rows (stable + tentative)."""
        return self.codes.count(STABLE) + self.codes.count(TENTATIVE)

    def run_edges(self) -> list[tuple[int, int]]:
        """``(start, stop)`` of every maximal data run and every control row, in order."""
        codes = self.codes
        data, rows = self.data_rows, len(codes)
        if rows < 2 or data == rows:
            return [(0, rows)] if rows else []
        if data == rows - 1 and codes[-1] > TENTATIVE:  # the common shape: a run, then its boundary
            return [(0, data), (data, rows)]
        edges, start = [], 0
        for match in _CONTROL_ROW.finditer(codes):
            at = match.start()
            if at > start:
                edges.append((start, at))
            edges.append((at, at + 1))
            start = at + 1
        if start < len(codes):
            edges.append((start, len(codes)))
        return edges

    def runs(self) -> "list[TupleBlock]":
        """Split at control rows: maximal data runs and one-row control blocks.

        Operators and monitors handle a data run column-wise and a control
        row (BOUNDARY / UNDO / REC_DONE) through its row handler, re-reading
        their state between runs -- exactly where a control tuple can change it.
        """
        edges = self.run_edges()
        return [self] if len(edges) == 1 else [self[start:stop] for start, stop in edges]

    def segment_edges(self) -> list[tuple[int, int]]:
        """``(start, stop)`` of every segment (see :meth:`segments`), in order."""
        codes = self.codes
        last = len(codes) - 1
        if last < 1 or (codes[last] <= BOUNDARY and _CONTROL_ROW.search(codes, 0, last) is None):
            return [(0, last + 1)] if codes else []
        edges, start = [], 0
        for match in _CONTROL_ROW.finditer(codes):
            at = match.start()
            if at > start and codes[at] == BOUNDARY:  # a data run keeps its boundary
                edges.append((start, at + 1))
            else:
                if at > start:
                    edges.append((start, at))
                edges.append((at, at + 1))
            start = at + 1
        if start < len(codes):
            edges.append((start, len(codes)))
        return edges

    def segments(self) -> "list[TupleBlock]":
        """Split at control rows, except the BOUNDARY right after a data run.

        A segment is a maximal data run, the same run followed by its
        BOUNDARY, or one control row.  The unit of work of the engine and
        the output buffers: the common batch -- a run and the punctuation
        that closes it -- stays one block through a fragment, and only an
        UNDO, a REC_DONE or a second boundary cuts it.
        """
        edges = self.segment_edges()
        return [self] if len(edges) == 1 else [self[start:stop] for start, stop in edges]

    def take(self, picks: Sequence[int]) -> "TupleBlock":
        """The rows at ``picks``, in that order (a slice when they are consecutive)."""
        count = len(picks)
        if count < 2:
            return self[picks[0] : picks[0] + 1] if picks else EMPTY_BLOCK
        first = picks[0]
        if picks[-1] - first + 1 == count and list(picks) == list(range(first, first + count)):
            return self if count == len(self.codes) else self[first : first + count]
        pick = itemgetter(*picks)
        payload, undos, seqs = self.payload, self.undo_from_ids, self.stable_seqs
        if payload[1:]:
            payload = _gathered(payload, picks)
        else:
            _count, keys, values = payload[0]
            payload = ((count, keys, _rows_of(values, picks, keys)),)
        return TupleBlock(
            bytes(pick(self.codes)),
            pick(self.ids),
            pick(self.stimes),
            payload,
            _sparse(undos and pick(undos)),
            _sparse(seqs and pick(seqs)),
        )

    def relabeled(self, ids: Sequence[int], codes: bytes | None = None) -> "TupleBlock":
        """The same data rows on another stream: new ids, shared stimes and payloads.

        Positional metadata (``stable_seq``, ``undo_from_id``) does not
        survive, as for :meth:`StreamTuple.as_tentative`.
        """
        return TupleBlock(self.codes if codes is None else codes, ids, self.stimes, self.payload)


EMPTY_BLOCK = TupleBlock(b"", range(0), (), ())


def _joined(columns: list, blocks: "list[TupleBlock]") -> list | None:
    """The sparse ``columns`` of ``blocks`` as one column (``None`` when none has a value)."""
    if columns.count(None) == len(columns):
        return None
    filled = [c or repeat(None, len(b.codes)) for c, b in zip(columns, blocks)]
    return list(chain.from_iterable(filled))


class BlockBuffer(TupleBlock):
    """Growable columns: a block one owner extends and trims in place.

    Its payload is a list of ``[count, keys, values]`` runs whose values it
    owns (see :func:`~repro.spe.payload.grow_runs`).  Slices
    (``buffer[a:b]``) are independent :class:`TupleBlock` copies, so what
    leaves the buffer never sees it grow.
    """

    __slots__ = ()

    def __init__(self, rows: "Iterable[StreamTuple]" = ()) -> None:
        super().__init__(bytearray(), [], [], [])
        if rows:
            self.extend(rows)

    def extend(self, rows: "Iterable[StreamTuple]") -> None:
        block = rows if rows.__class__ is TupleBlock else TupleBlock.of(rows)
        undos, seqs = block.undo_from_ids, block.stable_seqs
        if undos is not None or self.undo_from_ids is not None:
            if self.undo_from_ids is None:
                self.undo_from_ids = [None] * len(self.codes)
            self.undo_from_ids.extend(undos or repeat(None, len(block.codes)))
        if seqs is not None or self.stable_seqs is not None:
            if self.stable_seqs is None:
                self.stable_seqs = [None] * len(self.codes)
            self.stable_seqs.extend(seqs or repeat(None, len(block.codes)))
        self.codes += block.codes
        self.ids.extend(block.ids)
        self.stimes.extend(block.stimes)
        grow_runs(self.payload, block.payload)

    def __delitem__(self, index: slice) -> None:
        rows = len(self.codes)
        start, stop = index.start or 0, rows if index.stop is None else index.stop
        start, stop = start + rows if start < 0 else start, stop + rows if stop < 0 else stop
        drop_runs(self.payload, start, stop, rows)
        del self.codes[index], self.ids[index], self.stimes[index]
        for column in (self.undo_from_ids, self.stable_seqs):
            if column is not None:
                del column[index]

    def clear(self) -> None:
        if self.codes:
            del self[:]

    def __deepcopy__(self, memo) -> TupleBlock:
        return self[:]

    __copy__ = None  # a shallow copy would share the growing columns


def _payload(code: int, values: Mapping[str, Any]) -> Mapping[str, Any]:
    """A row's mapping, or ``NO_VALUES`` for a control row (its values are ``None``)."""
    return values if code < 2 else NO_VALUES


# --------------------------------------------------------------------------- helpers
def data_only(tuples: Iterable[StreamTuple]) -> list[StreamTuple]:
    """Filter out non-data tuples (boundaries, undos, rec_done)."""
    return [t for t in tuples if t.is_data]


def max_stime(tuples: Iterable[StreamTuple], default: float = float("-inf")) -> float:
    """Largest stime among ``tuples`` or ``default`` when empty."""
    return max(chain((default,), TupleBlock.of(tuples).stimes))
