"""Columnar tuple codec: the one byte encoding of a run of stream tuples.

Two callers share it and nothing else encodes tuples: the live wire format
(:mod:`repro.live.wire` frames a ``DATA`` batch around :func:`_w_tuples`) and
the client ledger (:mod:`repro.metrics.ledger` seals its immutable prefix
into :func:`encode_tuples` segments, which a live edge worker ships verbatim
as its result).  The byte-level layout is tabulated in DESIGN.md, "Tuple
codec".

A run is one type-code column, packed little-endian ``tuple_id`` / ``stime``
columns, two sparse columns (``undo_from_id``, ``stable_seq``) and then
*schema runs* -- maximal stretches of consecutive tuples with the same key
tuple.  A schema run writes its key names once and one column per key: packed
int64 or float64 when every value of the column has exactly that type,
otherwise the tagged per-value stream (``_w_value``) for that column alone.
The choice is made from the column's contents; there is no option that
selects an encoding.  The encoding is **round-trip exact**: floats are
bit-exact, key order and value types are preserved.

A malformed run (truncated, bit-flipped, absurd lengths) raises
:class:`WireError` and nothing else: every read is bounds-checked against
the remaining bytes before anything is allocated.
"""

from __future__ import annotations

import pickle
import re
import struct
import sys
from array import array
from itertools import compress, repeat
from operator import is_not
from typing import Any, Callable, Iterator, Sequence

from ..errors import ReproError
from .payload import interleaved, merged_runs
from .tuples import EMPTY_BLOCK, TYPE_BY_CODE, StreamTuple, TupleBlock


class WireError(ReproError):
    """A frame could not be encoded or decoded."""


# --------------------------------------------------------------------------- primitives
def _w_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise WireError(f"uvarint cannot encode negative value {value}")
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _r_uvarint(buf: memoryview, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise WireError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _w_zigzag(out: bytearray, value: int) -> None:
    # Arbitrary-precision zigzag (payload ints are unbounded Python ints).
    _w_uvarint(out, value << 1 if value >= 0 else ((-value) << 1) - 1)


def _r_zigzag(buf: memoryview, pos: int) -> tuple[int, int]:
    raw, pos = _r_uvarint(buf, pos)
    return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), pos


def _r_byte(buf: memoryview, pos: int) -> tuple[int, int]:
    if pos >= len(buf):
        raise WireError("truncated frame")
    return buf[pos], pos + 1


def _r_span(buf: memoryview, pos: int, length: int) -> tuple[memoryview, int]:
    """``length`` bytes at ``pos`` (a view, no copy), checked against the frame."""
    end = pos + length
    if end > len(buf):
        raise WireError(f"truncated frame: {length} bytes wanted, {len(buf) - pos} left")
    return buf[pos:end], end


def _w_str(out: bytearray, value: str) -> None:
    data = value.encode("utf-8")
    _w_uvarint(out, len(data))
    out += data


def _r_str(buf: memoryview, pos: int) -> tuple[str, int]:
    length, pos = _r_uvarint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise WireError("truncated string")
    try:
        return str(buf[pos:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise WireError(f"malformed string: {exc}") from None


def _w_bytes(out: bytearray, value: bytes) -> None:
    _w_uvarint(out, len(value))
    out += value


def _r_bytes(buf: memoryview, pos: int) -> tuple[memoryview, int]:
    length, pos = _r_uvarint(buf, pos)
    return _r_span(buf, pos, length)


# Packed columns are little-endian on the wire whatever the host is.
_SWAP = sys.byteorder != "little"
_INT64 = "q"
_FLOAT64 = "d"
_ONE_FLOAT = struct.Struct("<d")
_PRESENT = re.compile(rb"\x01+")
_CONTROL_ROWS, _DATA_ROWS = re.compile(rb"[^\x00\x01]+"), re.compile(rb"[\x00\x01]")


def _packed(typecode: str, values: Sequence) -> bytes:
    """8 bytes per value; OverflowError/TypeError when a value does not fit."""
    column = array(typecode, values if values.__class__ is list else list(values))
    if _SWAP:
        column.byteswap()
    return column.tobytes()


def _r_packed(buf: memoryview, pos: int, typecode: str, count: int) -> tuple[list, int]:
    end = pos + 8 * count
    if end > len(buf):
        raise WireError(f"truncated column: {count} values announced, {len(buf) - pos} bytes left")
    column = array(typecode)
    column.frombytes(buf[pos:end])
    if _SWAP:
        column.byteswap()
    return column.tolist(), end


# --------------------------------------------------------------------------- values
# Payload values are overwhelmingly ints / floats / strs; a tag byte plus a
# pickle escape hatch covers the rest without inflating the common case.
_V_NONE, _V_FALSE, _V_TRUE, _V_INT, _V_FLOAT, _V_STR, _V_PICKLE = range(7)


def _w_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_V_NONE)
    elif value is False:
        out.append(_V_FALSE)
    elif value is True:
        out.append(_V_TRUE)
    elif type(value) is int:
        out.append(_V_INT)
        _w_zigzag(out, value)
    elif type(value) is float:
        out.append(_V_FLOAT)
        out += _ONE_FLOAT.pack(value)
    elif type(value) is str:
        out.append(_V_STR)
        _w_str(out, value)
    else:
        out.append(_V_PICKLE)
        _w_bytes(out, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _r_value(buf: memoryview, pos: int) -> tuple[Any, int]:
    tag, pos = _r_byte(buf, pos)
    if tag == _V_NONE:
        return None, pos
    if tag == _V_FALSE:
        return False, pos
    if tag == _V_TRUE:
        return True, pos
    if tag == _V_INT:
        return _r_zigzag(buf, pos)
    if tag == _V_FLOAT:
        span, pos = _r_span(buf, pos, 8)
        return _ONE_FLOAT.unpack(span)[0], pos
    if tag == _V_STR:
        return _r_str(buf, pos)
    if tag == _V_PICKLE:
        data, pos = _r_bytes(buf, pos)
        return _unpickle(pickle.loads, data), pos
    raise WireError(f"unknown value tag {tag}")


def _unpickle(loads: Callable[[Any], Any], data: Any) -> Any:
    try:
        return loads(data)
    except WireError:
        raise
    except Exception as exc:  # corrupt pickle bytes can raise anything
        raise WireError(f"malformed pickled value: {type(exc).__name__}: {exc}") from None



# --------------------------------------------------------------------------- tuples (columnar)
#: Value-column encodings, chosen per column from its contents.
_C_INT64, _C_FLOAT64, _C_TAGGED = range(3)
_ALL_INT = {int}
_ALL_FLOAT = {float}


def _w_sparse(out: bytearray, column: list | None) -> None:
    """Optional int64 column: ``0`` (all ``None``) or ``1`` + presence bytes + values."""
    if column is None or column.count(None) == len(column):
        out.append(0)
        return
    out.append(1)
    presence = bytes(map(is_not, column, repeat(None)))
    out += presence
    out += _packed(_INT64, list(compress(column, presence)) if 0 in presence else column)


def _r_sparse(buf: memoryview, pos: int, count: int) -> tuple[list | None, int]:
    mode, pos = _r_byte(buf, pos)
    if mode == 0:
        return None, pos
    if mode != 1:
        raise WireError(f"unknown sparse column mode {mode}")
    span, pos = _r_span(buf, pos, count)
    presence = bytes(span)
    present = presence.count(1)
    if present + presence.count(0) != count:
        raise WireError("sparse column presence bytes must be 0 or 1")
    values, pos = _r_packed(buf, pos, _INT64, present)
    if present == count:
        return values, pos
    column, taken = [None] * count, 0
    for match in _PRESENT.finditer(presence):  # one stretch of values per gap
        start, end = match.span()
        column[start:end] = values[taken : taken + end - start]
        taken += end - start
    return column, pos


def _w_column(out: bytearray, column: Sequence) -> None:
    kinds = set(map(type, column))
    if kinds == _ALL_FLOAT:
        out.append(_C_FLOAT64)
        out += _packed(_FLOAT64, column)
        return
    if kinds == _ALL_INT:
        try:
            packed = _packed(_INT64, column)
        except OverflowError:  # an int beyond 64 bits: varints for this column
            pass
        else:
            out.append(_C_INT64)
            out += packed
            return
    out.append(_C_TAGGED)
    for value in column:
        _w_value(out, value)


def _r_column(buf: memoryview, pos: int, count: int) -> tuple[list, int]:
    encoding, pos = _r_byte(buf, pos)
    if encoding == _C_INT64:
        return _r_packed(buf, pos, _INT64, count)
    if encoding == _C_FLOAT64:
        return _r_packed(buf, pos, _FLOAT64, count)
    if encoding != _C_TAGGED:
        raise WireError(f"unknown value column encoding {encoding}")
    column = []
    for _ in range(count):
        value, pos = _r_value(buf, pos)
        column.append(value)
    return column, pos


def _w_tuples(out: bytearray, tuples: Sequence[StreamTuple]) -> None:
    """Encode a run from its columns (a row sequence is made a block first)."""
    block = TupleBlock.of(tuples)
    count = len(block)
    _w_uvarint(out, count)
    if not count:
        return
    if max(block.codes) >= len(TYPE_BY_CODE):
        raise WireError(f"unknown tuple type code {max(block.codes)}")
    out += block.codes
    try:
        out += _packed(_INT64, block.ids)
        out += _packed(_FLOAT64, block.stimes)
        _w_sparse(out, block.undo_from_ids)
        _w_sparse(out, block.stable_seqs)
    except (OverflowError, TypeError) as exc:
        raise WireError(f"tuple header field does not fit its packed column: {exc}") from None
    # Schema runs: key names once per run, then one column per key.
    for length, keys, values in merged_runs(_wire_runs(block)):
        _w_uvarint(out, length)
        _w_uvarint(out, len(keys))
        for key in keys:
            _w_str(out, key)
        for index in range(len(keys)):
            _w_column(out, values[index :: len(keys)])


def _wire_runs(block: TupleBlock) -> Iterator[tuple]:
    """The block's runs as the codec writes them: control rows are the empty schema."""
    at, codes = 0, block.codes
    for count, keys, values in block.payload:
        stop, start, width = at + count, at, len(keys or ())
        for control in _CONTROL_ROWS.finditer(codes, at, stop) if keys else ():
            if control.start() > start:
                cut = slice((start - at) * width, (control.start() - at) * width)
                yield control.start() - start, keys, values[cut]
            yield control.end() - control.start(), (), ()
            start = control.end()
        if start < stop:
            yield stop - start, keys or (), values[(start - at) * width :] if start > at else values
        at = stop


def _r_tuples(buf: memoryview, pos: int) -> tuple[TupleBlock, int]:
    """Decode a run straight into a block: its payload columns, and no row or mapping."""
    count, pos = _r_uvarint(buf, pos)
    if not count:
        return EMPTY_BLOCK, pos
    # The type column needs ``count`` bytes, so a corrupt count fails here
    # before any list of that size exists.
    span, pos = _r_span(buf, pos, count)
    codes = bytes(span)
    if max(codes) >= len(TYPE_BY_CODE):
        raise WireError(f"unknown tuple type index {max(codes)}")
    ids, pos = _r_packed(buf, pos, _INT64, count)
    stimes, pos = _r_packed(buf, pos, _FLOAT64, count)
    undo_from_ids, pos = _r_sparse(buf, pos, count)
    stable_seqs, pos = _r_sparse(buf, pos, count)
    payload = []
    remaining = count
    while remaining:
        length, keys, pos = _r_schema_run(buf, pos, remaining)
        columns = []
        for _ in keys:
            column, pos = _r_column(buf, pos, length)
            columns.append(column)
        start = count - remaining
        remaining -= length
        if not keys and _DATA_ROWS.search(codes, start, start + length) is None:
            keys = None  # control rows only: they join the run before them
        if payload and (keys is None or keys == payload[-1][1]):
            last = payload[-1]
            last[0] += length
            last[2] += interleaved(columns) if keys else (None,) * (length * len(last[1] or ()))
        else:
            payload.append([length, keys, interleaved(columns)])
    payload = tuple(map(tuple, payload))
    return TupleBlock(codes, ids, stimes, payload, undo_from_ids, stable_seqs), pos


def _r_schema_run(buf: memoryview, pos: int, remaining: int) -> tuple[int, tuple[str, ...], int]:
    """A schema run's header: its length (at most ``remaining``) and key names."""
    length, pos = _r_uvarint(buf, pos)
    if not 0 < length <= remaining:
        raise WireError(f"schema run of {length} tuples where {remaining} remain")
    n_keys, pos = _r_uvarint(buf, pos)
    keys = []
    for _ in range(n_keys):
        key, pos = _r_str(buf, pos)
        keys.append(key)
    return length, tuple(keys), pos


# --------------------------------------------------------------------------- standalone runs
def _check_consumed(buf: memoryview, pos: int) -> None:
    if pos != len(buf):
        raise WireError(f"{len(buf) - pos} trailing bytes after decoded frame")


def encode_tuples(tuples: Sequence[StreamTuple]) -> bytes:
    """One self-contained run of tuples (a sealed ledger segment)."""
    out = bytearray()
    _w_tuples(out, tuples)
    return bytes(out)


def decode_tuples(data: bytes) -> TupleBlock:
    """Decode a run produced by :func:`encode_tuples` (any bytes-like object)."""
    buf = memoryview(data)
    items, pos = _r_tuples(buf, 0)
    _check_consumed(buf, pos)
    return items
