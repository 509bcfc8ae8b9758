"""The tuple codec's standalone runs (sealed ledger segments).

The byte-level suite of the codec -- hypothesis round trips over mixed
schemas, truncation at every offset, byte-flip mutants -- lives in
``tests/live/test_wire.py`` and reaches this module through the wire format,
which embeds the same run in every ``DATA`` frame.  These tests cover what the
ledger adds: a run on its own, with no frame around it.
"""

import random

import pytest

from repro.live import wire
from repro.spe import tuple_codec
from repro.spe.tuple_codec import WireError, decode_tuples, encode_tuples
from repro.spe.tuples import StreamTuple


def mixed_run():
    return [
        StreamTuple.data(1, 0.25, {"seq": 1, "value": -0.0}, True, stable_seq=0),
        StreamTuple.data(2, 0.5, {"seq": 2, "value": float("inf")}, True, stable_seq=1),
        StreamTuple.data(3, 0.75, {"value": 1.5, "seq": 2**70, "tag": "x"}, False),
        StreamTuple.data(4, 1.0, {"seq": None, "flag": True, "pair": (1, "a")}, False),
        StreamTuple.data(5, 1.25, {}, True, stable_seq=2),
    ]


def test_there_is_one_codec():
    assert wire._w_tuples is tuple_codec._w_tuples and wire._r_tuples is tuple_codec._r_tuples
    assert wire.WireError is WireError


def test_run_round_trips_values_types_and_key_order():
    items = mixed_run()
    decoded = decode_tuples(encode_tuples(items))
    assert decoded == items
    for before, after in zip(items, decoded):
        assert list(before.values) == list(after.values)
        assert [type(v) for v in before.values.values()] == [type(v) for v in after.values.values()]
    assert repr(decoded[0].values["value"]) == "-0.0"
    assert decode_tuples(encode_tuples([])) == []
    assert decode_tuples(memoryview(encode_tuples(items))) == items


def test_a_damaged_run_raises_wire_error_only():
    run = encode_tuples(mixed_run())
    with pytest.raises(WireError, match="trailing"):
        decode_tuples(run + b"\x00")
    for cut in range(len(run)):
        with pytest.raises(WireError):
            decode_tuples(run[:cut])
    rng = random.Random(20260927)
    for _ in range(1500):
        mutated = bytearray(run)
        for _ in range(rng.choice((1, 1, 2, 4))):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        try:
            decode_tuples(bytes(mutated))
        except WireError:
            pass  # any other exception fails the test
