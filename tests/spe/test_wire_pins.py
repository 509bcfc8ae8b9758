"""The tuple codec's bytes, pinned: one case per shape a run can take.

Each case is a run of tuples; the test checks the SHA-256 of its standalone
encoding (``encode_tuples``, a sealed ledger segment) and of a whole ``DATA``
envelope around it (``encode_envelope``), and that both decode to the same
rows.  The digests were computed from the row-mapping payload layout the
codec had before blocks held payload columns, so a change to the in-memory
layout that moves a single byte fails here.
"""

import hashlib

import pytest

from repro.core.protocol import DATA, TupleBatch
from repro.live.wire import decode_envelope, encode_envelope
from repro.spe.tuple_codec import decode_tuples, encode_tuples
from repro.spe.tuples import StreamTuple, TupleBlock


def _stable_run():
    rows = [
        StreamTuple.data(10 + i, 0.05 * i, {"seq": i, "value": float(i), "stream": 2}, True, i)
        for i in range(5)
    ]
    return [*rows, StreamTuple.boundary(15, 0.25)]


CASES = {
    "stable-run-boundary-seq": _stable_run(),
    "tentative-run": [
        StreamTuple.data(3 + i, 1.0 + i / 8, {"seq": 40 + i, "value": i * 0.5}, False)
        for i in range(4)
    ],
    "undo": [
        StreamTuple.data(0, 0.5, {"seq": 1}, True, 7),
        StreamTuple.undo(1, 0.5, 0),
        StreamTuple.data(2, 0.75, {"seq": 2}, True, 8),
    ],
    "rec-done": [
        StreamTuple.data(5, 2.0, {"seq": 9, "value": 9.0}, True, 3),
        StreamTuple.rec_done(6, 2.0),
    ],
    "key-order-runs": [
        StreamTuple.data(0, 0.0, {"a": 1, "b": 2.5}, True, 0),
        StreamTuple.data(1, 0.1, {"a": 2, "b": 3.5}, True, 1),
        StreamTuple.data(2, 0.2, {"b": 4.5, "a": 3}, True, 2),
        StreamTuple.data(3, 0.3, {"b": 5.5, "a": 4}, False),
    ],
    "tagged-column": [
        StreamTuple.data(i, 0.1 * i, {"value": value}, True, i)
        for i, value in enumerate([None, True, False, "text", 2**70, 7])
    ],
    "empty-payload": [
        StreamTuple.data(0, 0.0, {}, True, 0),
        StreamTuple.data(1, 0.5, {"seq": 1}, True, 1),
        StreamTuple.boundary(2, 0.5),
    ],
}

#: case -> (sha256 of encode_tuples, sha256 of the DATA envelope).
PINS = {
    "empty-payload": (
        "06941f9cccc8dbe2895144a570d7fa10c552228407d531c2c25d167282a71381",
        "d9ab80644db6ed343bb20b0bcecbbb787c43110fdfba5e0ac5434b5cdc8416f3",
    ),
    "key-order-runs": (
        "6c7577bab72482a7e751e61a72db494c57099474478862a6248efd891fb1ea9b",
        "dd96ca58b5483280dda6495032d6a4e68fd5e890e4d48e3e36c7c1f5fee94395",
    ),
    "rec-done": (
        "6d2828d454150cafae7d0d09c74cd2cae8b7ec7d8f210b55e3d17a021067db0c",
        "2aa70c349181d1e57b8755bf344312b3ebb99f6286012c39ecc5233185b02282",
    ),
    "stable-run-boundary-seq": (
        "c1b3e728a1db9bf3ec0a9208f3dbef5a258e9acd6552c4d2641de0338bcab9a2",
        "4ad5c728d00897b372f397d63de9396a9f310ae27111803580ef1a4f067d095c",
    ),
    "tagged-column": (
        "7299880de2174e5be217d6522766b15c2dd36ef4ab0a229b62b788bd8422ade3",
        "21b286fa94a7624448ba2d05de14aee7f1aec1ca7e83b59ed2f57ee519df172c",
    ),
    "tentative-run": (
        "a71eaa32f3f507cb2c59c7895ebe88f7f7ca27ed0e54c17b50440701937853c7",
        "f14ea6f60247181738a9fd0621c8cb6e262e307f4c44b816c274a1f28e54e866",
    ),
    "undo": (
        "bc322a572f80c657a40b21a0421b18c65ffc28fea39adb2b2e77c830113cbfb0",
        "e3b4e54785db0d61d3f943ef85158fbe174177af8eca1b26eb45dd82687a6f4e",
    ),
}


def _envelope(rows) -> bytes:
    batch = TupleBatch.of("pinned", TupleBlock.of(rows), producer="up")
    return encode_envelope("up", "down", DATA, batch)


@pytest.mark.parametrize("name", sorted(CASES))
def test_wire_bytes_are_pinned(name):
    rows = CASES[name]
    run, frame = encode_tuples(rows), _envelope(rows)
    assert (hashlib.sha256(run).hexdigest(), hashlib.sha256(frame).hexdigest()) == PINS[name]
    assert decode_tuples(run) == rows
    decoded = decode_envelope(frame)[3].tuples
    assert decoded == rows
    for before, after in zip(rows, decoded):
        assert list(before.values) == list(after.values)
        assert [type(v) for v in before.values.values()] == [type(v) for v in after.values.values()]
