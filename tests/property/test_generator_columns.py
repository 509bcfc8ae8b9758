"""Payload generators produce one tick's columns, however the ticks split the sequence.

A source calls its generator once per tick with the tick's sequence numbers.
The simulator ticks on a grid and the live backend on jittered wall-clock
ticks, so the same log must come out whatever the split: the columns for
``[0, n)`` equal the concatenated columns of consecutive sub-ranges.  The
first 1000 rows of each built-in generator are pinned too: ``ROWS_SHA256``
holds the SHA-256 of ``repr`` of the row mappings the generators produced
when they made one mapping per call, so the columns carry the same values,
types and key order.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.sources import sequential_payload
from repro.workloads.generators import (
    hot_key_sequence,
    interleaved_sequence,
    network_monitoring,
    sensor_readings,
    sequential_sequence,
)

GENERATORS = {
    "sequential_sequence": sequential_sequence,
    "interleaved_sequence": lambda: interleaved_sequence(1, 3),
    "network_monitoring": lambda: network_monitoring(2, 3, seed=7),
    "sensor_readings": lambda: sensor_readings(1, 3, seed=3),
    "hot_key_sequence": lambda: hot_key_sequence(2, 3, skew=1.2, keys=64, seed=5),
    "sequential_payload": lambda: sequential_payload,
}

ROWS_SHA256 = {
    "sequential_sequence": "691848d0a0ed2e1bc635348144acb3b6878342e494c1e75e33fb0ba1f0f21c91",
    "interleaved_sequence": "cfde4aad0753bd3ac813f0c4deeaeba1a5fddf3603cc981a82538aec9a1a6419",
    "network_monitoring": "cfd0a70b49571c48153b2c07d93c685d36f0060f99ac1c929d7b758da611e6f6",
    "sensor_readings": "2b71e56ac8dd29aba9956b370a93f28d29f36a95f0f018744eeaaa95c6373e3c",
    "hot_key_sequence": "5ad9e66022438dd3d0cd66e426adb2766f54038e650a26d0918611025e65c460",
    "sequential_payload": "691848d0a0ed2e1bc635348144acb3b6878342e494c1e75e33fb0ba1f0f21c91",
}


def columns(generate, start: int, stop: int) -> dict:
    return generate(range(start, stop), [0.01 * i for i in range(start, stop)])


def exact(cols: dict) -> list:
    return [(key, [(type(value), repr(value)) for value in column]) for key, column in cols.items()]


def test_first_rows_match_the_per_row_generators():
    for name, make in GENERATORS.items():
        cols = columns(make(), 0, 1000)
        rows = [dict(zip(cols, values)) for values in zip(*cols.values())]
        assert len(rows) == 1000 and all(len(column) == 1000 for column in cols.values())
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == ROWS_SHA256[name], name


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(GENERATORS)),
    n=st.integers(0, 300),
    cuts=st.lists(st.integers(0, 300), max_size=6),
)
def test_columns_concatenate_over_any_split(name, n, cuts):
    whole = columns(GENERATORS[name](), 0, n)
    generate = GENERATORS[name]()
    edges = [0, *sorted(cut for cut in cuts if cut <= n), n]
    pieces = [columns(generate, a, b) for a, b in zip(edges, edges[1:]) if b > a]
    joined = {key: [value for piece in pieces for value in piece[key]] for key in whole}
    assert all(list(piece) == list(whole) for piece in pieces)
    assert exact(joined) == exact(whole)
