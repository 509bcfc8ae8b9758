"""End-of-run ledger reads against their row-by-row definitions.

The edge worker's result reads the client's stores by column: the stable
values decode one payload column per sealed segment, the consistency
verdict is one pass over them, and the tentative window comes from the
arrival log's code and time columns.  Each is compared here with the row
loop it replaced, on ledgers with gaps, duplicates, disorder and an UNDO'd
tentative tail, sealed into small segments.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.worker import _tentative_phase
from repro.metrics import ledger as ledger_module
from repro.metrics.collector import MetricsCollector
from repro.metrics.consistency import client_is_eventually_consistent
from repro.spe.tuples import StreamTuple


class Client:
    """The client surface the end-of-run reads use."""

    def __init__(self) -> None:
        with mock.patch.object(ledger_module, "SEGMENT_TUPLES", 3):
            self.metrics = MetricsCollector(stream="out")

    @property
    def stable_sequence(self) -> list:
        return self.metrics.consistency.stable_values("seq")


def row_stable_values(client: Client) -> list:
    return [item.value("seq") for item in client.metrics.consistency.ledger if item.is_stable]


def row_verdict(sequence: list) -> bool:
    if not sequence or sequence != sorted(sequence) or len(set(sequence)) != len(sequence):
        return False
    return not set(range(min(sequence), max(sequence) + 1)) - set(sequence)


def row_tentative_phase(client: Client) -> dict:
    first = last = None
    count = 0
    for entry in client.metrics.trace:
        if entry.tuple_type == "tentative":
            count += 1
            last = entry.time
            if first is None:
                first = entry.time
    return {"first": first, "last": last, "count": count}


def replay(events) -> Client:
    client = Client()
    stable_seq = 0
    for index, (kind, seq) in enumerate(events):
        now = 0.5 * index
        if kind == "stable":
            item = StreamTuple.data(index, now, {"seq": seq, "v": 0.5}, True, stable_seq=stable_seq)
            stable_seq += 1
        elif kind == "tentative":
            item = StreamTuple.data(index, now, {"v": 1.0, "seq": seq}, False)
        elif kind == "other":  # a schema without the sequence attribute
            item = StreamTuple.data(index, now, {"v": "x"}, True, stable_seq=stable_seq)
            stable_seq += 1
        else:
            item = StreamTuple.undo(index, now, undo_from_id=-1)
        client.metrics.observe(item, now)
    return client


def assert_reads_match(events) -> None:
    client = replay(events)
    values = row_stable_values(client)
    assert client.stable_sequence == values
    if None not in values:
        assert client_is_eventually_consistent(client) == row_verdict(values)
    assert _tentative_phase(client) == row_tentative_phase(client)


def stable_run(values):
    return [("stable", value) for value in values]


def test_named_ledgers():
    cases = {
        "in order": stable_run(range(10)),
        "empty": [],
        "only tentative": [("tentative", 0), ("tentative", 1)],
        "gap": stable_run([0, 1, 2, 4, 5]),
        "duplicate": stable_run([0, 1, 2, 2, 3]),
        "disorder": stable_run([0, 2, 1, 3, 4]),
        "starts late": stable_run(range(7, 15)),
        "undone tail": stable_run(range(5)) + [("tentative", 5), ("tentative", 6), ("undo", 0)],
        "undone then corrected": (
            stable_run(range(4)) + [("tentative", 4), ("undo", 0)] + stable_run(range(4, 9))
        ),
        "tentative kept": stable_run(range(4)) + [("tentative", 4)] * 2,
        "missing attribute": stable_run(range(3)) + [("other", 0)] + stable_run(range(3, 6)),
    }
    verdicts = {}
    for name, events in cases.items():
        assert_reads_match(events)
        verdicts[name] = client_is_eventually_consistent(replay(events))
    assert [name for name, ok in verdicts.items() if ok] == [
        "in order", "starts late", "undone tail", "undone then corrected", "tentative kept",
    ]


@settings(max_examples=200, deadline=None)
@given(events=st.lists(
    st.tuples(st.sampled_from(["stable", "stable", "tentative", "undo"]), st.integers(0, 12)),
    max_size=30,
))
def test_random_ledgers(events):
    assert_reads_match(events)
