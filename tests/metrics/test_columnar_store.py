"""The columnar client stores against a plain list-of-objects reference.

``Reference`` is the store this repo used before the ledger was sealed into
codec segments and the trace / records became column views: one
``StreamTuple`` per ledger entry, one ``OutputRecord`` and one ``TraceEntry``
per observed tuple.  The model test drives both with the same random event
sequences and demands identical reads.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.metrics import ledger as ledger_module
from repro.metrics.arrivals import ArrivalLog
from repro.metrics.collector import MetricsCollector
from repro.metrics.consistency import duplicate_stable_values
from repro.metrics.latency import proc_new
from repro.metrics.ledger import TupleLedger
from repro.spe.tuple_codec import decode_tuples
from repro.spe.tuples import StreamTuple


# --------------------------------------------------------------------------- reference
class Reference:
    """List-of-objects stores with the observe() rules of the collector."""

    def __init__(self, sequence_attribute="seq"):
        self.sequence_attribute = sequence_attribute
        self.ledger, self.trace, self.records = [], [], []
        self.total_stable = self.total_tentative = self.total_undos = self.total_rec_done = 0
        self.tentative_since_stable = 0
        self.max_stime_seen = float("-inf")
        self.max_latency = self.max_gap = 0.0
        self.last_new_arrival = None
        self.new_tuples = 0

    def observe(self, item, now):
        if item.is_stable:
            self.total_stable += 1
            self.tentative_since_stable = 0
            self.ledger.append(item)
        elif item.is_tentative:
            self.total_tentative += 1
            self.tentative_since_stable += 1
            self.ledger.append(item)
        elif item.is_undo:
            self.total_undos += 1
            self.tentative_since_stable = 0
            while self.ledger and not self.ledger[-1].is_stable:
                self.ledger.pop()
        elif item.is_rec_done:
            self.total_rec_done += 1
        is_new = False
        if item.is_data:
            is_new = item.stime > self.max_stime_seen
            latency = now - item.stime
            if is_new:
                self.max_stime_seen = item.stime
                self.new_tuples += 1
                self.max_latency = max(self.max_latency, latency)
                if self.last_new_arrival is not None:
                    self.max_gap = max(self.max_gap, now - self.last_new_arrival)
                self.last_new_arrival = now
            self.records.append((now, item.stime, item.tuple_type.value, is_new, latency))
        sequence = item.values.get(self.sequence_attribute) if item.is_data else None
        self.trace.append((now, item.stime, item.tuple_type.value, sequence))
        return is_new


def exact(value):
    """Type and repr: equal only for the same type and bits (NaN, -0.0, True vs 1)."""
    return type(value).__name__, repr(value)


def canon(item):
    return (
        item.tuple_type,
        item.tuple_id,
        exact(item.stime),
        item.stable_seq,
        item.undo_from_id,
        [(key, exact(value)) for key, value in item.values.items()],
    )


def assert_same_reads(collector: MetricsCollector, reference: Reference) -> None:
    ledger = collector.consistency.ledger
    expected = [canon(item) for item in reference.ledger]
    assert len(ledger) == len(expected)
    assert [canon(item) for item in ledger] == expected
    assert [canon(ledger[index]) for index in range(len(expected))] == expected
    if expected:
        assert canon(ledger[-1]) == expected[-1]
    for piece in (slice(None, 3), slice(2, None, 2), slice(None, None, -3), slice(-5, -1)):
        assert [canon(item) for item in ledger[piece]] == expected[piece]
    assert bool(ledger) == bool(expected)
    assert [canon(item) for segment in ledger.segments() for item in decode_tuples(segment)] == (
        expected
    )

    tracker = collector.consistency
    stable = [item for item in reference.ledger if item.is_stable]
    assert [exact(v) for v in tracker.stable_values("seq")] == [
        exact(item.values.get("seq")) for item in stable
    ]
    assert [canon(item) for item in tracker.stable_prefix()] == [canon(item) for item in stable]
    assert tracker.has_pending_tentative() == any(t.is_tentative for t in reference.ledger)
    assert duplicate_stable_values(ledger, "key") == duplicate_stable_values(
        reference.ledger, "key"
    )
    for counter in ("total_stable", "total_tentative", "total_undos", "total_rec_done",
                    "tentative_since_stable"):
        assert getattr(tracker, counter) == getattr(reference, counter), counter

    assert len(collector.trace) == len(reference.trace)
    assert [
        (exact(e.time), exact(e.stime), e.tuple_type, exact(e.sequence)) for e in collector.trace
    ] == [(exact(t), exact(s), kind, exact(seq)) for t, s, kind, seq in reference.trace]
    latency = collector.latency
    assert len(latency.records) == len(reference.records)
    assert [
        (exact(r.arrival_time), exact(r.stime), r.tuple_type, r.is_new, exact(r.latency))
        for r in latency.records
    ] == [(exact(t), exact(s), kind, new, exact(lat)) for t, s, kind, new, lat in reference.records]
    assert [exact(v) for v in latency.latencies(new_only=False)] == [
        exact(lat) for *_, lat in reference.records
    ]
    assert [exact(v) for v in latency.latencies(new_only=True)] == [
        exact(lat) for *_, new, lat in reference.records if new
    ]
    assert exact(proc_new(latency.records)) == exact(
        max((lat for *_, new, lat in reference.records if new), default=0.0)
    )
    assert (latency.new_tuples, exact(latency.max_latency), exact(latency.max_gap)) == (
        reference.new_tuples, exact(reference.max_latency), exact(reference.max_gap)
    )


# --------------------------------------------------------------------------- model test
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
    st.sampled_from([float("nan"), -0.0, float("inf"), float("-inf")]),
)
_VALUES = st.one_of(
    st.integers(-5, 5),
    st.integers(2**63 - 1, 2**70),
    st.integers(-(2**70), -(2**63)),
    _FLOATS,
    st.text(max_size=3),
    st.booleans(),
    st.none(),
)
#: Mixed schemas: different key sets and key orders, with and without "seq".
_SCHEMAS = st.sampled_from(
    [("seq", "key"), ("key", "seq"), ("seq",), ("key", "extra", "seq"), ("key",), ()]
)
_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["stable", "stable", "tentative", "tentative", "undo", "rec_done"]),
        _SCHEMAS,
        st.lists(_VALUES, min_size=3, max_size=3),
        _FLOATS,  # stime
        st.floats(min_value=0.0, max_value=1e6),  # arrival time
    ),
    max_size=40,
)


def build_item(index, kind, schema, values, stime, stable_seq):
    payload = dict(zip(schema, values))
    if kind == "stable":
        return StreamTuple.data(index, stime, payload, True, stable_seq=stable_seq)
    if kind == "tentative":
        return StreamTuple.data(index, stime, payload, False)
    if kind == "undo":
        return StreamTuple.undo(index, stime, undo_from_id=-1)
    return StreamTuple.rec_done(index, stime)


#: One float object shared by two tuples: ``in`` on a set or list is
#: identity-first, so a duplicate check that uses it calls this NaN a
#: duplicate of itself -- but only until a sealed segment decodes it into
#: two objects.
_SHARED_NAN = float("nan")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(events=_EVENTS, segment=st.integers(1, 5))
@example(
    events=[
        ("stable", ("seq", "key"), [None, None, None], 0.0, 0.0),
        ("stable", ("seq", "key"), [0, _SHARED_NAN, 0], 0.0, 0.0),
        ("stable", ("seq", "key"), [0, _SHARED_NAN, 0], 0.0, 0.0),
    ],
    segment=1,
)
def test_columnar_stores_read_like_the_list_reference(events, segment):
    with mock.patch.object(ledger_module, "SEGMENT_TUPLES", segment):
        collector = MetricsCollector(stream="out")
    reference = Reference()
    stable_seq = 0
    for index, (kind, schema, values, stime, now) in enumerate(events):
        item = build_item(index, kind, schema, values, stime, stable_seq)
        stable_seq += kind == "stable"
        assert collector.observe(item, now) == reference.observe(item, now)
        if kind == "undo" or index % 7 == 0:
            assert_same_reads(collector, reference)
    assert_same_reads(collector, reference)


# --------------------------------------------------------------------------- seal boundary
def small_ledger(segment: int) -> TupleLedger:
    with mock.patch.object(ledger_module, "SEGMENT_TUPLES", segment):
        return TupleLedger()


def stable(index):
    return StreamTuple.data(index, float(index), {"seq": index}, True, stable_seq=index)


def tentative(index):
    return StreamTuple.data(index, float(index), {"seq": index}, False)


def ids(ledger):
    return [item.tuple_id for item in ledger]


def test_undo_exactly_at_a_seal_boundary_keeps_the_sealed_stable_tuple():
    ledger = small_ledger(4)
    for index in range(4):
        ledger.append(stable(index))  # the 4th stable tuple seals the segment
    assert len(ledger._sealed) == 1 and not ledger._tail
    ledger.append(tentative(4))
    ledger.append(tentative(5))
    ledger.drop_tentative_suffix()  # last stable tuple is sealed: the whole tail goes
    assert ids(ledger) == [0, 1, 2, 3] and ledger.tentative == 0
    ledger.drop_tentative_suffix()  # idempotent on an empty tail
    assert ids(ledger) == [0, 1, 2, 3]


def test_undo_just_after_a_seal_boundary_keeps_the_open_stable_tuple():
    ledger = small_ledger(4)
    for index in range(5):
        ledger.append(stable(index))
    ledger.append(tentative(5))
    ledger.drop_tentative_suffix()
    assert ids(ledger) == [0, 1, 2, 3, 4]
    assert len(ledger._sealed) == 1 and ids(ledger._tail) == [4]


def test_tentative_tuples_before_a_stable_one_are_sealed_with_it():
    ledger = small_ledger(3)
    for item in (stable(0), tentative(1), tentative(2), tentative(3), tentative(4)):
        ledger.append(item)
    assert not ledger._sealed  # nothing after the last stable tuple is immutable
    ledger.append(stable(5))  # now all six are: two segments at once
    assert len(ledger._sealed) == 2 and not ledger._tail
    assert ledger.tentative == 4
    ledger.drop_tentative_suffix()
    assert ids(ledger) == [0, 1, 2, 3, 4, 5]


def test_undo_without_any_stable_tuple_empties_the_ledger():
    ledger = small_ledger(2)
    for index in range(5):
        ledger.append(tentative(index))
    assert not ledger._sealed
    ledger.drop_tentative_suffix()
    assert ledger == [] and len(ledger) == 0 and ledger.tentative == 0


def test_ledger_sequence_protocol():
    ledger = small_ledger(4)
    items = [stable(index) for index in range(10)]
    for item in items:
        ledger.append(item)
    assert ledger == items and ledger == tuple(items) and ledger != items[:-1]
    assert ledger[:3] == items[:3] and ledger[3:9:2] == items[3:9:2] and ledger[20:] == []
    assert ledger[0] == items[0] and ledger[-1] == items[-1] and ledger[5] == items[5]
    with pytest.raises(IndexError):
        ledger[10]
    with pytest.raises(IndexError):
        ledger[-11]
    assert items[4] in ledger and ledger.index(items[6]) == 6
    ledger.clear()
    assert ledger == [] and not ledger and ledger.segments() == []


# --------------------------------------------------------------------------- columns
def test_sequence_column_demotes_once_and_stays_a_list():
    log = ArrivalLog()
    for value in range(3):
        log.append(1.0, 0.5, "insertion", True, value)
    assert type(log.sequences).__name__ == "array"
    log.append(1.0, 0.5, "undo", False, 0)  # non-data rows never demote
    assert type(log.sequences).__name__ == "array"
    log.append(1.0, 0.5, "insertion", False, 2**63)  # > 64 bits
    demoted = log.sequences
    assert type(demoted) is list and demoted == [0, 1, 2, 0, 2**63]
    for value in (7, None, "x", True):
        log.append(1.0, 0.5, "tentative", False, value)
    assert log.sequences is demoted  # never converted (or examined) again
    assert demoted[-4:] == [7, None, "x", True] and demoted[-1] is True


@pytest.mark.parametrize("value", [None, 1.5, "s", True, -(2**63) - 1])
def test_every_unpackable_sequence_value_reads_back_exactly(value):
    collector = MetricsCollector(stream="out")
    collector.observe(StreamTuple.insertion(0, 0.0, {"seq": 3}), now=1.0)
    collector.observe(StreamTuple.insertion(1, 0.1, {"seq": value}), now=1.1)
    assert [exact(entry.sequence) for entry in collector.trace] == [exact(3), exact(value)]


def test_views_are_built_per_iteration_and_keep_nothing():
    collector = MetricsCollector(stream="out")
    collector.observe(StreamTuple.insertion(0, 0.5, {"seq": 0}), now=1.0)
    trace = collector.trace
    first, again = list(trace), list(trace)
    assert first == again and first[0] is not again[0]
    collector.observe(StreamTuple.rec_done(1, 0.6), now=1.2)
    assert len(trace) == 2 and len(collector.latency.records) == 1  # views are live
    assert [entry.tuple_type for entry in trace] == ["insertion", "rec_done"]
