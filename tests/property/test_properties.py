"""Property-based tests (hypothesis) for core data structures and invariants."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.states import NodeState
from repro.core.switching import choose_upstream
from repro.errors import ConfigurationError
from repro.spe.operators import SUnion
from repro.spe.streams import StreamLog, apply_undo
from repro.spe.tuples import StreamTuple
from repro.spe.windows import WindowSpec

COMMON = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- SUnion determinism
@st.composite
def interleavings(draw):
    """Two per-port tuple sequences plus a shuffled interleaving of them."""
    n_ports = draw(st.integers(min_value=1, max_value=3))
    per_port = []
    for port in range(n_ports):
        stimes = draw(st.lists(st.floats(min_value=0.0, max_value=9.9), min_size=0, max_size=15))
        stimes.sort()
        per_port.append(
            [StreamTuple.insertion(i, stime, {"port": port, "i": i}) for i, stime in enumerate(stimes)]
        )
    order = []
    for port, items in enumerate(per_port):
        order.extend((port, item) for item in items)
    order = draw(st.permutations(order))
    # Arrival order within one port must stay sorted by id (links are FIFO).
    seen = {p: -1 for p in range(n_ports)}
    filtered = []
    for port, item in order:
        if item.tuple_id > seen[port]:
            filtered.append((port, item))
            seen[port] = item.tuple_id
    remaining = [
        (port, item)
        for port, items in enumerate(per_port)
        for item in items
        if all(item is not existing for _p, existing in filtered)
    ]
    return n_ports, filtered + remaining


@COMMON
@given(interleavings())
def test_sunion_output_independent_of_arrival_interleaving(case):
    n_ports, arrivals = case

    def run(sequence):
        op = SUnion("su", arity=n_ports, bucket_size=1.0)
        for port, item in sequence:
            op.process(port, item)
        out = []
        for port in range(n_ports):
            out += op.process(port, StreamTuple.boundary(10_000 + port, 100.0))
        return [(t.stime, t.values["port"], t.values["i"]) for t in out if t.is_data]

    # Group arrivals per port and replay them port-by-port: the serialized
    # output must be identical to the interleaved arrival order's output.
    by_port = [[(p, i) for p, i in arrivals if p == port] for port in range(n_ports)]
    sequential = [entry for port_entries in by_port for entry in port_entries]
    assert run(arrivals) == run(sequential)


@COMMON
@given(st.lists(st.floats(min_value=0.0, max_value=99.0), max_size=30), st.floats(min_value=0.1, max_value=5.0))
def test_sunion_never_emits_before_watermark(stimes, bucket_size):
    op = SUnion("su", arity=1, bucket_size=bucket_size)
    for i, stime in enumerate(sorted(stimes)):
        assert op.process(0, StreamTuple.insertion(i, stime, {})) == []
    watermark = 50.0
    out = [t for t in op.process(0, StreamTuple.boundary(999, watermark)) if t.is_data]
    for item in out:
        assert item.stime < watermark
    # Everything not emitted belongs to buckets the watermark has not passed.
    assert op.pending_tuples == sum(1 for s in stimes if (int(s / bucket_size) + 1) * bucket_size > watermark)


# --------------------------------------------------------------------------- windows
#: Window spans in [0.5, 50] on a 1/8 grid: every pair decomposes into panes.
EIGHTHS = st.integers(min_value=4, max_value=400).map(lambda n: n / 8)


@COMMON
@given(EIGHTHS, EIGHTHS, st.floats(min_value=-100.0, max_value=100.0))
def test_window_indices_always_contain_stime(size, slide, stime):
    spec = WindowSpec(size=size, slide=min(slide, size), origin=0.0)
    indices = list(spec.window_indices(stime))
    # Allow for floating-point rounding right at window edges.
    epsilon = 1e-9 * max(1.0, abs(stime))
    assert indices, "every stime belongs to at least one window"
    for index in indices:
        assert spec.window_start(index) <= stime + epsilon
        assert stime < spec.window_end(index) + epsilon


@COMMON
@given(
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=3, max_value=10**6).filter(lambda n: n & (n - 1)),
)
def test_undecomposable_windows_are_refused(size, denominator):
    # 1/n is an inexact binary float unless n is a power of two: its exact gcd
    # with an integer size is below 2**-50, far past MAX_PANES_PER_WINDOW panes.
    with pytest.raises(ConfigurationError, match="no exact pane decomposition"):
        WindowSpec.sliding(size=0.3, slide=0.1)
    with pytest.raises(ConfigurationError, match="no exact pane decomposition"):
        WindowSpec.sliding(size=float(size), slide=1.0 / denominator)


@COMMON
@given(
    st.floats(min_value=0.5, max_value=20.0),
    st.lists(st.floats(min_value=0.0, max_value=200.0), min_size=2, max_size=8),
)
def test_windows_closed_by_partition_is_disjoint_and_monotone(size, watermarks):
    spec = WindowSpec.tumbling(size)
    watermarks = sorted(watermarks)
    closed: list[int] = []
    previous = float("-inf")
    for watermark in watermarks:
        newly = list(spec.windows_closed_by(previous, watermark))
        assert not (set(newly) & set(closed)), "windows must close exactly once"
        closed.extend(newly)
        previous = watermark
    for index in closed:
        assert spec.window_end(index) <= watermarks[-1] + 1e-9


# --------------------------------------------------------------------------- stream log
@COMMON
@given(st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=40, unique=True), st.integers(min_value=-1, max_value=220))
def test_streamlog_replay_after_returns_exact_suffix(ids, after):
    log = StreamLog("s")
    for tuple_id in sorted(ids):
        log.append(StreamTuple.insertion(tuple_id, tuple_id * 0.1, {"id": tuple_id}))
    replay = log.replay_after(after)
    assert [t.tuple_id for t in replay] == [i for i in sorted(ids) if i > after]


@COMMON
@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=30, unique=True),
    st.integers(min_value=-1, max_value=100),
)
def test_apply_undo_keeps_exact_prefix(ids, undo_from):
    items = [StreamTuple.insertion(i, i * 0.1, {}) for i in sorted(ids)]
    undo = StreamTuple.undo(999, 0.0, undo_from_id=undo_from)
    kept = apply_undo(items, undo)
    assert [t.tuple_id for t in kept] == [i for i in sorted(ids) if i <= undo_from]


# --------------------------------------------------------------------------- switching rules
@COMMON
@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.sampled_from(list(NodeState)),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([None, "a", "b", "c", "d"]),
)
def test_switching_never_picks_a_worse_replica(states, current):
    from repro.core.states import STATE_PREFERENCE

    decision = choose_upstream(current, states)
    if decision.switch:
        assert decision.target in states
        current_rank = STATE_PREFERENCE[states.get(current, NodeState.FAILURE)] if current else 99
        assert STATE_PREFERENCE[states[decision.target]] <= current_rank
    else:
        # Staying is only allowed when the current replica is STABLE, or when
        # no strictly better replica exists.
        if current in states and states[current] is not NodeState.STABLE:
            best = min(STATE_PREFERENCE[s] for s in states.values())
            current_rank = STATE_PREFERENCE[states[current]]
            if best < current_rank:
                # The only legal "stay" despite a better replica is when the
                # current one is already providing (tentative) data.
                assert states[current] is NodeState.UP_FAILURE or best >= STATE_PREFERENCE[NodeState.UP_FAILURE]
