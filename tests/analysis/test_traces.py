"""Tests for client-trace analysis."""

from repro.analysis.traces import (
    analyze_trace,
    correction_episodes,
    output_gaps,
    tentative_episodes,
)
from repro.metrics.collector import TraceEntry


def entry(time, tuple_type, seq=None, stime=None):
    return TraceEntry(time=time, stime=stime if stime is not None else time, tuple_type=tuple_type, sequence=seq)


def failure_trace():
    """A trace shaped like Figure 11(a): stable, gap, tentative burst, corrections."""
    trace = []
    # Normal stable output.
    for i in range(5):
        trace.append(entry(float(i), "insertion", seq=i))
    # Failure: 2-second silence, then tentative output.
    for i in range(5, 10):
        trace.append(entry(float(i) + 2.0, "tentative", seq=i, stime=float(i)))
    # Healing: corrections (stable re-issues) then REC_DONE, then fresh stable data.
    for i in range(5, 10):
        trace.append(entry(12.0 + 0.1 * (i - 5), "insertion", seq=i, stime=float(i)))
    trace.append(entry(12.6, "rec_done"))
    for i in range(10, 13):
        trace.append(entry(13.0 + (i - 10), "insertion", seq=i, stime=float(i)))
    return trace


def test_tentative_episodes_found():
    episodes = tentative_episodes(failure_trace())
    assert len(episodes) == 1
    episode = episodes[0]
    assert episode.count == 5
    assert episode.start == 7.0
    assert episode.duration > 0


def test_correction_episode_ends_at_rec_done():
    episodes = correction_episodes(failure_trace())
    assert len(episodes) == 1
    assert episodes[0].count == 5
    assert episodes[0].end == 12.6


def test_correction_episode_without_rec_done_closes_at_trace_end():
    trace = [
        entry(0.0, "insertion", seq=0),
        entry(1.0, "tentative", seq=1),
        entry(2.0, "insertion", seq=1, stime=1.0),
    ]
    episodes = correction_episodes(trace)
    assert len(episodes) == 1
    assert episodes[0].count == 1


def test_no_failure_trace_has_no_episodes():
    trace = [entry(float(i), "insertion", seq=i) for i in range(10)]
    assert tentative_episodes(trace) == []
    assert correction_episodes(trace) == []


def test_output_gaps_ignore_corrections():
    gaps = output_gaps(failure_trace(), threshold=1.5)
    # Two gaps in new data: the silence when the failure starts and the pause
    # while corrections (which re-cover old stimes and therefore do not count
    # as new data) are streamed out.  The corrections themselves must not
    # close either gap early.
    assert len(gaps) == 2
    assert gaps[0] == (4.0, 7.0)
    assert gaps[1][1] == 13.0
    assert all(end - start >= 2.0 for start, end in gaps)


def test_analyze_trace_summary():
    analysis = analyze_trace(failure_trace())
    assert analysis.had_failure
    assert analysis.recovered
    assert analysis.total_tentative == 5
    assert analysis.total_rec_done == 1
    assert analysis.first_tentative_at == 7.0
    assert analysis.last_correction_at == 12.6
    assert analysis.max_gap >= 2.0


def test_analyze_trace_without_failure():
    trace = [entry(float(i), "insertion", seq=i) for i in range(3)]
    analysis = analyze_trace(trace)
    assert not analysis.had_failure
    assert analysis.recovered
    assert analysis.first_tentative_at is None
