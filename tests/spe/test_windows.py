"""Unit tests for window specifications."""

import pytest

from repro.errors import ConfigurationError
from repro.spe.windows import PaneAssignment, WindowSpec


def test_tumbling_window_indices():
    spec = WindowSpec.tumbling(10.0)
    assert list(spec.window_indices(0.0)) == [0]
    assert list(spec.window_indices(9.999)) == [0]
    assert list(spec.window_indices(10.0)) == [1]
    assert spec.window_start(2) == 20.0
    assert spec.window_end(2) == 30.0


def test_sliding_window_overlap():
    spec = WindowSpec.sliding(size=10.0, slide=5.0)
    # stime 12 belongs to windows [5,15) and [10,20)
    assert list(spec.window_indices(12.0)) == [1, 2]
    # stime 2 belongs only to [0, 10) (window index -? ) and [-5,5)
    assert list(spec.window_indices(2.0)) == [-1, 0]


def test_invalid_window_parameters():
    with pytest.raises(ConfigurationError):
        WindowSpec(size=0.0)
    with pytest.raises(ConfigurationError):
        WindowSpec(size=1.0, slide=0.0)


def test_windows_closed_by_watermark_advance():
    spec = WindowSpec.tumbling(10.0)
    closed = list(spec.windows_closed_by(float("-inf"), 25.0))
    assert closed == [0, 1]
    # Advancing further only closes the new ones.
    assert list(spec.windows_closed_by(25.0, 40.0)) == [2, 3]
    # No double-closing at exact edges.
    assert list(spec.windows_closed_by(40.0, 40.0)) == []


def test_is_closed():
    spec = WindowSpec.tumbling(5.0)
    assert spec.is_closed(0, 5.0)
    assert not spec.is_closed(1, 5.0)


def test_contains():
    spec = WindowSpec.sliding(size=4.0, slide=2.0, origin=1.0)
    assert spec.contains(0, 1.0)
    assert spec.contains(0, 4.99)
    assert not spec.contains(0, 5.0)


# --------------------------------------------------------------------------- panes
def test_pane_assignment_is_the_exact_gcd():
    spec = WindowSpec.sliding(size=60.0, slide=10.0)
    assert spec.pane == PaneAssignment(size=10.0, per_slide=1, per_window=6)
    spec = WindowSpec.sliding(size=100.0, slide=1.0)
    assert spec.pane == PaneAssignment(size=1.0, per_slide=1, per_window=100)
    spec = WindowSpec.sliding(size=7.0, slide=3.0)
    assert spec.pane == PaneAssignment(size=1.0, per_slide=3, per_window=7)
    assert WindowSpec.tumbling(5.0).pane == PaneAssignment(size=5.0, per_slide=1, per_window=1)


def test_pane_attribute_does_not_affect_equality_or_hashing():
    a = WindowSpec.sliding(size=10.0, slide=5.0)
    b = WindowSpec.sliding(size=10.0, slide=5.0)
    assert a == b and hash(a) == hash(b)


def test_window_panes_and_pane_windows_are_inverse():
    spec = WindowSpec.sliding(size=7.0, slide=3.0)
    for window in range(-4, 5):
        for pane in spec.window_panes(window):
            assert window in spec.pane_windows(pane)
    for pane in range(-12, 13):
        for window in spec.pane_windows(pane):
            assert pane in spec.window_panes(window)


def test_pane_membership_matches_float_window_membership():
    for size, slide in ((10.0, 5.0), (7.0, 3.0), (1.0, 0.25), (60.0, 10.0)):
        spec = WindowSpec.sliding(size=size, slide=slide)
        for i in range(-200, 400):
            stime = i * 0.15
            pane = spec.pane_index(stime)
            assert spec.pane_start(pane) <= stime < spec.pane_start(pane + 1)
            assert list(spec.window_indices(stime)) == [
                k for k in spec.pane_windows(pane)
            ]
            for k in spec.window_indices(stime):
                assert spec.contains(k, stime)


def test_window_boundaries_sit_on_the_pane_grid():
    for size, slide in ((10.0, 5.0), (7.0, 3.0), (1.0, 0.25), (100.0, 1.0)):
        spec = WindowSpec.sliding(size=size, slide=slide)
        pane = spec.pane
        for k in range(-20, 20):
            assert spec.window_start(k) == spec.pane_start(k * pane.per_slide)
            assert spec.window_end(k) == spec.pane_start(k * pane.per_slide + pane.per_window)
