"""Tests for the qualitative shape checks."""

from repro.analysis.comparison import (
    check_flat,
    check_monotonic,
    check_within,
)


def test_check_within_passes_and_fails():
    assert check_within("ok", 2.9, 3.0).passed
    assert check_within("ok with slack", 3.4, 3.0, slack=0.5).passed
    assert not check_within("too slow", 3.6, 3.0, slack=0.5).passed


def test_check_flat():
    assert check_flat("flat", [2.8, 2.9, 2.85]).passed
    assert not check_flat("not flat", [2.0, 4.0]).passed
    assert check_flat("with abs tolerance", [0.1, 0.3], absolute_tolerance=0.25).passed
    assert not check_flat("empty", []).passed


def test_check_monotonic_increasing_and_decreasing():
    assert check_monotonic("up", [1, 2, 3]).passed
    assert not check_monotonic("not up", [1, 3, 2]).passed
    assert check_monotonic("down", [3, 2, 1], increasing=False).passed
    assert check_monotonic("noisy up", [1.0, 0.95, 2.0], tolerance=0.1).passed
    assert check_monotonic("single", [1.0]).passed


def test_shape_check_row_format():
    check = check_within("latency", 2.0, 3.0)
    assert check.row().startswith("[PASS] latency")
    assert "[FAIL]" in check_within("latency", 5.0, 3.0).row()
