"""Shared fixtures for the benchmark harness.

Every benchmark runs its experiment once (``benchmark.pedantic`` with a single
round) and prints its rows; the paper's tables and figures are not here but in
``python -m repro report`` (see ``repro.analysis.registry``).

Set ``REPRO_BENCH_SCALE=full`` in the environment to run the full parameter
sweeps instead of the reduced defaults.
"""

from __future__ import annotations

import os

import pytest


def full_sweep() -> bool:
    return os.environ.get("REPRO_BENCH_SCALE", "").lower() == "full"


@pytest.fixture
def run_once(benchmark):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


def print_results(title: str, lines) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
    for line in lines:
        print(line)
