"""Ablation (Section 8.1): buffer management.

The paper proposes truncating output buffers as downstream neighbors
acknowledge data, and bounding them for convergent-capable diagrams.  This
benchmark measures the output-buffer footprint with and without the
checkpoint acknowledgments that drive truncation during a failure-free run,
and verifies that truncation keeps the buffer bounded without affecting what
the client receives.
"""

from __future__ import annotations

from conftest import print_results

from repro.experiments import buffer_bound_run


def _run(truncate: bool) -> dict:
    result = buffer_bound_run(
        max_output_tuples=None,
        block_on_full=True,
        aggregate_rate=150.0,
        duration=30.0,
        checkpoint_interval=1.0 if truncate else None,
    )
    return {
        "buffered": result.buffered_tuples,
        "stable_received": result.client_stable,
        "proc_new": result.proc_new,
    }


def test_ablation_buffer_truncation(run_once):
    results = run_once(lambda: {"kept": _run(False), "truncated": _run(True)})
    kept, truncated = results["kept"], results["truncated"]
    print_results(
        "Ablation: output-buffer truncation (Section 8.1)",
        [
            f"without truncation: buffered={kept['buffered']} tuples, client stable={kept['stable_received']}",
            f"with truncation:    buffered={truncated['buffered']} tuples, client stable={truncated['stable_received']}",
        ],
    )
    # Truncation keeps the buffer an order of magnitude smaller ...
    assert truncated["buffered"] < kept["buffered"] / 5
    # ... without changing what the client receives.
    assert abs(truncated["stable_received"] - kept["stable_received"]) <= kept["stable_received"] * 0.05
