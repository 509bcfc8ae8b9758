"""Experiment runners: one entry point per table / figure of the paper.

:mod:`repro.analysis.registry` declares which runner, at which grid, each
experiment id uses (``python -m repro list``); ``python -m repro report``
writes the measured results next to the paper's.
"""

from .harness import (
    ExperimentResult,
    availability_run,
    group_output_counts,
    summarize_run,
)
from .single_node import FIG13_POLICIES, TraceResult, eventual_consistency_trace, fig13, table3
from .chains import CHAIN_POLICIES, FIG19_VARIANTS, fig15, fig16, fig18, fig19_20
from .dags import (
    diamond_branch_failure,
    diamond_spec,
    diamond_sweep,
    fanin_branch_failure,
    fanin_spec,
    fanin_sweep,
)
from .shards import (
    autoscale_run,
    autoscale_sweep,
    chain_throughput_run,
    equivalent_chain_depth,
    rebalance_run,
    rebalance_sweep,
    shard_kill_failure,
    shard_kill_sweep,
    shard_spec,
    shard_throughput_run,
    shard_throughput_sweep,
)
from .overhead import OverheadRow, serialization_overhead, table4, table5
from .ablations import (
    BufferBoundResult,
    DetectionResult,
    RecoveryResult,
    buffer_bound_run,
    crash_failover,
    detection_sweep,
    granularity_run,
    recovery_run,
    recovery_time_sweep,
    replica_sweep,
    stable_ledger_rows,
)

__all__ = [
    "ExperimentResult",
    "availability_run",
    "group_output_counts",
    "summarize_run",
    "autoscale_run",
    "autoscale_sweep",
    "chain_throughput_run",
    "equivalent_chain_depth",
    "rebalance_run",
    "rebalance_sweep",
    "shard_kill_failure",
    "shard_kill_sweep",
    "shard_spec",
    "shard_throughput_run",
    "shard_throughput_sweep",
    "FIG13_POLICIES",
    "TraceResult",
    "eventual_consistency_trace",
    "fig13",
    "table3",
    "CHAIN_POLICIES",
    "FIG19_VARIANTS",
    "diamond_branch_failure",
    "diamond_spec",
    "diamond_sweep",
    "fanin_branch_failure",
    "fanin_spec",
    "fanin_sweep",
    "fig15",
    "fig16",
    "fig18",
    "fig19_20",
    "OverheadRow",
    "serialization_overhead",
    "table4",
    "table5",
    "BufferBoundResult",
    "DetectionResult",
    "RecoveryResult",
    "buffer_bound_run",
    "crash_failover",
    "detection_sweep",
    "granularity_run",
    "recovery_run",
    "recovery_time_sweep",
    "replica_sweep",
    "stable_ledger_rows",
]
