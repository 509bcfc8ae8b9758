"""Checkpoint/redo reconciliation (``repro.core.reconcile.Reconciler``).

Unit cases drive one hand-built node through begin / step / finish / abort
by calling the redo step directly; the last case crashes a replica in the
middle of a real reconciliation and checks that it stays down (Fig. 5 has no
transition for a crashed node), then rejoins through UP_FAILURE with the
same stable output as its partner.
"""

import pytest

from repro.config import DPCConfig, SimulationConfig
from repro.core.node import ProcessingNode
from repro.core.protocol import DATA, DataBatch
from repro.core.states import NodeState
from repro.runtime import ScenarioSpec
from repro.sim.cluster import merge_diagram
from repro.sim.event_loop import Simulator
from repro.sim.network import Message, Network
from repro.spe.operators.sunion import SUnion
from repro.spe.tuples import REC_DONE, StreamTuple


def reconciling_node(redo_rate):
    """A node in STABILIZATION whose redo buffer holds source tuples 0..5.

    With ``batch_interval = 0.1`` a redo step may take ``redo_rate / 10``
    tuples.
    """
    sim = Simulator()
    net = Network(sim, default_latency=0.001)
    node = ProcessingNode(
        name="node1",
        diagram=merge_diagram("node1", ["in"], "out", bucket_size=0.1),
        simulator=sim,
        network=net,
        config=DPCConfig(redo_rate=redo_rate),
        sim_config=SimulationConfig(batch_interval=0.1),
    )
    node.register_input_stream("in", producers=["src"], source_producers=["src"])
    node.on_input_failure("in", 0.0)
    node.cm.set_state(NodeState.UP_FAILURE)
    tuples = [StreamTuple.insertion(i, 0.01 * i, {"seq": i}) for i in range(6)]
    batch = DataBatch.of("in", tuples, producer="src")
    node._on_message(Message("src", node.endpoint, DATA, batch, 0.1), now=0.1)
    node.start_reconciliation(0.2)
    assert node.state is NodeState.STABILIZATION and node.reconciler.active
    return node


def buffered_ids(node):
    return [item.tuple_id for item in node.cm.monitor("in").stable_buffer]


def held(node):
    return [op.hold_buckets for op in node.diagram if isinstance(op, SUnion)]


def test_abort_keeps_the_unredone_suffix_for_the_next_redo():
    node = reconciling_node(redo_rate=20.0)
    reconciler = node.reconciler
    reconciler.step(0.3)
    assert reconciler.positions == {"in": 2}
    # A new failure that has not healed arrives mid-redo.
    monitor = node.cm.monitor("in")
    monitor.failed = True
    monitor.last_boundary_arrival = -100.0
    reconciler.step(0.4)
    assert node.reconciliations_aborted == 1
    assert node.state is NodeState.UP_FAILURE
    assert not reconciler.active and reconciler.positions == {}
    # The new checkpoint reflects tuples 0 and 1; the rest stays buffered.
    assert node.checkpoints_taken == 2
    assert reconciler.checkpoint.created_at == 0.4
    assert buffered_ids(node) == [2, 3, 4, 5]
    assert all(held(node))


def test_finish_with_a_failed_input_reenters_up_failure():
    node = reconciling_node(redo_rate=1000.0)
    reconciler = node.reconciler
    first = reconciler.checkpoint
    # Boundaries went silent during the redo: the input fails again.
    node.cm.monitor("in").last_boundary_arrival = -100.0
    reconciler.step(0.3)
    assert node.reconciliations_completed == 1
    assert node.state is NodeState.UP_FAILURE
    assert node.cm.monitor("in").failed
    assert reconciler.checkpoint is not first and reconciler.checkpoint.created_at == 0.3
    assert node.checkpoints_taken == 2
    assert buffered_ids(node) == []
    assert all(held(node))


def test_finish_with_healthy_inputs_is_stable():
    node = reconciling_node(redo_rate=1000.0)
    node.cm.monitor("in").last_boundary_arrival = 0.25
    node.reconciler.step(0.3)
    assert node.state is NodeState.STABLE
    assert node.reconciler.checkpoint is None
    assert node.checkpoints_taken == 1


@pytest.mark.parametrize("stop", ["crash", "retire"])
def test_a_stopped_replica_redoes_nothing(stop):
    node = reconciling_node(redo_rate=20.0)
    processed = node.engine.tuples_processed
    getattr(node, stop)()
    node.reconciler.step(0.3)
    assert node.engine.tuples_processed == processed
    assert node.state is NodeState.STABILIZATION
    assert node.reconciliations_completed == node.reconciliations_aborted == 0


def test_recovery_finishes_the_redo_a_crash_cut_short():
    node = reconciling_node(redo_rate=20.0)
    node.reconciler.step(0.3)
    assert node.reconciler.positions == {"in": 2}
    processed = node.engine.tuples_processed
    node.crash()
    # The input went silent while the node was down.
    node.cm.monitor("in").last_boundary_arrival = -100.0
    node.recover()
    assert node.reconciliations_completed == 1 and node.reconciliations_aborted == 0
    assert node.state is NodeState.UP_FAILURE and node.cm.monitor("in").failed
    assert buffered_ids(node) == []
    assert not any(soutput.is_reconciling for soutput in node.engine.soutputs())
    # The rest of the buffer was redone, and the burst closed with a REC_DONE
    # (no boundary arrived, so no bucket stabilized).
    assert node.engine.tuples_processed == processed + 4
    assert node.data_path.output("out").snapshot_state()["buffer"].codes == bytes([REC_DONE])


@pytest.mark.parametrize("checkpoint_interval", [2.0, None])
def test_crash_mid_reconciliation_stays_down_until_recovery(checkpoint_interval):
    """The client's replica crashes at 13.2 s while redoing a healed disconnect."""
    spec = (
        ScenarioSpec.chain(
            1,
            name="mid-correction-crash",
            aggregate_rate=60.0,
            seed=1,
            warmup=5.0,
            settle=35.0,
            checkpoint_interval=checkpoint_interval,
        )
        .with_failure("disconnect", start=5.0, duration=8.0, stream_index=0)
        .with_failure("crash", start=13.2, duration=5.0, node="node1", node_replica=0)
    )
    runtime = spec.build().start()
    simulator = runtime.cluster.simulator
    node = runtime.node("node1", 0)
    runtime.run_for(13.2 + 1e-6)
    assert node._crashed and node.state is NodeState.STABILIZATION
    processed = node.engine.tuples_processed
    runtime.run_for(18.2 - 1e-6 - simulator.now)
    assert node._crashed
    assert node.engine.tuples_processed == processed
    assert not [t for t, _ in node.cm.state_history if 13.2 + 1e-6 < t < 18.2 - 1e-6]
    runtime.run_for(spec.total_duration() - simulator.now)
    assert node.state is NodeState.STABLE
    assert runtime.eventually_consistent()
    assert not any(soutput.is_reconciling for soutput in node.engine.soutputs())
    # Nothing the redo had left was lost: both replicas end on the same stable stream.
    partner = runtime.node("node1", 1)
    for stream in node.diagram.output_streams:
        assert node.data_path.output(stream).stable_seq == partner.data_path.output(stream).stable_seq
