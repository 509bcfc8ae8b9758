"""Property: a subscription filter's route-column select is its per-row predicate.

A shard filter selects a slice by the spec's route column (one bucket per
row, memoized per key, shared by every fragment of the spec).  Whatever the
spec, the assignment (drained shards included), the mix of data and control
rows and the epoch cuts inside the slice, every fragment's ``select`` must
keep exactly the rows ``code > 1 or predicate(values)`` keeps, with the
predicate of the epoch governing the row's stime evaluated row by row
(``ShardSlice.__call__`` hashes each key afresh).  Every data row then lands
in exactly one fragment and every control row in all of them.

A partition filter (the diamond's branches) selects the same way by
``(int(value) // group) % modulus``; the per-row reference is written below,
and the diamond's two branches route each pending slice once between them.
"""

from bisect import bisect_right
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.data_path import OutputStreamManager
from repro.deploy import SubscriptionFilter
from repro.sharding import PartitionSlice, PartitionSpec, ShardAssignment, ShardPlanner, ShardSpec
from repro.spe.tuples import StreamTuple, TupleBlock
from repro.topology import Topology

COMMON = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])

numeric_keys = st.one_of(
    st.integers(-1000, 10**7), st.floats(-1e6, 1e6, allow_nan=False), st.booleans()
)
#: Group 1 also shards on opaque keys (the hot-key workloads).
opaque_keys = st.one_of(numeric_keys, st.text(max_size=4), st.none())


@st.composite
def assignments(draw, spec: ShardSpec) -> ShardAssignment:
    """The planner's assignment, some bucket moves, and perhaps a drained shard."""
    assignment = ShardPlanner(spec).plan()
    for _ in range(draw(st.integers(0, 4))):
        bucket = draw(st.integers(0, spec.buckets - 1))
        source = assignment.shard_of_bucket(bucket)
        if len(assignment.buckets_by_shard[source]) > 1:
            assignment = assignment.move(bucket, draw(st.integers(0, spec.shards - 1)))
    if spec.shards > 1 and draw(st.booleans()):
        assignment = ShardPlanner(spec).drain(assignment, draw(st.integers(0, spec.shards - 1))).after
    return assignment


@st.composite
def rows(draw, spec: ShardSpec | PartitionSpec) -> list[StreamTuple]:
    keys = opaque_keys if isinstance(spec, ShardSpec) and spec.group == 1 else numeric_keys
    made = []
    for tuple_id in range(draw(st.integers(0, 30))):
        stime = draw(st.floats(0.0, 10.0))
        kind = draw(st.sampled_from(["stable"] * 4 + ["tentative", "boundary", "undo", "rec_done"]))
        if kind in ("stable", "tentative"):
            values = draw(st.one_of(st.builds(lambda k: {spec.key: k, "v": 1}, keys), st.just({})))
            make = StreamTuple.insertion if kind == "stable" else StreamTuple.tentative
            made.append(make(tuple_id, stime, values))
        elif kind == "undo":
            made.append(StreamTuple.undo(tuple_id, stime, undo_from_id=tuple_id - 1))
        else:
            made.append(getattr(StreamTuple, kind)(tuple_id, stime))
    return made


@st.composite
def cases(draw):
    shards = draw(st.integers(1, 8))
    spec = ShardSpec(
        shards=shards,
        buckets=draw(st.sampled_from([b for b in (8, 13, 16, 64) if b >= shards])),
        group=draw(st.integers(1, 4)),
    )
    epochs = [(float("-inf"), draw(assignments(spec)))]
    for cut in sorted(set(draw(st.lists(st.floats(0.0, 10.0), max_size=3)))):
        epochs.append((cut, draw(assignments(spec))))
    return spec, epochs, draw(rows(spec))


@COMMON
@given(cases(), st.booleans())
def test_route_column_select_is_the_per_row_predicate(case, shared_columns):
    spec, epochs, made = case
    block = TupleBlock.of(made)
    cuts = [cut for cut, _ in epochs]
    columns = {} if shared_columns else None
    landed = {item.tuple_id: 0 for item in made}
    for shard in range(spec.shards):
        filt = SubscriptionFilter(epochs[0][1].predicate(shard), name=f"shard{shard}.slice")
        for cut, assignment in epochs[1:]:
            filt.advance(cut, assignment.predicate(shard))
        expected = [
            item.tuple_id
            for item in made
            if not item.is_data
            or epochs[bisect_right(cuts, item.stime) - 1][1].predicate(shard)(item.values)
        ]
        selected = filt.select(block, columns)
        assert list(selected.ids) == expected
        assert list(selected.codes) == [block.codes[block.ids.index(i)] for i in expected]
        for tuple_id in expected:
            landed[tuple_id] += 1
    for item in made:
        assert landed[item.tuple_id] == (1 if item.is_data else spec.shards), item


def in_partition(spec: PartitionSpec, keep: frozenset, values: dict) -> bool:
    """The per-row reference: a missing attribute reads 0."""
    return int(values.get(spec.key, 0)) // spec.group % spec.modulus in keep


@st.composite
def partition_cases(draw):
    spec = PartitionSpec(modulus=draw(st.integers(1, 4)), group=draw(st.integers(1, 4)))
    keeps = st.frozensets(st.integers(0, spec.modulus - 1))  # the empty slice included
    epochs = [(float("-inf"), draw(keeps))]
    for cut in sorted(set(draw(st.lists(st.floats(0.0, 10.0), max_size=3)))):
        epochs.append((cut, draw(keeps)))
    return spec, epochs, draw(rows(spec))


@COMMON
@given(partition_cases(), st.booleans())
def test_partition_route_select_is_the_per_row_reference(case, shared_columns):
    spec, epochs, made = case
    block = TupleBlock.of(made)
    cuts = [cut for cut, _ in epochs]
    filt = SubscriptionFilter(PartitionSlice(spec, epochs[0][1]), name="left.slice")
    for cut, keep in epochs[1:]:
        filt.advance(cut, PartitionSlice(spec, keep))
    expected = [
        item.tuple_id
        for item in made
        if not item.is_data
        or in_partition(spec, epochs[bisect_right(cuts, item.stime) - 1][1], item.values)
    ]
    selected = filt.select(block, {} if shared_columns else None)
    assert list(selected.ids) == expected
    assert list(selected.codes) == [block.codes[block.ids.index(i)] for i in expected]


@COMMON
@given(st.data())
def test_diamond_branches_route_each_pending_slice_once(data):
    topology = Topology.diamond(n_input_streams=data.draw(st.integers(1, 4)))
    left, right = topology.node("left").select, topology.node("right").select
    spec = left.spec
    made = sorted(data.draw(rows(spec)), key=lambda item: item.stime)
    routed = []

    def route(partition, block):
        routed.append(block)
        return PartitionSpec.route(partition, block)

    manager = OutputStreamManager("ingest.out", owner="ingest")
    manager.attach_subscriber("plain")
    with mock.patch.object(PartitionSpec, "route", route):
        for slice_ in (left, right):
            filt = SubscriptionFilter(slice_, name=f"{sorted(slice_.keep)}.slice")
            for replica in ("r0", "r1"):
                manager.attach_subscriber(f"{sorted(slice_.keep)}-{replica}", filt)
    manager.append_all(made)
    pending = manager.pending_batches()
    # One route call for both branches (none when nothing is pending).
    assert len(routed) == (1 if made else 0)
    batches = {tuple(sorted(subscribers)): list(items) for items, subscribers in pending}
    physical = batches.get(("plain",), [])
    for slice_ in (left, right):
        members = tuple(f"{sorted(slice_.keep)}-{replica}" for replica in ("r0", "r1"))
        expected = [
            item.tuple_id
            for item in physical
            if not item.is_data or in_partition(spec, slice_.keep, item.values)
        ]
        assert [item.tuple_id for item in batches.get(members, [])] == expected
