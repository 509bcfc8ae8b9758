"""Tier-1 guard for the block data path: rows are not built on the stable spine.

A failure-free shard(4) run moves every stable tuple through six node hops
(two replicas each of split, shard, merge).  Held as column blocks, none of
those hops builds a ``StreamTuple``; a per-row loop re-introduced anywhere on
that path shows up as at least one construction per tuple and hop.  cProfile
call counts repeat exactly for a seed, so this fails in seconds where a timing
benchmark would drown in host noise.
"""

from repro.workloads.catalogue import CATALOGUE

#: Calls per source tuple: 23.85 on Python 3.11, plus 3 % (the row-at-a-time
#: data path read 242.5, 54.65 when each of the four shard filters ran its
#: predicate on every row, and 31.88 while payloads were row mappings and the
#: route read each row's key with one counted ``dict.get``).  A per-row loop
#: on one hop adds several calls per tuple.
CALLS_PER_SOURCE_TUPLE = 24.56


def test_stable_spine_builds_no_row_per_tuple():
    # The end-to-end benchmark's sim-shard4-steady at its quick size (3 s).
    runtime = CATALOGUE["sim-shard4-steady"](quick=True).build()
    _stats, counters = runtime.run_profiled()
    print(f"\nshard(4) per source tuple: {counters}")
    assert runtime.eventually_consistent()
    # The row-at-a-time data path read 21.1 here; the block path builds none,
    # and no payload mapping either: routing reads the key column.
    assert counters["row_constructions_per_source_tuple"] == 0
    assert counters["mapping_constructions_per_source_tuple"] == 0
    assert counters["calls_per_source_tuple"] <= CALLS_PER_SOURCE_TUPLE, counters
