"""The split's load history, checked row by row at every planning point.

``Deployment.observed_bucket_loads`` counts the stable rows a split replica
has truncated (as they are dropped) plus those it still retains, bucketed
through the route column the shard filters share.  The reference here sees
the same rows one at a time and buckets each through
``spec.bucket_of(spec.key_of(values))``.  Neither scenario crashes a split
replica, so both replicas' histories are the whole stable stream and must
read the same.
"""

from collections import Counter

import pytest

from repro.deploy import Deployment
from repro.spe.tuples import STABLE
from repro.workloads.catalogue import CATALOGUE


def stable_payloads(block):
    return [values for code, values in zip(block.codes, block.mappings()) if code == STABLE]


@pytest.mark.parametrize("entry", ["shard4-rebalance", "shard2-autoscale"])
def test_observed_bucket_loads_match_a_row_by_row_count(entry, monkeypatch):
    runtime = CATALOGUE[entry]().build()
    deployment = runtime.deployment
    producer = deployment.placement.shard_producer
    stream = deployment.placement.node_plan(producer).output_stream
    managers = {
        replica.endpoint: replica.data_path.output(stream)
        for replica in deployment.node_group(producer)
    }
    truncated = {endpoint: [] for endpoint in managers}
    for endpoint, manager in managers.items():
        observer = manager.truncation_observer

        def record(dropped, rows=truncated[endpoint], observer=observer):
            rows.extend(stable_payloads(dropped))
            observer(dropped)

        manager.truncation_observer = record

    observed_bucket_loads = Deployment.observed_bucket_loads
    checked = []

    def checked_loads(self):
        loads = observed_bucket_loads(self)
        spec = self.current_assignment.spec
        for endpoint, manager in managers.items():
            history = truncated[endpoint] + stable_payloads(manager.buffered_items())
            expected = Counter(spec.bucket_of(spec.key_of(values)) for values in history)
            assert loads == expected, endpoint
        # Both halves of the history are exercised: dropped and retained rows.
        checked.append(min(len(rows) for rows in truncated.values()))
        return loads

    monkeypatch.setattr(Deployment, "observed_bucket_loads", checked_loads)
    runtime.run()
    assert checked, "the scenario never planned against observed loads"
    assert all(checked), "a split replica had truncated nothing at a planning point"
