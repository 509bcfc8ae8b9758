"""One placement walk for both backends: a worker's slice equals the full walk.

The simulator runs :func:`repro.deploy.wiring.wire_placement` hosting every
endpoint; each live worker runs it hosting only its own.  Nothing is forked
here: the walk runs once per worker's hosted set on an in-process simulator,
and every registration it makes must equal -- in order -- what the full walk
made on the same endpoint.  The elastic attach path goes through the same
build and per-edge functions, so a scaled-out deployment must be wired like
a fresh compile of the larger topology.
"""

import pytest

from repro.deploy.wiring import wire_placement
from repro.live.supervisor import hosted_by_worker
from repro.runtime import ScenarioSpec
from repro.sim.event_loop import Simulator
from repro.sim.network import Network
from repro.statexfer import PeerRegistry


def monitors(cm):
    """stream -> producers, source producers, filter name."""
    return [
        (
            stream,
            list(monitor.producers),
            [name for name, info in monitor.producers.items() if info.is_source],
            getattr(monitor.subscription_filter, "name", None),
        )
        for stream, monitor in cm.monitors.items()
    ]


def registrations(node):
    """Everything the walk registered on one replica, in registration order."""
    outputs = [node.data_path.output(stream) for stream in node.data_path.output_streams()]
    return {
        "monitors": monitors(node.cm),
        "subscribers": [
            (manager.stream, s.subscriber, getattr(s.filter, "name", None))
            for manager in outputs
            for s in manager._subscriptions.values()
        ],
        "consumers": [(manager.stream, list(manager._acks)) for manager in outputs],
        "watchers": list(node._state_watchers),
    }


SPECS = {
    "chain2x2": lambda: ScenarioSpec.chain(2, replicas_per_node=2, seed=1),
    "diamond": lambda: ScenarioSpec.diamond(seed=1),
    "shard4": lambda: ScenarioSpec.sharded(shards=4, seed=1),
}


@pytest.mark.parametrize("shape", sorted(SPECS))
def test_every_workers_slice_is_wired_like_the_full_walk(shape):
    runtime = SPECS[shape]().build()
    placement, full = runtime.placement, runtime.deployment.wiring
    built: list[str] = []
    for endpoints in hosted_by_worker(placement).values():
        simulator = Simulator()
        part = wire_placement(
            placement,
            simulator,
            Network(simulator),
            PeerRegistry(),
            set(endpoints).__contains__,
            full.options,
        )
        hosted = list(part.sources) + list(part.nodes) + list(part.clients)
        assert sorted(hosted) == sorted(endpoints)
        built += hosted
        # Filters cross the wire by name: every worker holds all of them.
        assert [(name, f.name) for name, f in part.filters.items()] == [
            (name, f.name) for name, f in full.filters.items()
        ]
        for endpoint, node in part.nodes.items():
            assert registrations(node) == registrations(full.nodes[endpoint]), endpoint
        for name, source in part.sources.items():
            assert list(source._subscribers) == list(full.sources[name]._subscribers)
        for name, client in part.clients.items():
            assert monitors(client.cm) == monitors(full.clients[name].cm)
    # Every endpoint is built by exactly one worker.
    assert sorted(built) == sorted(list(full.sources) + list(full.nodes) + list(full.clients))
    # Consumers never probe: every producer replica pushes its state to every
    # consumer replica of each of its edges.
    for edge in placement.subscriptions:
        if edge.kind == "source->node":
            continue
        for producer in full.replicas[edge.producer]:
            watchers = full.nodes[producer]._state_watchers
            assert set(full.replicas[edge.consumer]) <= set(watchers), (edge, producer)


def test_a_scaled_out_fragment_is_wired_like_a_fresh_compile():
    def spec(shards):
        return ScenarioSpec.sharded(
            shards=shards,
            skew=1.2,
            aggregate_rate=120.0,
            warmup=12.0,
            settle=4.0,
            seed=1,
        )

    runtime = spec(2).build()
    runtime.start()
    runtime.run_for(12.0)
    assert runtime.deployment.scale_out()["scale_out"]["added"] == ["shard3"]
    grown = runtime.deployment.wiring
    compiled = spec(3).build()
    fresh = compiled.deployment.wiring
    # The filter predicate aside (all-reject until the cut installs it), the
    # new fragment -- and the split and merge it was attached to -- carry
    # exactly the registrations a fresh compile of shard(3) makes.
    assert sorted(grown.nodes) == sorted(fresh.nodes)
    assert sorted(grown.filters) == sorted(fresh.filters)
    for endpoint, node in grown.nodes.items():
        assert registrations(node) == registrations(fresh.nodes[endpoint]), endpoint
    assert runtime.deployment.placement.diff(compiled.placement) == []
