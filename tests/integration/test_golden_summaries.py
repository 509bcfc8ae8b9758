"""Golden-summary equivalence tests for the data plane.

The hot-path work (slotted tuples, batch-at-a-time operator loops,
allocation-free transforms) must be *behaviour-preserving*: a refactor of the
tuple model or the operator inner loops may change how fast a scenario runs
but never what it computes.  These tests pin that down: for every scenario
in ``SCENARIOS`` (ten entries of :mod:`repro.workloads.catalogue`) at fixed
seeds, the full ``runtime.summary()`` dictionary and every sink's merged
ledger must reproduce the digests checked in at ``GOLDEN_summaries.json``
byte-for-byte.  The summary covers every node's statistics (tuples sent,
output buffers), each rejoin's recovery record and each handoff's shipped
state, so those numbers are pinned exactly too.

Regenerate them *only* for a change that deliberately alters scenario
behaviour::

    PYTHONPATH=src python tests/integration/test_golden_summaries.py --write

The regeneration prints, per scenario and seed, which digests changed and the
old -> new value of every changed headline field: the explanation a
regeneration owes its reviewers.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.workloads.catalogue import CATALOGUE

GOLDEN_PATH = Path(__file__).with_name("GOLDEN_summaries.json")

SEEDS = (1, 2)

#: The fields a digest repeats in the clear (everything but the two hashes).
HEADLINES = ("proc_new", "total_stable", "total_tentative", "events_fired",
             "eventually_consistent")

#: Catalogue entries pinned at each seed: chain disconnect, windowed aggregate
#: (bursty rate, pane-level reconciliation), diamond branch kill, shard kill,
#: rebalance, checkpoint and full-replay recovery, two of the registry's own
#: runs -- the failure-free shard(4) of ``shard-throughput`` and the elastic
#: round trip of ``autoscale`` -- and the benchmark's depth-4 DELAY chain
#: through stabilization and redo, at its quick size.
SCENARIOS = {
    name: CATALOGUE[name]
    for name in (
        "chain2-disconnect",
        "aggregate-disconnect",
        "diamond-branch-crash",
        "shard4-shard-kill",
        "shard4-rebalance",
        "recovery-longfail",
        "recovery-replay",
        "shard4-steady",
        "shard2-autoscale",
        "sim-chain4-disconnect",
    )
}
#: Catalogue parameters of the entries not pinned at their defaults.
POINTS = {"sim-chain4-disconnect": {"quick": True}}


def build_scenario(name: str, seed: int):
    """The pinned spec of ``name`` at ``seed``."""
    return SCENARIOS[name](seed=seed, **POINTS.get(name, {}))


# --------------------------------------------------------------------------- digests
def _sha256(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _ledger_rows(client) -> list:
    """Canonical, JSON-stable view of everything in a client's ledger."""
    return [
        [
            item.tuple_type.value,
            item.tuple_id,
            repr(item.stime),
            item.stable_seq,
            sorted((key, repr(value)) for key, value in item.values.items()),
        ]
        for item in client.metrics.consistency.ledger
    ]


def scenario_digest(runtime) -> dict:
    """Everything the golden check pins for one completed runtime.

    ``summary_sha256`` covers the whole ``runtime.summary()`` tree (source
    counters, per-node statistics, client metrics, events fired, consistency
    verdicts); ``ledger_sha256`` covers each sink's merged ledger tuple by
    tuple (type, id, stime, stable_seq, payload).  The loose headline fields
    are repeated in the clear so a mismatch is diagnosable without rerunning.
    """
    summary = runtime.summary()
    ledgers = {
        client.name: _sha256(json.dumps(_ledger_rows(client), sort_keys=True))
        for client in runtime.clients
    }
    primary = runtime.client.summary()
    return {
        "summary_sha256": _sha256(json.dumps(summary, sort_keys=True, default=str)),
        "ledger_sha256": ledgers,
        "proc_new": primary["proc_new"],
        "total_stable": primary["total_stable"],
        "total_tentative": primary["total_tentative"],
        "events_fired": summary["events_fired"],
        "eventually_consistent": summary["eventually_consistent"],
    }


def compute_goldens() -> dict:
    return {
        name: {str(seed): scenario_digest(build_scenario(name, seed).run()) for seed in SEEDS}
        for name in SCENARIOS
    }


def load_goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def describe_changes(old: dict, new: dict) -> list[str]:
    """One line per scenario and seed of ``new``: what differs from ``old``.

    Names the digests that changed (``ledger_sha256`` per sink) and gives the
    old -> new value of each changed headline field.
    """
    lines = []
    for name in sorted(new):
        for seed in sorted(new[name]):
            before, after = old.get(name, {}).get(seed), new[name][seed]
            if before is None:
                lines.append(f"{name} seed={seed}: new")
                continue
            digests = ["summary_sha256"] if before["summary_sha256"] != after["summary_sha256"] else []
            digests += [
                f"ledger_sha256[{sink}]"
                for sink in sorted(set(before["ledger_sha256"]) | set(after["ledger_sha256"]))
                if before["ledger_sha256"].get(sink) != after["ledger_sha256"].get(sink)
            ]
            fields = [
                f"{key} {before[key]!r} -> {after[key]!r}"
                for key in HEADLINES
                if before[key] != after[key]
            ]
            changes = [f"{', '.join(digests)} changed"] if digests else []
            changes += fields or (["headline fields unchanged"] if digests else [])
            lines.append(f"{name} seed={seed}: {'; '.join(changes) or 'unchanged'}")
    lines += [f"{name}: removed" for name in sorted(set(old) - set(new))]
    return lines


# --------------------------------------------------------------------------- tests
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", SEEDS)
def test_scenario_reproduces_golden_digest(scenario, seed):
    golden = load_goldens()[scenario][str(seed)]
    current = scenario_digest(build_scenario(scenario, seed).run())
    # Compare the headline fields first: they localize a mismatch far better
    # than two differing SHA-256 strings.
    for key in HEADLINES:
        assert current[key] == golden[key], f"{scenario} seed={seed}: {key}"
    assert current["ledger_sha256"] == golden["ledger_sha256"], f"{scenario} seed={seed}"
    assert current["summary_sha256"] == golden["summary_sha256"], f"{scenario} seed={seed}"


def test_describe_changes_names_changed_digests_and_headlines():
    digest = {
        "summary_sha256": "a", "ledger_sha256": {"client": "l"}, "proc_new": 0.3,
        "total_stable": 10, "total_tentative": 0, "events_fired": 100,
        "eventually_consistent": True,
    }
    summary_only = dict(digest, summary_sha256="b")
    behaviour = dict(summary_only, ledger_sha256={"client": "m"}, events_fired=101)
    old = {"x": {"1": digest, "2": digest}, "gone": {"1": digest}}
    new = {"x": {"1": summary_only, "2": behaviour}, "y": {"1": digest}}
    assert describe_changes(old, new) == [
        "x seed=1: summary_sha256 changed; headline fields unchanged",
        "x seed=2: summary_sha256, ledger_sha256[client] changed; events_fired 100 -> 101",
        "y seed=1: new",
        "gone: removed",
    ]
    assert describe_changes(old, old)[0] == "gone seed=1: unchanged"


def test_golden_file_covers_every_scenario_and_seed():
    golden = load_goldens()
    assert sorted(golden) == sorted(SCENARIOS)
    for name in SCENARIOS:
        assert sorted(golden[name]) == sorted(str(seed) for seed in SEEDS)


if __name__ == "__main__":
    import sys

    if "--write" not in sys.argv:
        sys.exit("refusing to regenerate goldens without --write")
    previous = load_goldens() if GOLDEN_PATH.exists() else {}
    goldens = compute_goldens()
    for line in describe_changes(previous, goldens):
        print(line)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
