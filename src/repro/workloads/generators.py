"""Synthetic workload generators.

The paper's experiments feed the system with synthetic streams of
sequentially-numbered tuples; its motivating applications are network
monitoring and sensor-based environment monitoring.  This module provides
payload generators for all three, with deterministic content so that every
run (and every replica) sees exactly the same data.
"""

from __future__ import annotations

import bisect
import math
import random
import zlib
from itertools import repeat
from operator import truediv
from typing import Any, Callable, Mapping, Sequence

#: A payload generator makes one tick's payload as columns: given the tick's
#: per-source sequence numbers (a ``range``) and their stimes, one list per
#: attribute, in the rows' key order.  Calls for consecutive ranges concatenate
#: to the call for their union, so the simulator's grid ticks and the live
#: backend's jittered ticks produce one log.
PayloadGenerator = Callable[[range, Sequence[float]], Mapping[str, list]]


def sequential_sequence() -> PayloadGenerator:
    """Tuples numbered 0, 1, 2, ... on a single stream."""

    def generate(sequences: range, stimes: Sequence[float]) -> dict[str, list]:
        return {"seq": list(sequences), "value": list(map(float, sequences))}

    return generate


def interleaved_sequence(stream_index: int, n_streams: int) -> PayloadGenerator:
    """Globally increasing sequence numbers interleaved across ``n_streams``.

    Stream ``i`` produces ``i, i + n, i + 2n, ...`` so that the union of all
    streams, ordered by stime, is the sequence ``0, 1, 2, ...`` -- the shape
    the eventual-consistency experiments of Section 5.1 plot (output tuples
    with sequentially increasing identifiers).
    """
    if not 0 <= stream_index < n_streams:
        raise ValueError(f"stream_index {stream_index} out of range for {n_streams} streams")

    def generate(sequences: range, stimes: Sequence[float]) -> dict[str, list]:
        seqs = range(stream_index, sequences.stop * n_streams, n_streams)[sequences.start :]
        return {
            "seq": list(seqs),
            "value": list(map(float, seqs)),
            "stream": [stream_index] * len(seqs),
        }

    return generate


def _by_column(rows: list[dict[str, Any]]) -> dict[str, list]:
    """Records drawn row by row (the draws stay in row order) as one list per key."""
    return {key: [row[key] for row in rows] for key in rows[0]} if rows else {}


def network_monitoring(stream_index: int, n_streams: int, seed: int = 0) -> PayloadGenerator:
    """Connection records from a network monitor (the paper's lead application).

    Each tuple describes one observed connection: source/destination hosts, a
    destination port, and a byte count.  A small fraction of tuples are marked
    suspicious (probe of a low port from an unusual host), which is what the
    example intrusion-detection query aggregates.
    """
    rng = random.Random(seed * 1000 + stream_index)
    hosts = [f"10.0.{stream_index}.{i}" for i in range(1, 50)]
    attackers = [f"172.16.{stream_index}.{i}" for i in range(1, 5)]

    def record(sequence: int) -> dict[str, Any]:
        suspicious = rng.random() < 0.05
        source = rng.choice(attackers) if suspicious else rng.choice(hosts)
        return {
            "seq": sequence * n_streams + stream_index,
            "monitor": stream_index,
            "src": source,
            "dst": rng.choice(hosts),
            "dst_port": rng.choice([22, 23, 25, 80, 443]) if suspicious else rng.randint(1024, 65535),
            "bytes": rng.randint(40, 1500),
            "suspicious": suspicious,
        }

    def generate(sequences: range, stimes: Sequence[float]) -> dict[str, list]:
        return _by_column([record(sequence) for sequence in sequences])

    return generate


def sensor_readings(stream_index: int, n_streams: int, seed: int = 0) -> PayloadGenerator:
    """Temperature / air-quality readings from a sensor deployment.

    Readings follow a slow sinusoid-free deterministic drift plus seeded
    noise; occasional spikes model the alert conditions the monitoring
    application looks for.
    """
    rng = random.Random(seed * 2000 + stream_index)
    base = 20.0 + stream_index

    def record(sequence: int) -> dict[str, Any]:
        drift = (sequence % 200) / 200.0
        spike = 15.0 if rng.random() < 0.01 else 0.0
        return {
            "seq": sequence * n_streams + stream_index,
            "sensor": stream_index,
            "location": f"zone-{stream_index}",
            "temperature": round(base + drift + rng.gauss(0.0, 0.2) + spike, 3),
            "co2": round(400 + 20 * drift + rng.gauss(0.0, 5.0) + 10 * spike, 1),
        }

    def generate(sequences: range, stimes: Sequence[float]) -> dict[str, list]:
        return _by_column([record(sequence) for sequence in sequences])

    return generate


def hot_key_sequence(
    stream_index: int,
    n_streams: int,
    skew: float = 1.2,
    keys: int = 64,
    seed: int = 0,
) -> PayloadGenerator:
    """Zipfian hot-key workload: interleaved sequence numbers plus a skewed key.

    Every tuple keeps the globally increasing ``seq`` the consistency ledger
    checks, and additionally carries an integer ``key`` drawn from a zipf(s =
    ``skew``) distribution over ``keys`` distinct keys -- rank 0 is the hot
    key.  Two properties matter for sharded deployments:

    * the key is a pure function of the *tick* (the per-source sequence
      number), so the ``n_streams`` tuples sharing an stime all carry the
      same key and a key-sharded deployment never splits a tie group
      (``ShardSpec`` with ``key="key"``, ``group=1``);
    * the draw is crc32-based, so every source, every replica, and every
      rerun of the same ``seed`` sees exactly the same key sequence.

    This is the workload that gives :meth:`ShardPlanner.rebalance` something
    to do: the hot key concentrates load on a single hash bucket, so the
    observed per-bucket loads skew far beyond any tolerance.
    """
    if not 0 <= stream_index < n_streams:
        raise ValueError(f"stream_index {stream_index} out of range for {n_streams} streams")
    if skew <= 0:
        raise ValueError(f"skew must be positive, got {skew}")
    if keys < 1:
        raise ValueError(f"keys must be >= 1, got {keys}")
    weights = [1.0 / (rank + 1) ** skew for rank in range(keys)]
    total = sum(weights)
    cdf: list[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    # The rank past the last cdf entry (a rounding artefact) is the last key.
    ranks = [*range(keys), keys - 1]
    prefix = f"hotkey:{seed}:"

    def generate(sequences: range, stimes: Sequence[float]) -> dict[str, list]:
        seqs = range(stream_index, sequences.stop * n_streams, n_streams)[sequences.start :]
        # One uniform draw per tick, identical across the interleaved sources.
        labels = map(str.encode, map(prefix.__add__, map(str, sequences)))
        draws = map(truediv, map(zlib.crc32, labels), repeat(2**32))
        return {
            "seq": list(seqs),
            "value": list(map(float, seqs)),
            "stream": [stream_index] * len(seqs),
            "key": list(map(ranks.__getitem__, map(bisect.bisect_left, repeat(cdf), draws))),
        }

    return generate


#: A rate profile maps a simulation time to a multiplier of the base rate.
#: Sources evaluate it at each emission; the next tuple follows after
#: ``period / profile(now)`` seconds.  Profiles must stay strictly positive.
RateProfile = Callable[[float], float]


def bursty_rate(
    period: float = 60.0,
    burst_length: float = 10.0,
    burst_factor: float = 4.0,
    base_factor: float = 1.0,
) -> RateProfile:
    """Square-wave rate profile: bursts of ``burst_factor`` x the base rate.

    Every ``period`` seconds the sources spend ``burst_length`` seconds at
    ``burst_factor`` times the base rate and the remainder at
    ``base_factor``.  The profile is a pure function of simulation time, so
    all sources sharing it stay aligned and stime tie groups are preserved.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if not 0 < burst_length < period:
        raise ValueError(f"burst_length must be in (0, {period}), got {burst_length}")
    if burst_factor <= 0 or base_factor <= 0:
        raise ValueError("rate factors must be positive")

    def profile(now: float) -> float:
        return burst_factor if (now % period) < burst_length else base_factor

    return profile


def step_rate(
    at: float,
    factor: float = 2.0,
    until: float | None = None,
    base_factor: float = 1.0,
) -> RateProfile:
    """One load step: ``base_factor`` until ``at``, then ``factor``.

    When ``until`` is given the rate steps back down to ``base_factor`` at
    that time -- the surge-and-subside shape the autoscale experiments use to
    drive one scale-out and one scale-in from a single profile.  Like every
    profile, it is a pure function of the emission stime, so the interleaved
    sources stay aligned and stime tie groups are preserved.
    """
    if at < 0:
        raise ValueError(f"at must be non-negative, got {at}")
    if factor <= 0 or base_factor <= 0:
        raise ValueError("rate factors must be positive")
    if until is not None and until <= at:
        raise ValueError(f"until must lie beyond at={at}, got {until}")

    def profile(now: float) -> float:
        if now < at or (until is not None and now >= until):
            return base_factor
        return factor

    return profile


def diurnal_rate(
    day_length: float = 600.0, amplitude: float = 0.5, phase: float = 0.0
) -> RateProfile:
    """Sinusoidal day/night rate profile around the base rate.

    The multiplier is ``1 + amplitude * sin(2 * pi * (now - phase) / day_length)``;
    ``amplitude`` must stay below 1 so the rate never reaches zero.
    """
    if day_length <= 0:
        raise ValueError(f"day_length must be positive, got {day_length}")
    if not 0 <= amplitude < 1:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    two_pi = 2.0 * math.pi

    def profile(now: float) -> float:
        return 1.0 + amplitude * math.sin(two_pi * (now - phase) / day_length)

    return profile


#: Factory signature used by the cluster builder: (stream_index, n_streams) -> generator.
PayloadFactory = Callable[[int, int], PayloadGenerator]


def default_payload_factory(stream_index: int, n_streams: int) -> PayloadGenerator:
    """The factory the experiments use: interleaved global sequence numbers."""
    return interleaved_sequence(stream_index, n_streams)


def hot_key_payload_factory(
    skew: float = 1.2, keys: int = 64, seed: int = 0
) -> PayloadFactory:
    """Factory producing :func:`hot_key_sequence` generators with fixed skew."""

    def factory(stream_index: int, n_streams: int) -> PayloadGenerator:
        return hot_key_sequence(stream_index, n_streams, skew=skew, keys=keys, seed=seed)

    return factory
