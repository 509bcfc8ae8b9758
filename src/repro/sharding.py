"""Key-hash sharding: shard specs, hash-bucket assignments, and the planner.

The paper's SUnion/SOutput machinery is topology-agnostic, but until now the
reproduction's deployments only *split* streams with hand-written modulo
predicates (the diamond shape).  This module is the first-class scale-out
vocabulary:

* :func:`stable_key_hash` -- a process- and platform-stable hash (crc32 over
  a canonical byte encoding) so that every replica, every run, and every
  Python version routes a key to the same shard;
* :class:`ShardSpec` -- the declarative description of one sharding scheme
  (shard count, key attribute, hash-bucket count, tie-group width);
* :class:`ShardAssignment` -- a concrete, planner-owned mapping of hash
  buckets to shards.  Assignments are what deployments compile into
  ``select`` predicates (:class:`ShardSlice`): the predicates of one
  assignment are *disjoint and exhaustive* by construction (every bucket
  belongs to exactly one shard);
* :class:`ShardPlanner` -- produces the initial assignment and, given
  observed per-bucket loads, emits a :class:`RebalancePlan` (a sequence of
  :class:`ShardMove` bucket migrations) when shard loads skew.

Hashing runs per tuple, so the module is dependency-light (``zlib`` plus
:mod:`repro.errors`); :mod:`repro.topology` builds on it for the
``Topology.shard`` deployment shape.

Ordering constraint: the fan-in SUnion that re-merges the shards orders
stime ties by input port, so tuples sharing an stime must never straddle
shards.  ``ShardSpec.group`` encodes that: the shard key of a tuple is
``attribute_value // group``, and deployments partitioning an interleaved
multi-source workload set ``group`` to the source count (exactly like
``modulo_partition``).  Sharding on a key that does not refine the stime
tie-groups would reorder the merged stream.
"""

from __future__ import annotations

import re
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from .errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .spe.tuples import TupleBlock

#: Default number of hash buckets; a multiple of every supported shard count
#: so the initial contiguous-range assignment is even.
DEFAULT_BUCKETS = 64

_CONTROL_ROW = re.compile(rb"[^\x00\x01]")  # a type code but stable (0) or tentative (1)


def stable_key_hash(value: Any) -> int:
    """Hash ``value`` to a 32-bit integer, stably across processes and platforms.

    Python's builtin ``hash`` is randomized per process (``PYTHONHASHSEED``)
    and version-dependent, so shard routing uses crc32 over a canonical,
    type-tagged byte encoding instead -- the same trick the consistency
    managers use for their seeded tie-breaking RNG identity.
    """
    if type(value) is int:  # the common key; the int branch below, formatted at C speed
        return zlib.crc32(b"i%d" % value) & 0xFFFFFFFF
    if isinstance(value, bool):
        data = b"b1" if value else b"b0"
    elif isinstance(value, int):
        data = b"i" + str(value).encode("ascii")
    elif isinstance(value, float):
        data = b"f" + repr(value).encode("ascii")
    elif isinstance(value, str):
        data = b"s" + value.encode("utf-8")
    elif isinstance(value, bytes):
        data = b"y" + value
    else:
        data = b"r" + repr(value).encode("utf-8", "backslashreplace")
    return zlib.crc32(data) & 0xFFFFFFFF


@dataclass(frozen=True)
class ShardSpec:
    """One sharding scheme: how a stream's tuples map to hash buckets.

    ``shards``
        Number of parallel shard fragments.
    ``key``
        Tuple attribute carrying the shard key (default the global sequence
        number the synthetic workloads stamp).
    ``buckets``
        Number of hash buckets.  Buckets, not raw hash values, are the unit
        of assignment and rebalancing: moving one bucket migrates a 1/buckets
        slice of the key space without re-hashing anything else.
    ``group``
        Tie-group width: the shard key is ``int(value) // group``, keeping
        runs of ``group`` consecutive key values on one shard.  Deployments
        over interleaved multi-source workloads set it to the source count so
        tuples sharing an stime never straddle shards (see the module
        docstring).
    """

    shards: int
    key: str = "seq"
    buckets: int = DEFAULT_BUCKETS
    group: int = 1

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if not self.key:
            raise ConfigurationError("shard key attribute cannot be empty")
        if self.buckets < self.shards:
            raise ConfigurationError(
                f"need at least one hash bucket per shard: {self.buckets} buckets "
                f"for {self.shards} shards"
            )
        if self.group < 1:
            raise ConfigurationError(f"group must be >= 1, got {self.group}")
        object.__setattr__(self, "_buckets", {})  # route()'s key -> bucket memo; not a field

    def group_key(self, value: Any) -> Any:
        """Collapse one raw key-attribute value into its tie-grouped shard key.

        Numeric keys are divided by ``group`` (runs of ``group`` consecutive
        values share a shard).  Non-numeric keys (the hot-key workloads shard
        on an opaque key attribute) require ``group == 1`` and are used as-is.
        """
        if not isinstance(value, (int, float, bool)):
            if self.group != 1:
                raise ConfigurationError(
                    f"shard key attribute {self.key!r} carries non-numeric value "
                    f"{value!r}, which cannot be tie-grouped by group={self.group}; "
                    f"non-numeric keys require group == 1 (e.g. "
                    f"Topology.shard(..., tie_group=1))"
                )
            return value
        return int(value) // self.group

    def key_of(self, values: Mapping[str, Any]) -> Any:
        """The (tie-grouped) shard key of one tuple's attribute mapping."""
        return self.group_key(values.get(self.key, 0))

    def bucket_of(self, key: Any) -> int:
        """The hash bucket a shard key falls into."""
        return stable_key_hash(key) % self.buckets

    #: Keys the :meth:`route` memo holds before it starts over.
    _MEMO_LIMIT = 65536

    def route(self, block: "TupleBlock") -> list[int | None]:
        """The route column of ``block``: each data row's hash bucket, ``None`` per control row.

        Shard filters select from it and the load history counts it; a memo hashes each key once.
        """
        key, group, memo = self.key, self.group, self._buckets  # type: ignore[attr-defined]
        keys = [
            value // group if type(value) is int else self.group_key(value)
            for value in block.column(key, 0)
        ]
        column = list(map(memo.get, keys))
        if None in column:
            if len(memo) >= self._MEMO_LIMIT:
                memo.clear()
            for unseen in set(keys).difference(memo):
                memo[unseen] = self.bucket_of(unseen)
            column = list(map(memo.__getitem__, keys))
        for match in _CONTROL_ROW.finditer(block.codes):
            column[match.start()] = None
        return column


@dataclass(frozen=True)
class ShardAssignment:
    """A planner-owned mapping of every hash bucket to exactly one shard.

    ``buckets_by_shard[i]`` lists the buckets shard ``i`` owns.  The
    constructor validates the partition property (disjoint, exhaustive over
    ``range(spec.buckets)``, no shard empty), which is what makes the derived
    ``select`` predicates disjoint and exhaustive over any input stream.
    """

    spec: ShardSpec
    buckets_by_shard: tuple[tuple[int, ...], ...]
    #: Permit shards owning zero buckets.  Only drain plans set this: a
    #: drained shard keeps relaying punctuation (the fan-in merge still needs
    #: its port's boundaries) but routes no data, as a prelude to
    #: decommissioning the fragment.
    allow_empty: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "buckets_by_shard", tuple(tuple(b) for b in self.buckets_by_shard)
        )
        if len(self.buckets_by_shard) != self.spec.shards:
            raise ConfigurationError(
                f"assignment lists {len(self.buckets_by_shard)} shard(s) for a "
                f"{self.spec.shards}-shard spec"
            )
        seen: dict[int, int] = {}
        for shard, buckets in enumerate(self.buckets_by_shard):
            if not buckets and not self.allow_empty:
                raise ConfigurationError(f"shard {shard} owns no hash buckets")
            for bucket in buckets:
                if bucket in seen:
                    raise ConfigurationError(
                        f"bucket {bucket} assigned to both shard {seen[bucket]} "
                        f"and shard {shard}"
                    )
                seen[bucket] = shard
        missing = set(range(self.spec.buckets)) - set(seen)
        if missing:
            raise ConfigurationError(f"buckets {sorted(missing)} are assigned to no shard")
        object.__setattr__(self, "_shard_by_bucket", seen)

    # ------------------------------------------------------------------ routing
    def shard_of_bucket(self, bucket: int) -> int:
        try:
            return self._shard_by_bucket[bucket]  # type: ignore[attr-defined]
        except KeyError as exc:
            raise ConfigurationError(
                f"bucket {bucket} out of range for {self.spec.buckets} buckets"
            ) from exc

    def shard_of(self, values: Mapping[str, Any]) -> int:
        """The shard responsible for one tuple's attribute mapping."""
        return self.shard_of_bucket(self.spec.bucket_of(self.spec.key_of(values)))

    # ------------------------------------------------------------------ predicates
    def predicate(self, shard: int) -> "ShardSlice":
        """The ``select`` predicate of one shard fragment.

        The predicates of all shards of one assignment are disjoint and
        exhaustive: every tuple satisfies exactly one of them, because every
        hash bucket belongs to exactly one shard.
        """
        if not 0 <= shard < self.spec.shards:
            raise ConfigurationError(
                f"shard {shard} out of range for {self.spec.shards} shards"
            )
        return ShardSlice(self.spec, frozenset(self.buckets_by_shard[shard]))

    def predicates(self) -> list["ShardSlice"]:
        return [self.predicate(shard) for shard in range(self.spec.shards)]

    # ------------------------------------------------------------------ load accounting
    def load_by_shard(self, bucket_loads: Mapping[int, float]) -> list[float]:
        """Total observed load per shard under this assignment."""
        return [
            float(sum(bucket_loads.get(bucket, 0.0) for bucket in buckets))
            for buckets in self.buckets_by_shard
        ]

    def imbalance(self, bucket_loads: Mapping[int, float]) -> float:
        """Peak-to-mean shard load ratio (1.0 = perfectly balanced)."""
        loads = self.load_by_shard(bucket_loads)
        total = sum(loads)
        if total <= 0:
            return 1.0
        return max(loads) / (total / len(loads))

    def move(self, bucket: int, target: int) -> "ShardAssignment":
        """A copy of this assignment with ``bucket`` reassigned to ``target``."""
        source = self.shard_of_bucket(bucket)
        if not 0 <= target < self.spec.shards:
            raise ConfigurationError(
                f"target shard {target} out of range for {self.spec.shards} shards"
            )
        if source == target:
            return self
        updated = [list(buckets) for buckets in self.buckets_by_shard]
        updated[source].remove(bucket)
        updated[target].append(bucket)
        return ShardAssignment(
            spec=self.spec,
            buckets_by_shard=tuple(tuple(b) for b in updated),
            allow_empty=self.allow_empty,
        )

    def empty_shards(self) -> list[int]:
        """Shards owning no hash buckets (drained fragments)."""
        return [
            shard for shard, buckets in enumerate(self.buckets_by_shard) if not buckets
        ]


@dataclass(frozen=True)
class ShardSlice:
    """One shard's ``select`` predicate: the rows whose bucket is in ``keep``.

    A filtered subscription reads ``spec.route``, the column all shards share.
    """

    spec: ShardSpec
    keep: frozenset[int]

    def __call__(self, values: Mapping[str, Any]) -> bool:
        return self.spec.bucket_of(self.spec.key_of(values)) in self.keep


@dataclass(frozen=True)
class ShardMove:
    """One bucket migration of a rebalancing plan."""

    bucket: int
    source: int
    target: int


@dataclass(frozen=True)
class RebalancePlan:
    """The planner's answer to skewed shard loads.

    ``moves`` applied in order transform ``before`` into ``after``; an empty
    plan means the observed loads were already within tolerance.
    """

    before: ShardAssignment
    after: ShardAssignment
    moves: tuple[ShardMove, ...]
    imbalance_before: float
    imbalance_after: float

    @property
    def is_noop(self) -> bool:
        return not self.moves


class ShardPlanner:
    """Plans bucket-to-shard assignments and load-driven rebalancing.

    The planner owns the partitioning vocabulary: deployments never write
    shard predicates by hand, they ask the planner for an assignment and
    compile its predicates into the shard fragments.
    """

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec

    def plan(self) -> ShardAssignment:
        """The initial assignment: contiguous, maximally even bucket ranges."""
        shards, buckets = self.spec.shards, self.spec.buckets
        ranges = []
        for shard in range(shards):
            start = shard * buckets // shards
            end = (shard + 1) * buckets // shards
            ranges.append(tuple(range(start, end)))
        return ShardAssignment(spec=self.spec, buckets_by_shard=tuple(ranges))

    def rebalance(
        self,
        assignment: ShardAssignment,
        bucket_loads: Mapping[int, float],
        tolerance: float = 0.10,
        excluded: Iterable[int] = (),
    ) -> RebalancePlan:
        """Emit bucket moves until no shard exceeds ``mean * (1 + tolerance)``.

        Deterministic greedy: while the most loaded shard is over tolerance,
        move its heaviest bucket that still *strictly reduces* the pairwise
        maximum with the least loaded shard (never emptying a shard).  Every
        accepted move strictly decreases the sum of squared shard loads, so
        the loop terminates; if no bucket qualifies the plan stops early.

        ``excluded`` names shards that must never *receive* buckets -- elastic
        deployments pass their decommissioned shard indices so a drained
        fragment stays empty.  Excluded shards are also left out of the load
        mean, otherwise permanently-empty fragments would drag the target
        down and make every live shard look overloaded.
        """
        if assignment.spec != self.spec:
            raise ConfigurationError("assignment was planned for a different shard spec")
        if tolerance < 0:
            raise ConfigurationError(f"tolerance cannot be negative, got {tolerance}")
        barred = set(excluded)
        if not set(range(self.spec.shards)) - barred:
            raise ConfigurationError("every shard is excluded from rebalancing")
        imbalance_before = assignment.imbalance(bucket_loads)
        current = assignment
        moves: list[ShardMove] = []
        while True:
            loads = current.load_by_shard(bucket_loads)
            eligible = [s for s in range(len(loads)) if s not in barred]
            mean = sum(loads[s] for s in eligible) / len(eligible)
            donor = max(range(len(loads)), key=lambda s: (loads[s], -s))
            recipient = min(eligible, key=lambda s: (loads[s], s))
            if donor == recipient or loads[donor] <= mean * (1.0 + tolerance):
                break
            # A candidate move must strictly reduce the pairwise maximum
            # (which also strictly decreases the squared-load sum, the
            # termination argument); zero-load buckets trivially pass the
            # inequality but migrate nothing, so they are excluded.
            candidates = [
                bucket
                for bucket in current.buckets_by_shard[donor]
                if len(current.buckets_by_shard[donor]) > 1
                and bucket_loads.get(bucket, 0.0) > 0
                and loads[recipient] + bucket_loads.get(bucket, 0.0) < loads[donor]
            ]
            if not candidates:
                break
            bucket = max(candidates, key=lambda b: (bucket_loads.get(b, 0.0), -b))
            current = current.move(bucket, recipient)
            moves.append(ShardMove(bucket=bucket, source=donor, target=recipient))
        return RebalancePlan(
            before=assignment,
            after=current,
            moves=tuple(moves),
            imbalance_before=imbalance_before,
            imbalance_after=current.imbalance(bucket_loads),
        )

    def expand(
        self,
        assignment: ShardAssignment,
        count: int = 1,
        bucket_loads: Mapping[int, float] | None = None,
        tolerance: float = 0.10,
        excluded: Iterable[int] = (),
    ) -> RebalancePlan:
        """Widen the scheme by ``count`` fresh shards and plan moves onto them.

        The returned plan's ``before`` assignment is already the *widened*
        one -- the fresh shards exist but own zero buckets (``allow_empty``),
        which is exactly the instant after a scale-out attaches the new
        fragments and before any data is cut over.  ``after`` populates them
        via the same greedy rebalance used for skew correction.  With no
        observed loads every bucket weighs 1, spreading buckets evenly by
        count.  The plan (and its assignments) carry the widened spec; the
        caller adopts it as the deployment's new sharding scheme.
        """
        if assignment.spec != self.spec:
            raise ConfigurationError("assignment was planned for a different shard spec")
        if count < 1:
            raise ConfigurationError(f"expand count must be >= 1, got {count}")
        wide_spec = ShardSpec(
            shards=self.spec.shards + count,
            key=self.spec.key,
            buckets=self.spec.buckets,
            group=self.spec.group,
        )
        before = ShardAssignment(
            spec=wide_spec,
            buckets_by_shard=assignment.buckets_by_shard + ((),) * count,
            allow_empty=True,
        )
        loads = dict(bucket_loads or {})
        if not loads:
            loads = {
                bucket: 1.0
                for buckets in assignment.buckets_by_shard
                for bucket in buckets
            }
        return ShardPlanner(wide_spec).rebalance(
            before, loads, tolerance=tolerance, excluded=excluded
        )

    def drain(
        self,
        assignment: ShardAssignment,
        shard: int,
        bucket_loads: Mapping[int, float] | None = None,
        excluded: Iterable[int] = (),
    ) -> RebalancePlan:
        """Plan the complete evacuation of one shard (a decommission prelude).

        Every bucket ``shard`` owns is reassigned to the remaining shards
        (minus any ``excluded`` -- already-decommissioned fragments), heaviest
        bucket first onto the currently least-loaded recipient (with no
        observed loads, buckets spread evenly by count).  The resulting
        ``after`` assignment leaves ``shard`` empty (``allow_empty``): a
        deployment applying the plan stops routing data to the fragment, which
        then only relays punctuation and is no longer a meaningful failure
        target.
        """
        if assignment.spec != self.spec:
            raise ConfigurationError("assignment was planned for a different shard spec")
        if not 0 <= shard < self.spec.shards:
            raise ConfigurationError(
                f"shard {shard} out of range for {self.spec.shards} shards"
            )
        if self.spec.shards < 2:
            raise ConfigurationError("cannot drain the only shard of a deployment")
        barred = set(excluded) | {shard}
        loads = dict(bucket_loads or {})
        imbalance_before = assignment.imbalance(loads)
        updated = [list(buckets) for buckets in assignment.buckets_by_shard]
        recipients = [s for s in range(self.spec.shards) if s not in barred]
        if not recipients:
            raise ConfigurationError(
                f"no recipient shard remains after excluding {sorted(barred)}"
            )
        recipient_load = {
            s: sum(loads.get(b, 0.0) for b in updated[s]) for s in recipients
        }
        recipient_count = {s: len(updated[s]) for s in recipients}
        moves: list[ShardMove] = []
        evacuating = sorted(
            updated[shard], key=lambda b: (-loads.get(b, 0.0), b)
        )
        for bucket in evacuating:
            target = min(
                recipients, key=lambda s: (recipient_load[s], recipient_count[s], s)
            )
            updated[target].append(bucket)
            recipient_load[target] += loads.get(bucket, 0.0)
            recipient_count[target] += 1
            moves.append(ShardMove(bucket=bucket, source=shard, target=target))
        updated[shard] = []
        after = ShardAssignment(
            spec=self.spec,
            buckets_by_shard=tuple(tuple(b) for b in updated),
            allow_empty=True,
        )
        return RebalancePlan(
            before=assignment,
            after=after,
            moves=tuple(moves),
            imbalance_before=imbalance_before,
            imbalance_after=after.imbalance(loads),
        )


def bucket_loads_from_keys(
    spec: ShardSpec, keys: Iterable[Any], *, grouped: bool = True
) -> dict[int, int]:
    """Count observed tuples per hash bucket (input to :meth:`ShardPlanner.rebalance`).

    ``keys`` are raw key-attribute values (e.g. a client ledger's sequence
    column); ``grouped=False`` treats them as already tie-grouped shard keys.
    """
    shard_keys = map(spec.group_key, keys) if grouped else keys
    return dict(Counter(map(spec.bucket_of, shard_keys)))
