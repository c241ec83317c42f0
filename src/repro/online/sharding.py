"""Sharded online runtime: one logical stream across S policy replicas.

The ROADMAP's distributed-stream-sharding item: an
:class:`~repro.online.arrivals.ArrivalSchedule` is a materialised order
plus a minibatch partition, so a logical stream can be split into ``S``
*shard schedules* — each element is assigned to a shard by a stable
content hash (:func:`repro.engine.hashing.derive_seed`, so the
assignment is a pure function of the element and survives process
boundaries), and each shard schedule preserves the global order's
relative order, batch structure, and timestamps restricted to its
elements.  One policy replica runs per shard over a
:class:`ShardView` of the utility (the same value oracle, ground set
restricted to the shard), and a feasibility-aware **merge** stage
re-ranks the union of per-shard hires by marginal gain under the global
oracle, taking candidates greedily subject to the task's constraint
(cardinality ``limit``, or any ``can_take`` hook — knapsack load,
matroid independence).

``S = 1`` is the identity: the single shard schedule *is* the input
schedule, the shard view delegates every query, and the merge stage is
skipped — so a one-shard :class:`ShardedRun` reproduces the unsharded
:class:`~repro.online.driver.OnlineRun` hires and oracle-call counts
bit-identically (pinned by ``tests/online/test_sharding.py``).

Checkpointing composes: a sharded checkpoint is a *manifest* (shard
count, salt, schema version) carrying one ordinary per-shard checkpoint
each — any subset of shards may be mid-stream, finished, or untouched,
and :func:`resume_sharded_run` rebuilds exactly that state.

The partition itself is an explicit, *versioned* layer: a
:class:`PartitionMap` is an append-only list of epochs ``(num_shards,
salt, consumed boundary)``, and every lane is one positional
:class:`PartitionLaneSource` whose order and batch starts are computed
from the map and the parent stream once, when the lane is built — so a
suspended lane is its cursor and fingerprint chain, nothing more, and a
manifest entry is pinned to its lane by its ``source.shard`` block
(checked against the manifest's topology on every resume and
reshard).  A topology change (S → S') is a
new epoch appended by :func:`reshard_manifest`: every already-consumed
prefix (and its hired set, decision log, and fingerprint chain) stays
exactly where it is, pinned to its lane forever, and only the
unconsumed suffix is re-assigned under the newest epoch's hash.  S' = S
with the same salt is the identity, and any S → S' → S round-trip
re-derives the original assignment for every unconsumed element — so
the round-tripped manifest resumes and merges bit-identically to the
straight-through sharded run (pinned by
``tests/online/test_resharding.py``).
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.kernels import evaluator_for
from repro.core.oracle import CountingOracle, OracleWrapper
from repro.core.submodular import SetFunction
from repro.errors import InvalidInstanceError
from repro.online.arrivals import (
    ArrivalSchedule,
    ArrivalSource,
    _require,
    source_from_spec,
)
from repro.online.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    SHARDED_MANIFEST_SCHEMA_VERSION,
    SUPPORTED_MANIFEST_VERSIONS,
    check_schema_version,
    make_checkpoint,
    resume_run,
)
from repro.online.driver import OnlineRun
from repro.online.policies import OnlinePolicy
from repro.online.results import SecretaryResult

__all__ = [
    "SHARDED_CHECKPOINT_FORMAT",
    "SHARDED_MANIFEST_SCHEMA_VERSION",
    "SUPPORTED_MANIFEST_VERSIONS",
    "PartitionLaneSource",
    "PartitionMap",
    "ShardCounters",
    "ShardSource",
    "ShardView",
    "ShardedRun",
    "shard_of",
    "shard_schedule",
    "merge_hires",
    "knapsack_constraint",
    "lane_algo_seed",
    "matroid_constraint",
    "make_sharded_checkpoint",
    "partition_from_manifest",
    "partition_lane_source",
    "partition_lane_sources",
    "reshard_manifest",
    "resume_sharded_run",
]

SHARDED_CHECKPOINT_FORMAT = "repro-online-sharded-checkpoint/1"

CanTake = Callable[[FrozenSet[Hashable], Hashable], bool]


def shard_of(element: Hashable, num_shards: int, salt: int = 0) -> int:
    """Stable shard index for *element* under *num_shards* shards.

    Hash-derived through the engine's seed derivation (SHA-256 over the
    element's ``repr``), so the assignment is a pure function of
    ``(element, num_shards, salt)`` — identical in every process, under
    hash randomisation, and across releases.  *salt* lets two sharded
    runs over the same ground set use independent partitions.
    """
    # Imported lazily: engine.hashing lives in the engine package, whose
    # __init__ imports the task adapters, which import this module.
    from repro.engine.hashing import derive_seed

    if num_shards <= 0:
        raise InvalidInstanceError(f"num_shards must be positive, got {num_shards}")
    return derive_seed(int(salt), "shard", repr(element)) % num_shards


def shard_schedule(
    schedule: ArrivalSchedule, num_shards: int, salt: int = 0
) -> List[ArrivalSchedule]:
    """Partition *schedule* into *num_shards* shard schedules.

    Each shard's ``order`` is the subsequence of the global order whose
    elements hash to that shard (relative order preserved); each global
    minibatch contributes its per-shard intersection as one shard batch
    (empty intersections vanish, so revealed-together stays
    revealed-together within a shard); timestamps follow their
    arrivals.  Shards may be empty.  ``num_shards == 1`` returns the
    input schedule itself — the identity partition the S=1 bit-identity
    pin relies on.
    """
    if num_shards <= 0:
        raise InvalidInstanceError(f"num_shards must be positive, got {num_shards}")
    if num_shards == 1:
        return [schedule]
    assign = [shard_of(e, num_shards, salt) for e in schedule.order]
    orders: List[List[Hashable]] = [[] for _ in range(num_shards)]
    stamps: List[List[float]] = [[] for _ in range(num_shards)]
    sizes: List[List[int]] = [[] for _ in range(num_shards)]
    pos = 0
    for batch in schedule.batch_sizes:
        counts = [0] * num_shards
        for i in range(pos, pos + batch):
            s = assign[i]
            orders[s].append(schedule.order[i])
            if schedule.timestamps is not None:
                stamps[s].append(schedule.timestamps[i])
            counts[s] += 1
        for s, c in enumerate(counts):
            if c:
                sizes[s].append(c)
        pos += batch
    return [
        ArrivalSchedule(
            process=schedule.process,
            seed=schedule.seed,
            order=orders[s],
            batch_sizes=sizes[s],
            timestamps=None if schedule.timestamps is None else stamps[s],
            params={
                **schedule.params,
                "shard_index": s,
                "num_shards": num_shards,
                "shard_salt": int(salt),
            },
        )
        for s in range(num_shards)
    ]


class PartitionMap:
    """Versioned shard assignment: an append-only history of epochs.

    Epoch 0 is the run's base topology ``(num_shards, salt)``; every
    later epoch is one reshard, recording the new ``(num_shards, salt)``
    plus the per-lane ``consumed`` boundary — each lane's cursor at the
    moment the topology changed.  The boundaries are what make the map
    *deterministic without O(consumed) state*: replaying the epochs over
    the parent order (:meth:`lane_streams`) re-derives exactly which
    elements each lane had consumed (those stay pinned to that lane
    forever) and re-assigns every unconsumed element under the newest
    epoch's hash.

    A single-epoch map is byte-compatible with the pre-epoch runtime:
    its lanes emit the old ``{"index", "num_shards", "salt"}`` shard
    spec and split by the same :func:`shard_of` hash.

    Every epoch field must be a JSON integer (``consumed`` a list of
    them); anything else raises
    :class:`~repro.errors.InvalidInstanceError` naming
    ``partition.epochs[k].<field>``.
    """

    def __init__(self, epochs: Sequence[Mapping[str, object]]) -> None:
        if not epochs:
            raise InvalidInstanceError("a partition map needs at least one epoch")
        normalized: List[Dict[str, object]] = []
        for k, epoch in enumerate(epochs):
            where = f"partition.epochs[{k}]"
            _require(epoch, Mapping, where, "an object")
            num_shards = _require(epoch.get("num_shards"), int,
                                  f"{where}.num_shards", "an integer")
            if num_shards < 1:
                raise InvalidInstanceError(
                    f"partition epoch {k}: num_shards must be >= 1, "
                    f"got {num_shards}"
                )
            entry: Dict[str, object] = {
                "num_shards": num_shards,
                "salt": _require(epoch.get("salt", 0), int, f"{where}.salt",
                                 "an integer"),
            }
            if k == 0:
                if epoch.get("consumed"):
                    raise InvalidInstanceError(
                        "partition epoch 0 is the base topology and "
                        "records no consumed boundary"
                    )
            else:
                consumed = epoch.get("consumed")
                if not isinstance(consumed, (list, tuple)):
                    raise InvalidInstanceError(
                        f"partition epoch {k} needs a per-lane 'consumed' "
                        "boundary list"
                    )
                boundary = [
                    _require(c, int, f"{where}.consumed", "a list of integers")
                    for c in consumed
                ]
                if any(c < 0 for c in boundary):
                    raise InvalidInstanceError(
                        f"partition epoch {k}: negative consumed boundary "
                        f"{boundary}"
                    )
                entry["consumed"] = boundary
            normalized.append(entry)
        self._epochs = tuple(normalized)

    @classmethod
    def base(cls, num_shards: int, salt: int = 0) -> "PartitionMap":
        """The single-epoch map of a fresh run: ``(num_shards, salt)``."""
        return cls([{"num_shards": int(num_shards), "salt": int(salt)}])

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "PartitionMap":
        """Rebuild a map from its :meth:`payload` (checkpoint block)."""
        _require(payload, Mapping, "partition", "an object")
        return cls(_require(payload.get("epochs"), list, "partition.epochs",
                            "a list"))

    def payload(self) -> Dict[str, object]:
        """JSON-able epoch history (the manifest's ``partition`` block)."""
        return {"epochs": [dict(e) for e in self._epochs]}

    @property
    def epochs(self) -> Sequence[Mapping[str, object]]:
        """The epoch history, oldest first (read-only)."""
        return self._epochs

    @property
    def epoch(self) -> int:
        """Index of the newest epoch (0 for a never-resharded map)."""
        return len(self._epochs) - 1

    @property
    def single_epoch(self) -> bool:
        """Whether the map is the base topology with no reshard history."""
        return len(self._epochs) == 1

    @property
    def num_shards(self) -> int:
        """The active topology: the newest epoch's shard count."""
        return int(self._epochs[-1]["num_shards"])  # type: ignore[arg-type]

    @property
    def salt(self) -> int:
        """The newest epoch's hash salt."""
        return int(self._epochs[-1]["salt"])  # type: ignore[arg-type]

    def assign(self, element: Hashable) -> int:
        """Newest-epoch lane for an *unconsumed* element (pure hash)."""
        return shard_of(element, self.num_shards, self.salt)

    def lane_block(self, index: int) -> Dict[str, object]:
        """The ``source.shard`` block of lane *index*'s spec: the old
        ``{"index", "num_shards", "salt"}`` block under a base map, and
        ``{"index", "partition"}`` once the map has been resharded."""
        if not self.single_epoch:
            return {"index": int(index), "partition": self.payload()}
        return {"index": int(index), "num_shards": self.num_shards,
                "salt": self.salt}

    def lane_count(self) -> int:
        """Lanes that may hold state under this history.

        The maximum over every epoch's topology and boundary width: a
        lane retired by a shrink keeps existing (frozen at its consumed
        prefix) as long as it has state, so manifests may carry more
        lane entries than the active ``num_shards``.
        """
        lanes = 0
        for epoch in self._epochs:
            lanes = max(lanes, int(epoch["num_shards"]))  # type: ignore[arg-type]
            lanes = max(lanes, len(epoch.get("consumed") or ()))
        return lanes

    def reshard(
        self, num_shards: int, consumed: Sequence[int], *,
        salt: Optional[int] = None,
    ) -> "PartitionMap":
        """A new map with one more epoch appended.

        *consumed* is the per-lane cursor list at the moment of the
        change (one entry per current manifest lane); *salt* defaults to
        the current epoch's salt — which is exactly what makes an
        S → S' → S round-trip restore the original assignment.
        """
        return PartitionMap(
            list(self._epochs)
            + [{
                "num_shards": int(num_shards),
                "salt": self.salt if salt is None else int(salt),
                "consumed": [int(c) for c in consumed],
            }]
        )

    def lane_streams(
        self, order: Sequence[Hashable], lanes: Optional[Iterable[int]] = None,
    ) -> List[Tuple[List[int], List[int]]]:
        """Replay the epoch history over the parent *order*.

        Returns one ``(pinned_positions, suffix_positions)`` pair per
        lane of *lanes* (default: all :meth:`lane_count` of them), in
        that order: *pinned_positions* are the parent positions the lane
        consumed before some epoch boundary, **in consumption order**;
        *suffix_positions* are the unconsumed parent positions the
        newest epoch assigns to the lane, in parent order.  Every parent
        position lands in exactly one lane's pinned or suffix list.

        One epoch is one pass over the parent order: unpinned elements
        consume the lane's boundary quota front-first (that *is* the
        order the lane consumed them in) and everything past the quota
        re-hashes under the epoch's ``(num_shards, salt)``.  Per-lane
        state exists only for lanes that pin or receive an element, so
        the cost is O(n · epochs + Σ|consumed| + len(lanes)) whatever
        shard count the epochs declare.  Building several lanes from
        one call hashes each element once per epoch, not once per lane
        (see :func:`partition_lane_sources`).
        """
        order = list(order)
        first = self._epochs[0]
        lane = [
            shard_of(e, int(first["num_shards"]), int(first["salt"]))  # type: ignore[arg-type]
            for e in order
        ]
        pinned = [False] * len(order)
        pinned_by_lane: Dict[int, List[int]] = {}
        for k, epoch in enumerate(self._epochs[1:], start=1):
            # Lanes beyond the boundary list held no manifest entry at
            # this epoch; their cursor is whatever was pinned (no quota).
            quota: Dict[int, int] = {}
            for a, want in enumerate(epoch["consumed"]):  # type: ignore[arg-type]
                have = len(pinned_by_lane.get(a, ()))
                if want < have:
                    raise InvalidInstanceError(
                        f"partition epoch {k}: lane {a} boundary {want} "
                        f"below its already-pinned prefix ({have})"
                    )
                if want > have:
                    quota[a] = want - have
            num_shards = int(epoch["num_shards"])  # type: ignore[arg-type]
            salt = int(epoch["salt"])  # type: ignore[arg-type]
            for p, e in enumerate(order):
                if pinned[p]:
                    continue
                a = lane[p]
                left = quota.get(a)
                if left:
                    pinned[p] = True
                    pinned_by_lane.setdefault(a, []).append(p)
                    quota[a] = left - 1
                else:
                    lane[p] = shard_of(e, num_shards, salt)
            leftover = [(a, q) for a, q in quota.items() if q]
            if leftover:
                raise InvalidInstanceError(
                    f"partition epoch {k}: consumed boundary exceeds the "
                    f"stream (lanes with unmet quota: {leftover})"
                )
        suffix_by_lane: Dict[int, List[int]] = {}
        for p in range(len(order)):
            if not pinned[p]:
                suffix_by_lane.setdefault(lane[p], []).append(p)
        if lanes is None:
            lanes = range(self.lane_count())
        return [
            (pinned_by_lane.get(a, []), suffix_by_lane.get(a, [])) for a in lanes
        ]


class PartitionLaneSource(ArrivalSource):
    """One lane's stream under a :class:`PartitionMap`: a positional source.

    The lane's order is its pinned consumed prefix (every element the
    lane took before some epoch boundary, in consumption order) followed
    by the unconsumed suffix the newest epoch assigns to it (in parent
    order); for a never-resharded map that is simply the parent order's
    elements hashing to the lane.  Order, timestamps and batch starts
    are computed once, from the parent stream, when the lane is built,
    so emission is purely positional and suspend state is the plain
    cursor + fingerprint pair: no parent stream state, no pending tail.

    Batch structure groups consecutive lane arrivals by their parent
    minibatch (revealed-together stays revealed-together within a
    lane) — across the prefix/suffix boundary too, so a lane suspended
    mid-batch resumes the batch's tail without opening a new one.  A
    never-resharded lane's stream, params and fingerprint chain equal
    the matching :func:`shard_schedule` entry's.
    """

    def __init__(self, parent: ArrivalSource, index: int,
                 partition: PartitionMap, *,
                 streams: Optional[Tuple[List[int], List[int]]] = None) -> None:
        lanes = partition.lane_count()
        if not (0 <= int(index) < lanes):
            raise InvalidInstanceError(
                f"lane index {index} outside [0, {lanes})"
            )
        self._parent = parent
        self.index = int(index)
        self.partition = partition
        schedule = parent.materialize()
        # *streams*: this lane's pair from a replay its builder already
        # ran over the same parent order (partition_lane_sources).
        if streams is None:
            streams = partition.lane_streams(schedule.order, [self.index])[0]
        pinned, suffix = streams
        positions = list(pinned) + list(suffix)
        order = [schedule.order[p] for p in positions]
        ts = schedule.timestamps
        stamps = None if ts is None else [float(ts[p]) for p in positions]
        parent_starts = [0]
        for size in schedule.batch_sizes:
            parent_starts.append(parent_starts[-1] + size)
        # Group consecutive lane arrivals sharing a parent minibatch.
        sizes: List[int] = []
        last_batch = None
        for p in positions:
            b = bisect_right(parent_starts, p) - 1
            if sizes and b == last_batch:
                sizes[-1] += 1
            else:
                sizes.append(1)
            last_batch = b
        params = {
            **parent.params,
            "shard_index": self.index,
            "num_shards": partition.num_shards,
            "shard_salt": partition.salt,
        }
        if partition.epoch:
            params["partition_epoch"] = partition.epoch
        super().__init__(parent.process, parent.seed, params, len(order))
        self._order = order
        self._stamps = stamps
        starts = [0]
        for size in sizes:
            starts.append(starts[-1] + size)
        self._starts = starts  # batch start positions, len = #batches + 1
        self._materialized: Optional[ArrivalSchedule] = None

    @property
    def order(self) -> List[Hashable]:
        """The materialized arrival order (forces lazy generation)."""
        return self._order

    def _emit(self, limit: Optional[int]):
        if self._cursor >= len(self._order):
            return None
        b = bisect_right(self._starts, self._cursor) - 1
        end = self._starts[b + 1]
        hi = end if limit is None else min(end, self._cursor + limit)
        elements = self._order[self._cursor:hi]
        stamps = (
            None if self._stamps is None else self._stamps[self._cursor:hi]
        )
        return elements, stamps, self._cursor == self._starts[b]

    def spec(self) -> Dict[str, object]:
        """JSON-able stream identity: process name, seed, sorted params."""
        spec = self._parent.spec()
        spec["shard"] = self.partition.lane_block(self.index)
        return spec

    def materialize(self) -> ArrivalSchedule:
        """The full stream as an :class:`ArrivalSchedule`."""
        if self._materialized is None:
            sizes = [
                self._starts[i + 1] - self._starts[i]
                for i in range(len(self._starts) - 1)
            ]
            self._materialized = ArrivalSchedule(
                process=self.process, seed=self.seed,
                order=list(self._order), batch_sizes=sizes,
                timestamps=(
                    None if self._stamps is None else list(self._stamps)
                ),
                params=dict(self.params),
            )
        return self._materialized


class ShardSource(PartitionLaneSource):
    """Lane *index* of a never-resharded run: the base map
    ``(num_shards, salt)``, hashing each element with :func:`shard_of`."""

    def __init__(self, parent: ArrivalSource, index: int, num_shards: int,
                 *, salt: int = 0,
                 streams: Optional[Tuple[List[int], List[int]]] = None) -> None:
        if num_shards <= 0:
            raise InvalidInstanceError(
                f"num_shards must be positive, got {num_shards}"
            )
        if not (0 <= int(index) < int(num_shards)):
            raise InvalidInstanceError(
                f"shard index {index} outside [0, {num_shards})"
            )
        super().__init__(parent, index, PartitionMap.base(num_shards, salt),
                         streams=streams)


def partition_lane_source(
    parent: ArrivalSource, index: int, partition: PartitionMap, *,
    streams: Optional[Tuple[List[int], List[int]]] = None,
) -> ArrivalSource:
    """Lane *index* of *parent* under *partition*.

    A one-shard base map is the identity (the parent itself, so S=1
    stays bit-identical to the unsharded run); any other base map gives
    a :class:`ShardSource`, and a resharded map a
    :class:`PartitionLaneSource`.  *streams*, when given, is the lane's
    pair from :meth:`PartitionMap.lane_streams` over the parent's order.
    """
    if partition.single_epoch:
        if partition.num_shards == 1:
            return parent
        return ShardSource(
            parent, index, partition.num_shards, salt=partition.salt,
            streams=streams,
        )
    return PartitionLaneSource(parent, index, partition, streams=streams)


def partition_lane_sources(
    source_factory: Callable[[], ArrivalSource], partition: PartitionMap,
    count: int,
) -> List[ArrivalSource]:
    """Lanes ``0 .. count - 1`` under *partition*, from one replay.

    Each lane wraps its own fresh parent from *source_factory* (a lane
    never advances its parent), exactly as :func:`partition_lane_source`
    would build it, but the epoch history is replayed once over the
    parent order for all of them: each element is hashed once per
    epoch, not once per epoch per lane.
    """
    parents = [source_factory() for _ in range(count)]
    if partition.single_epoch and partition.num_shards == 1:
        return parents  # the identity partition needs no replay
    order = parents[0].materialize().order
    streams = partition.lane_streams(order, range(count))
    return [
        partition_lane_source(parent, i, partition, streams=pair)
        for i, (parent, pair) in enumerate(zip(parents, streams))
    ]


class ShardView(OracleWrapper):
    """The global utility with its ground set restricted to one shard.

    Pure delegation: values (and any kernel evaluator below) come from
    the base function, so a shard replica scores its candidates exactly
    as the unsharded run would — only the advertised ground set shrinks,
    which is what lets the per-shard :class:`~repro.online.driver.OnlineRun`
    accept the shard schedule.
    """

    def __init__(self, base: SetFunction, elements: Iterable[Hashable]) -> None:
        super().__init__(base)
        self._ground = frozenset(elements)
        extra = self._ground - base.ground_set
        if extra:
            raise InvalidInstanceError(
                f"shard elements outside the base ground set: "
                f"{sorted(map(repr, extra))[:5]}"
            )

    @property
    def ground_set(self) -> FrozenSet[Hashable]:
        """The shard-restricted ground set."""
        return self._ground

    def value(self, subset: FrozenSet[Hashable]) -> float:
        """Delegate valuation to the shared base utility."""
        return self.base.value(frozenset(subset))


def knapsack_constraint(
    weights: Mapping[Hashable, float], capacity: float = 1.0
) -> CanTake:
    """``can_take`` for a single knapsack over reduced per-item weights."""
    def can_take(current: FrozenSet[Hashable], element: Hashable) -> bool:
        """Feasibility hook for the merge: may *element* join *selected*?"""
        load = sum(float(weights.get(e, 0.0)) for e in current)
        return load + float(weights.get(element, math.inf)) <= capacity + 1e-9
    return can_take


def matroid_constraint(matroids: Sequence) -> CanTake:
    """``can_take`` keeping the merged set independent in every matroid."""
    def can_take(current: FrozenSet[Hashable], element: Hashable) -> bool:
        """Feasibility hook for the merge: may *element* join *selected*?"""
        candidate = frozenset(current) | {element}
        return all(m.is_independent(candidate) for m in matroids)
    return can_take


def merge_hires(
    utility: SetFunction,
    candidates: Sequence[Hashable],
    *,
    can_take: Optional[CanTake] = None,
    limit: Optional[int] = None,
) -> List[Hashable]:
    """Greedily re-rank *candidates* by marginal gain under *utility*.

    Each round scores every remaining candidate against the merged
    selection (one vectorized pass with a kernel-backed utility) and
    takes the best strictly-improving one that *can_take* admits,
    stopping at *limit* hires, when nothing improves, or when nothing
    admissible remains.  Ties break by candidate ``repr`` so the merge
    is deterministic across processes.  The result is always feasible:
    every prefix passed *can_take* and respected *limit*.
    """
    pool = sorted(set(candidates), key=repr)
    if not pool:
        return []
    evaluator = evaluator_for(utility)
    chosen: List[Hashable] = []
    current = evaluator.current_value
    while pool and (limit is None or len(chosen) < limit):
        gains = evaluator.gains(pool)
        ranked = sorted(range(len(pool)), key=lambda i: (-float(gains[i]), repr(pool[i])))
        picked = None
        for i in ranked:
            if not float(gains[i]) > 0.0:
                break
            if can_take is not None and not can_take(frozenset(chosen), pool[i]):
                continue
            picked = i
            break
        if picked is None:
            break
        element = pool.pop(picked)
        current += float(gains[picked])
        chosen.append(element)
        evaluator.advance(element, current)
    return chosen


OracleFactory = Callable[[int, SetFunction], SetFunction]
PolicyFactory = Callable[[int, ArrivalSchedule], OnlinePolicy]


class ShardCounters:
    """The standard ``oracle_factory``: one counting oracle per shard.

    Pass an instance as ``oracle_factory`` to
    :meth:`ShardedRun.from_schedule` / :func:`resume_sharded_run` and
    read ``calls`` (the sum over shards) afterwards — every consumer
    that reports per-shard oracle work uses this same accounting.
    """

    def __init__(self) -> None:
        self.countings: List[CountingOracle] = []

    def __call__(self, index: int, view: SetFunction) -> CountingOracle:
        counting = CountingOracle(view)
        self.countings.append(counting)
        return counting

    @property
    def calls(self) -> int:
        """Oracle calls consumed by this shard."""
        return sum(c.calls for c in self.countings)


def lane_algo_seed(base: int, index: int, lanes: int) -> int:
    """Coin-flip seed for lane *index* of a *lanes*-lane topology.

    *lanes* counts the topology the lane is created under (a reshard's
    new count for the lanes it adds).  A single lane keeps the
    unsharded run's *base* seed, which makes S = 1 the plain run.
    """
    from repro.engine.hashing import derive_seed  # lazy: see shard_of

    if lanes == 1:
        return int(base)
    return derive_seed(int(base), "shard", int(index))


class ShardedRun:
    """S policy replicas over one hash-partitioned arrival schedule.

    ``utility`` is the *global* (unrestricted) function the merge stage
    ranks against; each shard run owns whatever oracle its factory
    wrapped around the shard view (the session layer counts per shard).
    With a single shard the run delegates wholly — no merge, no extra
    oracle traffic — so S=1 is bit-identical to an unsharded
    :class:`~repro.online.driver.OnlineRun`.
    """

    def __init__(
        self,
        utility: SetFunction,
        runs: Sequence[OnlineRun],
        *,
        can_take: Optional[CanTake] = None,
        limit: Optional[int] = None,
        salt: int = 0,
        partition: Optional[PartitionMap] = None,
    ) -> None:
        if not runs:
            raise InvalidInstanceError("a sharded run needs at least one shard")
        self.utility = utility
        self.runs = list(runs)
        self.can_take = can_take
        self.limit = limit
        self.salt = int(salt)
        #: Multi-epoch partition history, present iff the run was resumed
        #: from a resharded (schema-v3) manifest — re-suspending must
        #: carry it forward so the epoch history survives every hop.
        self.partition = partition
        self.merge_calls = 0
        self._result: Optional[SecretaryResult] = None

    @classmethod
    def from_schedule(
        cls,
        utility: SetFunction,
        schedule: ArrivalSchedule,
        num_shards: int,
        policy_factory: PolicyFactory,
        *,
        oracle_factory: Optional[OracleFactory] = None,
        can_take: Optional[CanTake] = None,
        limit: Optional[int] = None,
        salt: int = 0,
    ) -> "ShardedRun":
        """Partition *schedule* and build one replica run per shard.

        *policy_factory* gets ``(shard_index, shard_schedule)`` and
        returns a fresh policy; *oracle_factory* gets ``(shard_index,
        shard_view)`` and may wrap it (counting, caching) — the wrapped
        oracle is what the shard's driver reveals to.
        """
        shards = shard_schedule(schedule, num_shards, salt=salt)
        runs = []
        for i, shard in enumerate(shards):
            view = ShardView(utility, shard.order)
            oracle = view if oracle_factory is None else oracle_factory(i, view)
            runs.append(OnlineRun(oracle, shard, policy_factory(i, shard)))
        return cls(
            utility, runs, can_take=can_take, limit=limit, salt=salt
        )

    @classmethod
    def from_source(
        cls,
        utility: SetFunction,
        source_factory: Callable[[], ArrivalSource],
        num_shards: int,
        policy_factory: PolicyFactory,
        *,
        oracle_factory: Optional[OracleFactory] = None,
        can_take: Optional[CanTake] = None,
        limit: Optional[int] = None,
        salt: int = 0,
    ) -> "ShardedRun":
        """Source-backed construction: one :class:`ShardSource` per shard.

        *source_factory* builds a fresh parent source per shard (each
        lane wraps its own stream clone, which it never advances); the
        lanes' positions come from one partition replay over the parent
        order (:func:`partition_lane_sources`).  ``num_shards == 1`` feeds the parent
        source to the single replica directly — the identity partition
        the S=1 bit-identity pin relies on.  *policy_factory* gets
        ``(shard_index, shard_source)``; the source exposes ``n`` like a
        schedule does.
        """
        partition = PartitionMap.base(num_shards, salt)
        runs = []
        lanes = partition_lane_sources(source_factory, partition, num_shards)
        for i, src in enumerate(lanes):
            view = ShardView(utility, src.order or ())
            oracle = view if oracle_factory is None else oracle_factory(i, view)
            runs.append(OnlineRun(oracle, src, policy_factory(i, src)))
        return cls(
            utility, runs, can_take=can_take, limit=limit, salt=salt
        )

    # -- state ----------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of policy replicas the stream is split across."""
        return len(self.runs)

    @property
    def n(self) -> int:
        """Total arrivals across all shards (= the base schedule's n)."""
        return sum(run.n for run in self.runs)

    @property
    def cursor(self) -> int:
        """Total consumed arrivals across all shards."""
        return sum(run.cursor for run in self.runs)

    @property
    def cursors(self) -> List[int]:
        """Per-shard consumed-arrival counts."""
        return [run.cursor for run in self.runs]

    @property
    def finished(self) -> bool:
        """Whether every arrival has been consumed or the policy is done."""
        return all(run.finished for run in self.runs)

    # -- execution -------------------------------------------------------

    def run(self, max_arrivals: Optional[int] = None) -> "ShardedRun":
        """Consume up to *max_arrivals* more arrivals, shards in order.

        The budget drains shard 0 first, then flows to shard 1, and so
        on — deterministic, and a suspended run resumes exactly where
        the budget ran out (possibly mid-batch inside one shard while
        later shards are untouched).
        """
        budget = None if max_arrivals is None else int(max_arrivals)
        for run in self.runs:
            if budget is not None and budget <= 0:
                break
            before = run.cursor
            run.run(budget)
            if budget is not None:
                budget -= run.cursor - before
        return self

    def run_shard(
        self, index: int, max_arrivals: Optional[int] = None
    ) -> "ShardedRun":
        """Advance a single shard (for skewed/out-of-band progress)."""
        self.runs[index].run(max_arrivals)
        return self

    def result(self) -> SecretaryResult:
        """Merge the per-shard hires into the final solution (cached).

        Single-shard runs return the shard's own result object — the
        merge stage (and its oracle traffic) exists only when there is
        something to reconcile.  The merge ranks on a counting wrapper
        of the global utility, so ``merge_calls`` reports its price
        separately from the shards' online query counts.
        """
        if self._result is None:
            if len(self.runs) == 1:
                self._result = self.runs[0].result()
            else:
                candidates = [
                    e for run in self.runs for e in run.result().selected
                ]
                counting = CountingOracle(self.utility)
                merged = merge_hires(
                    counting, candidates, can_take=self.can_take, limit=self.limit
                )
                self.merge_calls = counting.calls
                self._result = SecretaryResult(
                    selected=frozenset(merged),
                    traces=[],
                    strategy="sharded-merge",
                )
        return self._result

    def shard_results(self) -> List[SecretaryResult]:
        """Per-shard results (each shard must be finished)."""
        return [run.result() for run in self.runs]


# -- checkpoint codec --------------------------------------------------------


def make_sharded_checkpoint(
    run: ShardedRun, extra: Optional[Mapping[str, object]] = None
) -> Dict[str, object]:
    """Serialise *run* as a manifest of ordinary per-shard checkpoints.

    Each entry under ``"shards"`` is a standard
    :func:`~repro.online.checkpoint.make_checkpoint` payload (source
    spec/state + cursor + decision log + policy config/state), so any
    subset of shards — mid-stream, finished, or untouched — round-trips.  ``"limit"`` records the
    merge cardinality; ``can_take`` hooks are runtime dependencies the
    resuming caller re-injects (the session layer derives them from the
    embedded recipe).
    """
    payload: Dict[str, object] = {
        "format": SHARDED_CHECKPOINT_FORMAT,
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "num_shards": run.num_shards,
        "salt": run.salt,
        "limit": run.limit,
        "shards": [make_checkpoint(r) for r in run.runs],
    }
    if run.partition is not None and not run.partition.single_epoch:
        # Resharded runs re-suspend at schema v3 with their full epoch
        # history; never-resharded manifests keep their exact v2 bytes.
        payload["schema_version"] = SHARDED_MANIFEST_SCHEMA_VERSION
        payload["partition"] = run.partition.payload()
    if extra is not None:
        payload["instance"] = dict(extra)
    return payload


def partition_from_manifest(manifest: Mapping[str, object]) -> PartitionMap:
    """The manifest's partition map.

    v3 manifests carry it verbatim under ``"partition"``; a
    never-resharded (v2) manifest is the single-epoch base map of its
    ``num_shards``/``salt`` fields, which must be JSON integers.
    """
    block = manifest.get("partition")
    if block:
        return PartitionMap.from_payload(block)  # type: ignore[arg-type]
    return PartitionMap.base(
        _require(manifest.get("num_shards", 1), int, "num_shards",
                 "an integer"),
        _require(manifest.get("salt", 0), int, "salt", "an integer"),
    )


def _checked_manifest(
    manifest: Mapping[str, object],
) -> Tuple[List[Mapping[str, object]], PartitionMap]:
    """A sharded manifest's lane entries and partition map, checked.

    The manifest must be a supported schema version, and so must every
    entry: a schema-v1 entry in a v2 manifest is refused like a v1
    manifest.  Each entry must be an object whose ``source`` block
    names the lane the manifest's topology gives its position — a block
    naming another lane or topology would resume a different stream;
    only an entry that embeds its schedule (as
    :meth:`ShardedRun.from_schedule` writes) may omit it.  The
    top-level ``num_shards``, ``salt`` and ``limit`` must be JSON
    integers (``limit`` may be null), and ``num_shards`` must count the
    entries.  Every lane of the partition's newest epoch, which receives
    the whole unconsumed stream, must have an entry; there may be more
    entries, since a shrink keeps the retired lanes that hold state.
    O(1) per entry; any failure raises
    :class:`~repro.errors.InvalidInstanceError` naming the field.
    """
    if manifest.get("format") != SHARDED_CHECKPOINT_FORMAT:
        raise InvalidInstanceError(
            f"not a {SHARDED_CHECKPOINT_FORMAT} payload: "
            f"{manifest.get('format')!r}"
        )
    check_schema_version(
        manifest, "sharded checkpoint", supported=SUPPORTED_MANIFEST_VERSIONS
    )
    entries = manifest.get("shards")
    if not isinstance(entries, list) or not entries:
        raise InvalidInstanceError("sharded checkpoint has no shard entries")
    declared = _require(manifest.get("num_shards", len(entries)), int,
                        "num_shards", "an integer")
    if declared != len(entries):
        raise InvalidInstanceError(
            f"sharded checkpoint manifest declares {declared} shards but "
            f"carries {len(entries)}"
        )
    _require(manifest.get("salt", 0), int, "salt", "an integer")
    if manifest.get("limit") is not None:
        _require(manifest["limit"], int, "limit", "an integer or null")
    partition = partition_from_manifest(manifest)
    if partition.num_shards > len(entries):
        raise InvalidInstanceError(
            f"checkpoint field 'partition' spreads the unconsumed stream "
            f"over {partition.num_shards} lanes, but the manifest carries "
            f"{len(entries)} shard entries"
        )
    # A one-shard base map's only lane is the parent stream itself.
    identity = partition.single_epoch and partition.num_shards == 1
    for i, entry in enumerate(entries):
        where = f"shards[{i}]"
        _require(entry, Mapping, where, "an object")
        check_schema_version(entry, f"sharded checkpoint entry {where}")
        source = _require(entry.get("source"), Mapping, f"{where}.source",
                          "an object")
        block = source.get("shard")
        want = None if identity else partition.lane_block(i)
        if block != want and not (
            block is None and source.get("schedule") is not None
        ):
            raise InvalidInstanceError(
                f"checkpoint field '{where}.source.shard' is {block!r:.80}, "
                f"but the manifest's topology gives lane {i} {want!r:.80}"
            )
    return entries, partition


def reshard_manifest(
    manifest: Mapping[str, object],
    num_shards: int,
    utility: SetFunction,
    *,
    policy_factory: Optional[PolicyFactory] = None,
    salt: Optional[int] = None,
) -> Dict[str, object]:
    """Re-partition a suspended sharded manifest to *num_shards* lanes.

    Appends one epoch to the manifest's :class:`PartitionMap` with the
    current per-lane cursors as the consumed boundary: every consumed
    prefix — hires, decision log, policy state, fingerprint chain —
    stays exactly where it is, and only the unconsumed suffix is
    re-assigned under the new epoch's hash.  Carried lane entries keep
    their cursor and fingerprint state verbatim (only the source spec is
    rewritten to the partition form); lanes added by a grow are seeded
    as fresh cursor-0 entries via *policy_factory*; trailing lanes whose
    cursor is still 0 are dropped by a shrink (interior lanes never
    move — lane indices are positional and pinned prefixes refer to
    them).

    *salt* defaults to the current epoch's salt, which makes
    ``num_shards == current`` (and any S → S' → S round-trip) the
    identity: the round-tripped manifest resumes and merges
    bit-identically to the straight-through run.  The output is a
    schema-v3 manifest carrying the full epoch history; the input is
    not modified.
    """
    entries, partition = _checked_manifest(manifest)
    if int(num_shards) <= 0:
        raise InvalidInstanceError(
            f"num_shards must be positive, got {num_shards}"
        )
    if (
        int(num_shards) == partition.num_shards
        and (salt is None or int(salt) == partition.salt)
    ):
        return copy.deepcopy(dict(manifest))
    cursors = []
    for i, entry in enumerate(entries):
        state = entry["source"].get("state")  # type: ignore[union-attr]
        ArrivalSource.check_state(state)
        if _require(entry.get("cursor"), int, f"shards[{i}].cursor",
                    "an integer") != state["cursor"]:
            raise InvalidInstanceError(
                f"checkpoint field 'shards[{i}].cursor' does not match the "
                f"source state's cursor {state['cursor']}"
            )
        cursors.append(state["cursor"])
    new_partition = partition.reshard(int(num_shards), cursors, salt=salt)
    # The shared parent stream: any entry's source spec minus its shard
    # filter and suspend state (every lane wraps the same parent).
    parent_spec = {
        k: v for k, v in dict(entries[0]["source"]).items()  # type: ignore[arg-type]
        if k not in ("shard", "state")
    }
    # Keep lanes [0, keep): at least the new topology, plus every lane
    # with consumed state.  Only *trailing* cursor-0 lanes are dropped —
    # lane indices are positional and must not shift.
    keep = int(num_shards)
    for i, c in enumerate(cursors):
        if c > 0:
            keep = max(keep, i + 1)
    new_entries: List[Dict[str, object]] = []
    lanes = partition_lane_sources(
        lambda: source_from_spec(copy.deepcopy(parent_spec), utility),
        new_partition, keep,
    )
    for i, lane_src in enumerate(lanes):
        if i < len(entries):
            entry = copy.deepcopy(dict(entries[i]))
            state = entry["source"]["state"]
            spec = lane_src.spec()
            spec["state"] = {
                "cursor": state["cursor"],
                "fingerprint": state["fingerprint"],
            }
            entry["source"] = spec
            new_entries.append(entry)
        else:
            if policy_factory is None:
                raise InvalidInstanceError(
                    f"resharding to {num_shards} shards adds lane {i}; "
                    "a policy_factory is required to seed its entry"
                )
            view = ShardView(utility, lane_src.order or ())
            run = OnlineRun(view, lane_src, policy_factory(i, lane_src))
            new_entries.append(make_checkpoint(run))
    out: Dict[str, object] = {
        "format": SHARDED_CHECKPOINT_FORMAT,
        "schema_version": SHARDED_MANIFEST_SCHEMA_VERSION,
        "num_shards": keep,
        "salt": new_partition.salt,
        "limit": manifest.get("limit"),
        "partition": new_partition.payload(),
        "shards": new_entries,
    }
    if manifest.get("instance") is not None:
        out["instance"] = copy.deepcopy(dict(manifest["instance"]))  # type: ignore[arg-type]
    return out


def resume_sharded_run(
    checkpoint: Mapping[str, object],
    utility: SetFunction,
    *,
    oracle_factory: Optional[OracleFactory] = None,
    deps: Optional[Mapping[str, object]] = None,
    can_take: Optional[CanTake] = None,
) -> ShardedRun:
    """Rebuild a :class:`ShardedRun` from its manifest checkpoint.

    Every shard resumes through the ordinary
    :func:`~repro.online.checkpoint.resume_run` path (O(selected)
    source rebuild + frontier reveal) against a fresh
    :class:`ShardView` of *utility* — optionally wrapped by
    *oracle_factory* (counting).  *deps* forwards to the per-shard
    resume; *can_take* re-injects the merge constraint.
    """
    entries, partition = _checked_manifest(checkpoint)
    runs = []
    for i, shard_ck in enumerate(entries):
        # Rebuild the lane over the *base* utility (stream construction
        # must not count as oracle work), then restrict the view to it.
        source = source_from_spec(shard_ck["source"], utility)  # type: ignore[arg-type]
        view = ShardView(utility, source.order or ())
        oracle = view if oracle_factory is None else oracle_factory(i, view)
        runs.append(resume_run(shard_ck, oracle, deps=deps, source=source))
    return ShardedRun(
        utility,
        runs,
        can_take=can_take,
        limit=checkpoint.get("limit"),  # type: ignore[arg-type]
        salt=checkpoint.get("salt", 0),  # type: ignore[arg-type]
        partition=None if partition.single_epoch else partition,
    )
