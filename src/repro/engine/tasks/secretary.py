"""The ``secretary`` task — Section 3's online algorithms through the engine.

A cell's grid triple is read as ``(n, k, aux)``: ``n`` stream elements,
``k`` hires, and ``aux`` an optional family-specific size (coverage
universe / facility clients; 0 picks the family default).  Families are
the stream generators of :mod:`repro.workloads.secretary_streams`
(``additive``/``coverage``/``facility``/``cut``), optionally qualified
with an arrival process from the online runtime's registry —
``coverage@bursty`` runs the coverage workload under bursty minibatch
arrivals (plain family names mean ``uniform``, the paper's model) —
and/or a shard count: ``coverage@bursty#4`` drives four policy replicas
over a hash-partitioned stream through the sharded runtime
(:mod:`repro.online.sharding`), merging the per-shard hires under the
hire budget.  A ``>``-suffixed shard qualifier (``coverage#2>4``) adds
a mid-stream topology change: half the stream at 2 shards, a suspended
re-partition to 4, and a resumed finish — the re-sharding path measured
as an ordinary sweep cell.  Every cell, plain or qualified, runs through
one builder, :func:`run_cell`; a plain cell is its one-lane run, so
``coverage#1`` and ``coverage#1>1`` record what ``coverage`` does.
Methods are the policies :func:`repro.online.policies.build_policy`
names:

``monotone``
    Algorithm 1, :class:`SegmentedSubmodularPolicy` (1/(7e)).
``nonmonotone``
    Algorithm 2, the random-half configuration of Algorithm 1 (8e^2).
``classical``
    Dynkin's single-hire rule on singleton oracle values (k ignored).
``robust``
    The oblivious top-k rule of Section 3.6 on singleton values.

Metric mapping: ``utility`` is the hired set's value under the *base*
(offline) utility; ``cost`` records the offline benchmark the
competitive ratio divides by — exact top-k for additive streams, the
(1 - 1/e) offline greedy otherwise — so ``utility / cost`` is the
per-record competitive ratio.  ``oracle_work`` counts only the online
algorithm's value queries (the benchmark is computed on the unwrapped
function); ``n_chosen`` is the number of hires.

Stream order and coin flips draw from child seeds hash-derived from the
cell seed, so build and solve are deterministic and independent: two
methods on the same cell interview the same arrival order.  Lane *i* of
an S-lane topology flips :func:`repro.online.sharding.lane_algo_seed`'s
coin: the cell's own when S = 1, before a hop as after it.  Under the
default uniform process the runtime drives arrivals one at a time and
reproduces the legacy per-algorithm loops bit-identically (hired sets
*and* oracle-call counts — the golden suite pins this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.ratio import offline_greedy_cardinality
from repro.core.functions import AdditiveFunction
from repro.core.submodular import SetFunction
from repro.engine.hashing import derive_seed, spec_fingerprint
from repro.engine.tasks.base import TaskAdapter, register_task
from repro.errors import InfeasibleError, InvalidInstanceError
from repro.online.arrivals import (
    ArrivalSource,
    arrival_process_names,
    build_arrival_source,
)
from repro.online.policies import OnlinePolicy, build_policy
from repro.online.results import SecretaryResult
from repro.online.sharding import (
    CanTake,
    ShardCounters,
    ShardedRun,
    lane_algo_seed,
    make_sharded_checkpoint,
    reshard_manifest,
    resume_sharded_run,
)
from repro.workloads.secretary_streams import STREAM_FAMILIES, stream_utility

__all__ = [
    "OnlineTaskAdapter",
    "SecretaryInstance",
    "SecretaryAdapter",
    "run_cell",
    "split_family",
]


def split_family(family: str) -> Tuple[str, str, int, Optional[int]]:
    """Parse a qualified family: ``base[@process][#shards[>reshard]]``.

    ``"coverage@bursty#4" -> ("coverage", "bursty", 4, None)``; a plain
    name means the uniform process on a single (unsharded) stream, so
    ``"coverage" -> ("coverage", "uniform", 1, None)``.  The shard
    qualifier selects the sharded runtime
    (:mod:`repro.online.sharding`): S policy replicas over a
    hash-partitioned stream, merged under the task's feasibility
    constraint.  A ``>``-suffixed qualifier — ``coverage#2>4`` — runs
    the stream's first half at S shards, suspends, re-partitions the
    manifest to S' lanes (:func:`repro.online.sharding.reshard_manifest`),
    and resumes to completion: the elastic-topology path as one sweep
    cell.
    """
    spec, _, shard_txt = family.partition("#")
    base, _, process = spec.partition("@")
    shards = 1
    reshard_to: Optional[int] = None
    if shard_txt:
        count_txt, _, reshard_txt = shard_txt.partition(">")
        if not count_txt.isdigit() or int(count_txt) < 1:
            raise InvalidInstanceError(
                f"bad shard qualifier in family {family!r}: "
                f"expected a positive integer after '#', got {count_txt!r}"
            )
        shards = int(count_txt)
        if reshard_txt:
            if not reshard_txt.isdigit() or int(reshard_txt) < 1:
                raise InvalidInstanceError(
                    f"bad reshard qualifier in family {family!r}: "
                    f"expected a positive integer after '>', got "
                    f"{reshard_txt!r}"
                )
            reshard_to = int(reshard_txt)
    return base, (process or "uniform"), shards, reshard_to


def run_cell(
    fn: SetFunction,
    source_factory: Callable[[], ArrivalSource],
    shards: int,
    reshard_to: Optional[int],
    make_policy: Callable[[int, ArrivalSource, int], OnlinePolicy],
    *,
    deps: Optional[Mapping[str, object]] = None,
    can_take: Optional[CanTake] = None,
    limit: Optional[int] = None,
) -> Tuple[SecretaryResult, int]:
    """Run one online cell: *shards* lanes, an optional hop, the merge.

    Lane *i* of the stream *source_factory* builds runs
    ``make_policy(i, lane, shards)`` under its own counting oracle; one
    lane is the plain unsharded run.  With *reshard_to*, the first
    ``n // 2`` arrivals run at *shards* lanes, the suspended manifest is
    re-partitioned to *reshard_to* lanes (a lane it adds gets
    ``make_policy(i, lane, reshard_to)``), and the resumed run finishes
    the stream; *deps* re-injects the element map the manifest never
    carries, so it must hold only what the policy reads.  Returns the
    merged result and its oracle work: lane calls (less the resume's
    frontier re-reveal, as the session layer nets it) plus the merge's.
    """
    counters = ShardCounters()
    run = ShardedRun.from_source(
        fn, source_factory, shards,
        lambda i, lane: make_policy(i, lane, shards),
        oracle_factory=counters, can_take=can_take, limit=limit,
    )
    rebuild_calls = 0
    if reshard_to is not None:
        run.run(max(1, run.n // 2))
        manifest = reshard_manifest(
            make_sharded_checkpoint(run), reshard_to, fn,
            policy_factory=lambda i, lane: make_policy(i, lane, reshard_to),
        )
        before = counters.calls
        run = resume_sharded_run(
            manifest, fn, oracle_factory=counters, deps=deps, can_take=can_take
        )
        rebuild_calls = counters.calls - before
    result = run.run().result()
    return result, counters.calls - rebuild_calls + run.merge_calls


class OnlineTaskAdapter(TaskAdapter):
    """An engine task over the online runtime.

    Its families are :attr:`base_families` qualified as
    ``base[@process][#shards[>reshard]]`` (see :func:`split_family`),
    and every cell runs through :func:`run_cell` with lane policies
    from :func:`~repro.online.policies.build_policy`.
    """

    base_families: Tuple[str, ...] = ()

    def families(self) -> Tuple[str, ...]:
        extra = tuple(
            p for p in arrival_process_names()
            if p not in ("uniform", "replay")
        )
        return self.base_families + tuple(
            f"{b}@{p}" for b in self.base_families for p in extra
        )

    def validate_families(self, sweep) -> None:
        """Parse each family: the shard count is open-ended, so qualified
        names are not enumerated by :meth:`families`."""
        for family in sweep.families:
            base, process, _shards, _reshard = split_family(family)
            # "replay" needs a recorded schedule payload the sweep grid
            # cannot supply, so it is not a valid family qualifier.
            if (
                base not in self.base_families
                or process == "replay"
                or process not in arrival_process_names()
            ):
                raise InvalidInstanceError(
                    f"unknown {self.name} workload family {family!r}; "
                    f"known: {sorted(self.families())} (optionally "
                    "'#<shards>'-qualified)"
                )

    @staticmethod
    def run_policy(instance, name: str, k: int, source_factory, *,
                   deps=None, can_take=None, limit=None):
        """:func:`run_cell` over *instance* with policy *name* in every
        lane, each flipping the coin :func:`~repro.online.sharding
        .lane_algo_seed` derives from the instance's ``algo_seed``."""

        def make_policy(index: int, lane, lanes: int) -> OnlinePolicy:
            seed = lane_algo_seed(instance.algo_seed, index, lanes)
            return build_policy(name, lane.n, k, seed, deps)

        return run_cell(
            instance.fn, source_factory, instance.shards, instance.reshard_to,
            make_policy, deps=deps, can_take=can_take, limit=limit,
        )


@dataclass
class SecretaryInstance:
    """A built secretary cell: the utility plus its provenance and seeds.

    ``benchmarks`` maps the cell's hire budget (``k``, or 1 for the
    ``classical`` method) to the precomputed offline value, filled at
    build time so ``solve`` wall times measure only the online algorithm.
    ``family`` keeps the full (possibly process-qualified) spec family,
    so fingerprints distinguish ``coverage`` from ``coverage@bursty``;
    ``arrival`` is the parsed process name.
    """

    fn: SetFunction
    singleton_values: Dict[Hashable, float]
    k: int
    stream_seed: int
    algo_seed: int
    family: str
    benchmarks: Dict[int, float]
    arrival: str = "uniform"
    shards: int = 1
    reshard_to: Optional[int] = None

    def fingerprint_payload(self) -> Dict[str, Any]:
        return {"task": "secretary", "family": self.family,
                "utility": self.fn.canonical_payload()}


def _offline_benchmark(fn: SetFunction, k: int) -> float:
    """Offline value the competitive ratio is measured against.

    Additive utilities admit the exact optimum (top-k singletons); other
    families use the offline greedy.  Greedy <= OPT, so a ratio over it
    overstates the algorithm: by at most e / (e - 1) ~ 1.58x for
    monotone utilities (greedy >= (1 - 1/e) OPT), and by an unbounded
    factor for the non-monotone cut family, where greedy carries no
    guarantee.
    """
    if type(fn) is AdditiveFunction:  # subclasses truncate; greedy path
        ranked = sorted((fn.value(frozenset({e})) for e in fn.ground_set), reverse=True)
        return float(sum(ranked[:k]))
    _, value = offline_greedy_cardinality(fn, k)
    return float(value)


class SecretaryAdapter(OnlineTaskAdapter):
    """Online secretary policies over the stream-utility families."""

    name = "secretary"
    methods = ("monotone", "nonmonotone", "classical", "robust")
    base_families = STREAM_FAMILIES

    def build(self, spec) -> SecretaryInstance:
        params = dict(spec.params)
        n = spec.n_jobs
        aux = spec.horizon
        base, arrival, shards, reshard_to = split_family(spec.family)
        if base not in self.base_families:
            raise InvalidInstanceError(
                f"unknown secretary family {spec.family!r}; known: {self.families()}"
            )
        fn = stream_utility(
            base, n, aux=aux, rng=np.random.default_rng(spec.seed), **params
        )
        k = max(1, spec.n_processors)
        # Only pay for the offline work this cell's method actually
        # reads: the benchmark for its hire budget, and singleton values
        # only for the raw-value rules.
        budget = self._budget(spec, k)
        singles = (
            {e: fn.value(frozenset({e})) for e in sorted(fn.ground_set, key=repr)}
            if spec.method == "robust"
            else {}
        )
        return SecretaryInstance(
            fn=fn,
            singleton_values=singles,
            k=k,
            stream_seed=derive_seed(spec.seed, "secretary-stream"),
            algo_seed=derive_seed(spec.seed, "secretary-algo"),
            family=spec.family,
            benchmarks={budget: _offline_benchmark(fn, budget)},
            arrival=arrival,
            shards=shards,
            reshard_to=reshard_to,
        )

    def fingerprint(self, instance: SecretaryInstance) -> str:
        return spec_fingerprint(instance.fingerprint_payload())

    def _budget(self, spec, k: int) -> int:
        return 1 if spec.method == "classical" else k

    def solve(self, instance: SecretaryInstance, spec) -> Dict[str, Any]:
        if spec.method not in self.methods:
            raise InvalidInstanceError(
                f"unknown secretary method {spec.method!r}; known: {self.methods}"
            )
        budget = self._budget(spec, instance.k)
        result, calls = self.run_policy(
            instance, spec.method, instance.k,
            lambda: build_arrival_source(
                instance.arrival, instance.fn, instance.stream_seed
            ),
            # Only the robust rule reads a map: from_config hands deps
            # to the constructor, so any other rule's hop would refuse it.
            deps=(
                {"values": instance.singleton_values}
                if spec.method == "robust" else None
            ),
            limit=budget,
        )
        selected = result.selected
        if len(selected) > budget:
            raise InfeasibleError(
                f"hired {len(selected)} > budget {budget} "
                f"({instance.shards}-shard merge)"
            )
        return {
            "cost": instance.benchmarks[budget],
            "utility": float(instance.fn.value(frozenset(selected))),
            "oracle_work": int(calls),
            "n_chosen": len(selected),
        }


register_task(SecretaryAdapter())
