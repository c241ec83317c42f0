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
as an ordinary sweep cell.  Methods are the policies of :mod:`repro.online.policies`:

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
methods on the same cell interview the same arrival order.  Under the
default uniform process the runtime drives arrivals one at a time and
reproduces the legacy per-algorithm loops bit-identically (hired sets
*and* oracle-call counts — the golden suite pins this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.analysis.ratio import offline_greedy_cardinality
from repro.core.functions import AdditiveFunction
from repro.core.oracle import CountingOracle
from repro.core.submodular import SetFunction
from repro.engine.hashing import derive_seed, spec_fingerprint
from repro.engine.tasks.base import TaskAdapter, register_task
from repro.errors import InfeasibleError, InvalidInstanceError
from repro.online.arrivals import arrival_process_names, build_arrival_source
from repro.online.driver import OnlineRun
from repro.online.sharding import ShardCounters, ShardedRun
from repro.online.policies import (
    BestSingletonPolicy,
    RobustTopKPolicy,
    SegmentedSubmodularPolicy,
    nonmonotone_half_policy,
)
from repro.workloads.secretary_streams import STREAM_FAMILIES, stream_utility

__all__ = [
    "SecretaryInstance",
    "SecretaryAdapter",
    "split_family",
    "validate_qualified_families",
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


def validate_qualified_families(adapter: TaskAdapter, families) -> None:
    """Shared family validation for the ``base[@process][#shards]`` axis.

    The shard count is open-ended, so qualified names are validated by
    parsing rather than by enumerating ``adapter.families()``.
    """
    from repro.online.arrivals import arrival_process_names as _procs

    for family in families:
        base, process, _shards, _reshard = split_family(family)
        # "replay" needs a recorded schedule payload the sweep grid
        # cannot supply, so it is not a valid family qualifier.
        if (
            base not in adapter.base_families
            or process == "replay"
            or process not in _procs()
        ):
            raise InvalidInstanceError(
                f"unknown {adapter.name} workload family {family!r}; "
                f"known: {sorted(adapter.families())} (optionally "
                "'#<shards>'-qualified)"
            )


@dataclass
class SecretaryInstance:
    """A built secretary cell: the utility plus its provenance and seeds.

    ``benchmarks`` maps hire budgets to the precomputed offline value —
    filled at build time for both ``k`` and 1 (the ``classical`` method's
    budget) so ``solve`` wall times measure only the online algorithm.
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


class SecretaryAdapter(TaskAdapter):
    """Online secretary policies over the stream-utility families."""

    name = "secretary"
    methods = ("monotone", "nonmonotone", "classical", "robust")
    base_families = STREAM_FAMILIES

    def families(self) -> Tuple[str, ...]:
        extra = tuple(
            p for p in arrival_process_names()
            if p not in ("uniform", "replay")
        )
        return self.base_families + tuple(
            f"{b}@{p}" for b in self.base_families for p in extra
        )

    def validate_families(self, sweep) -> None:
        validate_qualified_families(self, sweep.families)

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

    def _policy(
        self, instance: SecretaryInstance, spec, n: int,
        algo_seed: Optional[int] = None,
    ):
        k = instance.k
        if algo_seed is None:
            algo_seed = instance.algo_seed
        if spec.method == "monotone":
            return SegmentedSubmodularPolicy(k), k
        if spec.method == "nonmonotone":
            coin = bool(np.random.default_rng(algo_seed).random() < 0.5)
            return nonmonotone_half_policy(n, k, coin), k
        if spec.method == "classical":
            return BestSingletonPolicy(strict=True), 1
        if spec.method == "robust":
            return RobustTopKPolicy(instance.singleton_values, k), k
        raise InvalidInstanceError(
            f"unknown secretary method {spec.method!r}; known: {self.methods}"
        )

    def _budget(self, spec, k: int) -> int:
        return 1 if spec.method == "classical" else k

    @staticmethod
    def _reshard_midstream(instance, run, counters, policy_factory, deps):
        """Half-stream S -> S' hop: suspend, re-partition, resume.

        The cell measures the elastic-topology path end to end: the
        first half of the stream runs at ``instance.shards`` lanes, the
        suspended manifest is re-partitioned to ``instance.reshard_to``
        lanes (consumed prefixes and hires pinned, suffix re-hashed
        under a new epoch), and the returned run finishes the stream.
        *deps* re-injects what the manifest never carries (the robust
        rule's singleton values).  Returns ``(resumed_run,
        rebuild_calls)`` — the oracle calls the resume's frontier
        re-reveal billed, which the caller nets out.
        """
        from repro.online.sharding import (
            make_sharded_checkpoint,
            reshard_manifest,
            resume_sharded_run,
        )

        run.run(max(1, sum(r.n for r in run.runs) // 2))
        manifest = make_sharded_checkpoint(run)
        resharded = reshard_manifest(
            manifest, instance.reshard_to, instance.fn,
            policy_factory=policy_factory,
        )
        before = counters.calls
        resumed = resume_sharded_run(
            resharded, instance.fn, oracle_factory=counters, deps=deps
        )
        return resumed, counters.calls - before

    def solve(self, instance: SecretaryInstance, spec) -> Dict[str, Any]:
        def source_factory():
            return build_arrival_source(
                instance.arrival, instance.fn, instance.stream_seed
            )

        budget = self._budget(spec, instance.k)
        if instance.shards == 1 and instance.reshard_to is None:
            source = source_factory()
            counting = CountingOracle(instance.fn)
            policy, _ = self._policy(instance, spec, source.n)
            result = OnlineRun(counting, source, policy).run().result()
            calls = counting.calls
        else:
            # One replica per shard (each laid out over its own shard
            # length, nonmonotone coins flipped per shard), merged under
            # the hire budget; oracle work = shard queries + merge.
            counters = ShardCounters()

            def policy_factory(index, shard):
                policy, _ = self._policy(
                    instance, spec, shard.n,
                    algo_seed=derive_seed(instance.algo_seed, "shard", index),
                )
                return policy

            run = ShardedRun.from_source(
                instance.fn, source_factory, instance.shards, policy_factory,
                oracle_factory=counters, limit=budget,
            )
            rebuild_calls = 0
            if instance.reshard_to is not None:
                deps = (
                    {"values": instance.singleton_values}
                    if spec.method == "robust" else None
                )
                run, rebuild_calls = self._reshard_midstream(
                    instance, run, counters, policy_factory, deps
                )
            result = run.run().result()
            # Net out the resume-rebuild reveals (the same netting the
            # session layer does), so a reshard hop's oracle_work is
            # comparable to an uninterrupted sharded run's.
            calls = counters.calls - rebuild_calls + run.merge_calls
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
