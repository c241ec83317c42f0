"""Self-contained online sessions: the backend of ``repro online``.

A *session* bundles a workload recipe (family, sizes, seed), the policy
it drives, and the arrival process into one resumable unit.  The recipe
travels inside the checkpoint, so ``repro online resume CHECKPOINT``
needs nothing but the file: the utility (with the per-element map the
knapsack, robust and bottleneck policies read, which the checkpoint
never carries) is rebuilt deterministically from the recorded seed,
the arrival source is reconstructed from its spec and jumped straight
to the saved cursor (O(selected) — no prefix replay), and the policy
state machine picks up mid-stream.

Seeds derive through :func:`repro.engine.hashing.derive_seed` — the
stream order and the algorithm's coin flips draw from independent child
seeds of the session seed, mirroring the engine adapters, and the coin
*outcomes* are baked into the policy config so resuming never replays
RNG state.
"""

from __future__ import annotations

import numpy as np

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.oracle import CachedOracle, CountingOracle
from repro.core.submodular import SetFunction
from repro.engine.hashing import derive_seed
from repro.errors import InvalidInstanceError
from repro.online.arrivals import (
    ArrivalSource,
    build_arrival_source,
    source_from_spec,
)
from repro.online.checkpoint import (
    check_schema_version,
    make_checkpoint,
    resume_run,
)
from repro.online.driver import OnlineRun
from repro.online.policies import SESSION_POLICIES, OnlinePolicy, build_policy
from repro.online.sharding import (
    SHARDED_CHECKPOINT_FORMAT,
    ShardCounters,
    ShardedRun,
    knapsack_constraint,
    lane_algo_seed,
    make_sharded_checkpoint,
    reshard_manifest,
    resume_sharded_run,
)
from repro.secretary.knapsack_secretary import reduce_knapsacks_to_one
from repro.workloads.secretary_streams import (
    STREAM_FAMILIES,
    knapsack_weights,
    stream_utility,
)

__all__ = [
    "RECIPE_SCHEMA_VERSION",
    "SESSION_POLICIES",
    "SESSION_FAMILIES",
    "OnlineSession",
    "ShardedSession",
    "WorkloadCache",
    "build_workload",
    "workload_key",
    "start_session",
    "resume_session",
    "start_sharded_session",
    "resume_sharded_session",
    "reshard_session",
    "resume_any_session",
]

#: Version of the embedded workload-recipe schema.  Recipes written
#: before versioning carry no marker and are accepted as version 1;
#: unknown versions are rejected up front (see
#: :func:`repro.online.checkpoint.check_schema_version`).
RECIPE_SCHEMA_VERSION = 1

SESSION_FAMILIES = STREAM_FAMILIES


def build_workload(recipe: Mapping[str, object]) -> Tuple[SetFunction, Dict]:
    """Rebuild (utility, per-item knapsack weights) from a recipe.

    Construction goes through the same
    :func:`~repro.workloads.secretary_streams.stream_utility` dispatch
    the engine adapters use, so a recipe names the same instance a
    sweep cell with the same (family, n, aux, seed) would build.
    """
    family = str(recipe["family"])
    n = int(recipe["n"])  # type: ignore[arg-type]
    aux = int(recipe.get("aux", 0))  # type: ignore[arg-type]
    seed = int(recipe["seed"])  # type: ignore[arg-type]
    if family not in SESSION_FAMILIES:
        raise InvalidInstanceError(
            f"unknown online workload family {family!r}; known: {SESSION_FAMILIES}"
        )
    gen = np.random.default_rng(seed)
    fn = stream_utility(
        family, n, aux=aux, rng=gen,
        distribution=str(recipe.get("distribution", "uniform")),
    )
    weights = {}
    if recipe.get("policy") == "knapsack":
        vectors = knapsack_weights(
            fn.ground_set, int(recipe.get("n_knapsacks", 2)), rng=gen  # type: ignore[arg-type]
        )
        weights = reduce_knapsacks_to_one(
            vectors, [1.0] * int(recipe.get("n_knapsacks", 2))  # type: ignore[arg-type]
        )
    return fn, weights


def workload_key(recipe: Mapping[str, object]) -> Tuple:
    """Hashable identity of the workload *recipe* rebuilds.

    Two recipes with equal keys make :func:`build_workload` return the
    same utility (and, for knapsack policies, the same reduced weights):
    the generator is seeded by ``seed`` alone and the knapsack vectors
    are the only other draw.  Policy, arrival process, and ``k`` are
    deliberately absent — tenants that differ only there still share one
    utility instance (and one value cache) under :class:`WorkloadCache`.
    """
    needs_weights = recipe.get("policy") == "knapsack"
    return (
        str(recipe["family"]),
        int(recipe["n"]),  # type: ignore[arg-type]
        int(recipe.get("aux", 0)),  # type: ignore[arg-type]
        int(recipe["seed"]),  # type: ignore[arg-type]
        str(recipe.get("distribution", "uniform")),
        int(recipe.get("n_knapsacks", 2)) if needs_weights else None,  # type: ignore[arg-type]
    )


class WorkloadCache:
    """Shared (utility, weights, value cache) across same-workload tenants.

    The serving layer hands one instance to every ``start_session`` /
    ``resume_session`` it makes: tenants whose recipes agree on
    :func:`workload_key` then share a single utility object *and* a
    single :class:`~repro.core.oracle.CachedOracle` memoising its
    values.  Each tenant still wraps the shared cache in its own
    :class:`~repro.core.oracle.CountingOracle`, so per-tenant
    ``oracle_calls`` stay bit-identical to an uncached run — caching
    changes where values come from, never how many queries are billed.
    """

    def __init__(self) -> None:
        """Create an empty cache."""
        self._entries: Dict[Tuple, Tuple[SetFunction, Dict, CachedOracle]] = {}
        self._singletons: Dict[Tuple, Dict] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        """Number of distinct workloads built so far."""
        return len(self._entries)

    def lookup(
        self, recipe: Mapping[str, object]
    ) -> Tuple[SetFunction, Dict, CachedOracle]:
        """Return (utility, weights, shared cached oracle) for *recipe*.

        Builds the workload on first sight of its :func:`workload_key`
        and reuses it afterwards; ``hits``/``misses`` count lookups for
        the serving stats.
        """
        key = workload_key(recipe)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            fn, weights = build_workload(recipe)
            entry = (fn, weights, CachedOracle(fn))
            self._entries[key] = entry
        else:
            self.hits += 1
        return entry

    def singleton_values(self, recipe: Mapping[str, object]) -> Dict:
        """Element -> singleton value of *recipe*'s utility, memoised.

        The robust and bottleneck rules read these at every start and
        resume (checkpoints never carry them), and a memory-budgeted
        serve rehydrates such a tenant once per slice; one O(n) pass per
        workload serves them all.  The pass is the utility's
        :meth:`~repro.core.submodular.SetFunction.singleton_values`: a
        coverage utility reads each row's item count off its kernel,
        other families query every singleton.  Neither bills an oracle
        call, and reading a memoised map is not counted as a
        :meth:`lookup`.
        """
        key = workload_key(recipe)
        values = self._singletons.get(key)
        if values is None:
            fn = (self._entries.get(key) or self.lookup(recipe))[0]
            values = self._singletons[key] = fn.singleton_values()
        return values

    def stats(self) -> Dict[str, object]:
        """Aggregate cache effectiveness counters (JSON-friendly)."""
        shared = [oracle for _, _, oracle in self._entries.values()]
        return {
            "workloads": len(self._entries),
            "lookups": self.hits + self.misses,
            "workload_hits": self.hits,
            "value_hits": sum(o.hits for o in shared),
            "value_misses": sum(o.misses for o in shared),
        }


def _workload(
    recipe: Mapping[str, object], workload_cache: Optional[WorkloadCache]
) -> Tuple[SetFunction, Dict, SetFunction]:
    """(utility, knapsack weights, value oracle) for *recipe*.

    The oracle is the utility itself, or the cache's shared memoising
    wrapper when a *workload_cache* is in play.
    """
    if workload_cache is None:
        fn, weights = build_workload(recipe)
        return fn, weights, fn
    return workload_cache.lookup(recipe)


def _policy_deps(
    recipe: Mapping[str, object],
    fn: SetFunction,
    weights: Mapping,
    workload_cache: Optional[WorkloadCache] = None,
) -> Dict[str, object]:
    """The per-element workload map the recipe's policy reads, as deps.

    Checkpoints never carry these maps, so every build and resume takes
    them from here: the reduced knapsack weights, or singleton values
    (memoised on *workload_cache*) for the robust and bottleneck rules.
    """
    name = recipe.get("policy")
    if name == "knapsack":
        return {"weights": weights}
    if name in ("robust", "bottleneck"):
        if workload_cache is None:
            return {"values": fn.singleton_values()}
        return {"values": workload_cache.singleton_values(recipe)}
    return {}


def _recipe_source(recipe: Mapping[str, object], fn: SetFunction) -> ArrivalSource:
    """The arrival stream *recipe* names, over the base utility *fn*.

    It draws from the session seed's ``"online-stream"`` child; the
    build is memoised on *fn*, so under a :class:`WorkloadCache` every
    later start or resume of the stream is O(1).
    """
    params = recipe.get("process_params") or {}
    if not isinstance(params, Mapping):
        raise InvalidInstanceError(
            f"recipe field 'process_params' must be an object, got {params!r:.60}"
        )
    return build_arrival_source(
        str(recipe.get("process")), fn,
        derive_seed(int(recipe["seed"]), "online-stream"),  # type: ignore[arg-type]
        **dict(params),
    )


def _check_source_block(block, want: Mapping[str, object], where: str) -> None:
    """Reject a checkpoint source block that is not the recipe's stream.

    Resume rebuilds the stream from the block's own spec, so a
    ``process``, ``seed`` or ``params`` other than *want*'s (the spec of
    the stream the recipe builds), or an embedded ``schedule``, would
    silently continue another stream.  Non-object blocks are left to
    the resume's own checks.
    """
    if not isinstance(block, Mapping):
        return
    if block.get("schedule") is not None:
        raise InvalidInstanceError(
            f"checkpoint field '{where}.schedule' is not accepted: a session "
            "stream is rebuilt from its workload recipe"
        )
    for field in ("process", "seed", "params"):
        if block.get(field) != want[field]:
            raise InvalidInstanceError(
                f"checkpoint field '{where}.{field}' is {block.get(field)!r:.60}, "
                f"but the recipe's stream has {want[field]!r:.60}"
            )


class OnlineSession:
    """A resumable (workload, policy, arrival process) execution.

    ``prior_calls`` carries the oracle-call count consumed before the
    last suspend (persisted in the checkpoint), so a resumed session's
    reported ``oracle_calls`` is cumulative and *exactly* equal to an
    uninterrupted run's: the few re-derivation queries a policy issues
    while restoring incremental-evaluator state are measured at resume
    time and netted out of ``prior_calls`` (they re-derive values the
    uninterrupted run already paid for — billing them again would make
    every suspend/resume hop inflate the count).
    """

    def __init__(self, run: OnlineRun, base: SetFunction,
                 counting: CountingOracle, recipe: Dict[str, object],
                 prior_calls: int = 0) -> None:
        self.run = run
        self.base = base
        self.counting = counting
        self.recipe = recipe
        self.prior_calls = int(prior_calls)

    def advance(self, max_arrivals: Optional[int] = None) -> "OnlineSession":
        """Consume up to *max_arrivals* more arrivals (None = run to completion)."""
        self.run.run(max_arrivals)
        return self

    @property
    def finished(self) -> bool:
        """Whether every arrival has been consumed or the policy is done."""
        return self.run.finished

    @property
    def oracle_calls(self) -> int:
        """Cumulative counted queries across all suspend/resume hops."""
        return self.prior_calls + self.counting.calls

    def checkpoint(self) -> Dict[str, object]:
        """Suspend-state payload with the workload recipe attached."""
        extra = dict(self.recipe)
        extra["oracle_calls_consumed"] = self.oracle_calls
        return make_checkpoint(self.run, extra=extra)

    def summary(self) -> Dict[str, object]:
        """Selection, value, and oracle-call accounting for the run so far."""
        out: Dict[str, object] = {
            "policy": self.recipe["policy"],
            "family": self.recipe["family"],
            "process": self.recipe["process"],
            "n": self.run.n,
            "cursor": self.run.cursor,
            "finished": self.run.finished,
            "oracle_calls": self.oracle_calls,
        }
        if self.run.finished:
            result = self.run.result()
            selected = sorted(result.selected, key=repr)
            out["selected"] = selected
            out["n_chosen"] = len(selected)
            out["value"] = float(self.base.value(frozenset(selected)))
            out["strategy"] = getattr(result, "strategy", None)
        return out


def start_session(
    policy: str = "monotone",
    family: str = "additive",
    n: int = 60,
    k: int = 4,
    *,
    seed: int = 0,
    process: str = "uniform",
    aux: int = 0,
    n_knapsacks: int = 2,
    distribution: str = "uniform",
    process_params: Optional[Mapping[str, object]] = None,
    workload_cache: Optional[WorkloadCache] = None,
    fault_injector=None,
    fault_scope: Optional[str] = None,
) -> OnlineSession:
    """Build a fresh session from a workload recipe.

    With a *workload_cache*, same-workload tenants share one utility and
    one memoising value oracle; the per-tenant counting wrapper keeps
    ``oracle_calls`` identical either way.

    With a *fault_injector* (see :mod:`repro.online.faults`), the
    counting oracle is wrapped so every query passes through the
    ``oracle.value`` / ``oracle.batch`` fault sites under *fault_scope*
    (the tenant id, under the serving layer).  The wrapper sits outside
    the counting layer, so a query aborted by an injected fault is
    never billed.
    """
    recipe: Dict[str, object] = {
        "kind": "secretary-workload",
        "recipe_version": RECIPE_SCHEMA_VERSION,
        "policy": policy,
        "family": family,
        "n": int(n),
        "k": int(k),
        "aux": int(aux),
        "n_knapsacks": int(n_knapsacks),
        "distribution": distribution,
        "seed": int(seed),
        "process": process,
        "process_params": dict(process_params or {}),
    }
    fn, weights, shared = _workload(recipe, workload_cache)
    policy_obj = build_policy(
        policy, int(n), int(k), derive_seed(int(seed), "online-algo"),
        _policy_deps(recipe, fn, weights, workload_cache),
    )
    source = _recipe_source(recipe, fn)
    counting = CountingOracle(shared)
    target: SetFunction = counting
    if fault_injector is not None:
        target = fault_injector.wrap_oracle(counting, fault_scope or "session")
    run = OnlineRun(target, source, policy_obj)
    return OnlineSession(run, fn, counting, recipe)


def _checked_recipe(checkpoint: Mapping[str, object]) -> Mapping[str, object]:
    """The checkpoint's embedded recipe, kind- and version-validated."""
    recipe = checkpoint.get("instance")
    if not isinstance(recipe, Mapping) or recipe.get("kind") != "secretary-workload":
        raise InvalidInstanceError(
            "checkpoint has no embedded workload recipe; resume it through "
            "repro.online.checkpoint.resume_run with an explicit utility"
        )
    check_schema_version(
        recipe, "workload recipe",
        key="recipe_version", supported=RECIPE_SCHEMA_VERSION,
    )
    return recipe


def resume_session(
    checkpoint: Mapping[str, object],
    *,
    workload_cache: Optional[WorkloadCache] = None,
    fault_injector=None,
    fault_scope: Optional[str] = None,
) -> OnlineSession:
    """Rebuild a suspended session from its self-contained checkpoint.

    Cumulative ``oracle_calls`` accounting is exact: whatever restore
    itself bills (evaluator construction, frontier re-derivation) is
    measured right after :func:`~repro.online.checkpoint.resume_run`
    and netted out of the checkpoint's recorded prior count, so a
    suspend/resume hop never inflates the total over an uninterrupted
    run.
    """
    recipe = _checked_recipe(checkpoint)
    check_schema_version(checkpoint)  # before the source block is read
    fn, weights, shared = _workload(recipe, workload_cache)
    counting = CountingOracle(shared)
    target: SetFunction = counting
    if fault_injector is not None:
        target = fault_injector.wrap_oracle(counting, fault_scope or "session")
    # Rebuild the stream over the *base* utility so value-sorted
    # processes' construction queries never inflate call accounting.
    block = checkpoint.get("source")
    _check_source_block(block, _recipe_source(recipe, fn).spec(), "source")
    source = source_from_spec(block, fn)  # type: ignore[arg-type]
    run = resume_run(
        checkpoint, target, source=source,
        deps=_policy_deps(recipe, fn, weights, workload_cache),
    )
    restore_overhead = counting.calls
    recipe = dict(recipe)
    prior = int(recipe.pop("oracle_calls_consumed", 0))  # type: ignore[arg-type]
    return OnlineSession(
        run, fn, counting, recipe, prior_calls=prior - restore_overhead
    )


# -- sharded sessions --------------------------------------------------------


def _merge_rule(
    recipe: Mapping[str, object], weights: Mapping
) -> Tuple[Optional[Callable], Optional[int]]:
    """The ``(can_take, limit)`` pair the merge stage enforces.

    Mirrors each policy's own feasibility notion: the knapsack rule's
    hires must fit the reduced unit knapsack, the classical rule hires
    one, everything else is cardinality-``k``.
    """
    policy = str(recipe["policy"])
    if policy == "knapsack":
        return knapsack_constraint(weights), None
    if policy == "classical":
        return None, 1
    return None, int(recipe["k"])  # type: ignore[arg-type]


class ShardedSession:
    """A resumable sharded (workload, policy, arrival process) execution.

    The same contract as :class:`OnlineSession`, lifted over a
    :class:`~repro.online.sharding.ShardedRun`: one counting oracle per
    shard, cumulative ``oracle_calls`` across suspend/resume hops, a
    manifest checkpoint any subset of whose shards may be mid-stream.
    """

    def __init__(
        self,
        run: ShardedRun,
        base: SetFunction,
        countings: List[CountingOracle],
        recipe: Dict[str, object],
        prior_calls: int = 0,
    ) -> None:
        self.run = run
        self.base = base
        self.countings = countings
        self.recipe = recipe
        self.prior_calls = int(prior_calls)

    def advance(self, max_arrivals: Optional[int] = None) -> "ShardedSession":
        """Consume up to *max_arrivals* more arrivals (None = run to completion)."""
        self.run.run(max_arrivals)
        return self

    def advance_shard(
        self, index: int, max_arrivals: Optional[int] = None
    ) -> "ShardedSession":
        """Advance one shard independently (see :meth:`advance`)."""
        self.run.run_shard(index, max_arrivals)
        return self

    @property
    def finished(self) -> bool:
        """Whether every arrival has been consumed or the policy is done."""
        return self.run.finished

    @property
    def oracle_calls(self) -> int:
        """Cumulative counted queries: all shards + merge + prior hops."""
        return (
            self.prior_calls
            + sum(c.calls for c in self.countings)
            + self.run.merge_calls
        )

    def checkpoint(self) -> Dict[str, object]:
        """Suspend-state payload with the workload recipe attached."""
        extra = dict(self.recipe)
        extra["oracle_calls_consumed"] = self.oracle_calls
        return make_sharded_checkpoint(self.run, extra=extra)

    def summary(self) -> Dict[str, object]:
        """Selection, value, and oracle-call accounting for the run so far."""
        out: Dict[str, object] = {
            "policy": self.recipe["policy"],
            "family": self.recipe["family"],
            "process": self.recipe["process"],
            "shards": self.run.num_shards,
            "n": self.run.n,
            "cursor": self.run.cursor,
            "cursors": self.run.cursors,
            "finished": self.run.finished,
            "oracle_calls": self.oracle_calls,
        }
        if self.run.finished:
            result = self.run.result()
            selected = sorted(result.selected, key=repr)
            out["selected"] = selected
            out["n_chosen"] = len(selected)
            out["value"] = float(self.base.value(frozenset(selected)))
            out["strategy"] = getattr(result, "strategy", None)
            out["shard_n_chosen"] = [
                len(r.selected) for r in self.run.shard_results()
            ]
            out["merge_calls"] = self.run.merge_calls
            out["oracle_calls"] = self.oracle_calls  # includes the merge now
        return out


def start_sharded_session(
    policy: str = "monotone",
    family: str = "additive",
    n: int = 60,
    k: int = 4,
    *,
    shards: int = 1,
    seed: int = 0,
    process: str = "uniform",
    aux: int = 0,
    n_knapsacks: int = 2,
    distribution: str = "uniform",
    process_params: Optional[Mapping[str, object]] = None,
    workload_cache: Optional[WorkloadCache] = None,
    fault_injector=None,
    fault_scope: Optional[str] = None,
) -> ShardedSession:
    """Build a fresh sharded session: S policy replicas + merge.

    With a *fault_injector*, each shard's counting oracle is wrapped
    under its own derived scope (``<fault_scope>#s<index>``) so every
    shard sees an independent deterministic fault stream.
    """
    if shards < 1:
        raise InvalidInstanceError(f"shards must be >= 1, got {shards}")
    recipe: Dict[str, object] = {
        "kind": "secretary-workload",
        "recipe_version": RECIPE_SCHEMA_VERSION,
        "policy": policy,
        "family": family,
        "n": int(n),
        "k": int(k),
        "aux": int(aux),
        "n_knapsacks": int(n_knapsacks),
        "distribution": distribution,
        "seed": int(seed),
        "process": process,
        "process_params": dict(process_params or {}),
        "shards": int(shards),
    }
    fn, weights, shared = _workload(recipe, workload_cache)

    def source_factory():
        """Build one lazy view of the tenant's full arrival stream."""
        return _recipe_source(recipe, fn)

    counters = ShardCounters()
    oracle_factory = _shard_oracle_factory(counters, fault_injector, fault_scope)
    algo_seed = derive_seed(int(seed), "online-algo")
    deps = _policy_deps(recipe, fn, weights, workload_cache)

    def policy_factory(index: int, shard) -> OnlinePolicy:
        """Build the policy replica for shard *index*."""
        return build_policy(
            policy, shard.n, int(k),
            lane_algo_seed(algo_seed, index, int(shards)), deps,
        )

    can_take, limit = _merge_rule(recipe, weights)
    # Shard views (and the merge stage) delegate to the shared value
    # cache when one is in play — counting stays per shard, above it.
    run = ShardedRun.from_source(
        shared, source_factory, int(shards), policy_factory,
        oracle_factory=oracle_factory, can_take=can_take, limit=limit,
    )
    return ShardedSession(run, fn, counters.countings, recipe)


def _shard_oracle_factory(
    counters: ShardCounters, fault_injector, fault_scope: Optional[str]
):
    """Per-shard oracle factory: counting, optionally fault-wrapped.

    Without an injector this *is* the plain :class:`ShardCounters`
    instance (the no-fault path is byte-for-byte the old wiring); with
    one, each shard's counting oracle is wrapped under a shard-derived
    scope so fault streams stay deterministic per shard.
    """
    if fault_injector is None:
        return counters
    scope = fault_scope or "session"

    def factory(index: int, view):
        """Wrap shard *index*'s counting oracle in its fault scope."""
        return fault_injector.wrap_oracle(
            counters(index, view), f"{scope}#s{index}"
        )

    return factory


def resume_sharded_session(
    checkpoint: Mapping[str, object],
    *,
    workload_cache: Optional[WorkloadCache] = None,
    fault_injector=None,
    fault_scope: Optional[str] = None,
) -> ShardedSession:
    """Rebuild a suspended sharded session from its manifest checkpoint.

    Like :func:`resume_session`, the queries restore itself bills are
    measured per shard and netted out of the recorded prior count, so
    cumulative ``oracle_calls`` across hops matches an uninterrupted
    sharded run exactly.
    """
    recipe = _checked_recipe(checkpoint)
    fn, weights, shared = _workload(recipe, workload_cache)
    entries = checkpoint.get("shards")
    if isinstance(entries, list):
        want = _recipe_source(recipe, fn).spec()
        for i, entry in enumerate(entries):
            if isinstance(entry, Mapping):
                _check_source_block(entry.get("source"), want, f"shards[{i}].source")
    can_take, _ = _merge_rule(recipe, weights)
    counters = ShardCounters()
    oracle_factory = _shard_oracle_factory(counters, fault_injector, fault_scope)
    run = resume_sharded_run(
        checkpoint, shared, oracle_factory=oracle_factory,
        deps=_policy_deps(recipe, fn, weights, workload_cache),
        can_take=can_take,
    )
    restore_overhead = sum(c.calls for c in counters.countings)
    recipe = dict(recipe)
    prior = int(recipe.pop("oracle_calls_consumed", 0))  # type: ignore[arg-type]
    return ShardedSession(
        run, fn, counters.countings, recipe,
        prior_calls=prior - restore_overhead,
    )


def reshard_session(
    checkpoint: Mapping[str, object],
    num_shards: int,
    *,
    salt: Optional[int] = None,
) -> Dict[str, object]:
    """Re-partition a suspended sharded-session manifest (S → S').

    Pure manifest → manifest: the workload is rebuilt from the embedded
    recipe, lanes added by a grow are seeded with the same shard-derived
    policy replicas a fresh ``--shards S'`` session would flip, and
    :func:`~repro.online.sharding.reshard_manifest` does the partition
    work — consumed prefixes, hires, and cumulative oracle accounting
    stay exactly where they are.  The result resumes through the
    ordinary :func:`resume_sharded_session` / :func:`resume_any_session`
    path.
    """
    if int(num_shards) < 1:
        raise InvalidInstanceError(
            f"shards must be >= 1, got {num_shards}"
        )
    if checkpoint.get("format") != SHARDED_CHECKPOINT_FORMAT:
        raise InvalidInstanceError(
            "only sharded session manifests can be resharded; start the "
            "run with --shards (a --shards 1 manifest counts)"
        )
    recipe = _checked_recipe(checkpoint)
    fn, weights = build_workload(recipe)
    algo_seed = derive_seed(int(recipe["seed"]), "online-algo")  # type: ignore[arg-type]

    def policy_factory(index: int, lane) -> OnlinePolicy:
        """Seed the policy replica for a lane added by the grow."""
        return build_policy(
            str(recipe["policy"]), lane.n, int(recipe["k"]),  # type: ignore[arg-type]
            lane_algo_seed(algo_seed, index, int(num_shards)),
            _policy_deps(recipe, fn, weights),
        )

    out = reshard_manifest(
        checkpoint, int(num_shards), fn,
        policy_factory=policy_factory, salt=salt,
    )
    instance = out.get("instance")
    if isinstance(instance, dict) and "shards" in instance:
        instance["shards"] = int(num_shards)
    return out


def resume_any_session(
    checkpoint: Mapping[str, object],
    *,
    workload_cache: Optional[WorkloadCache] = None,
    fault_injector=None,
    fault_scope: Optional[str] = None,
):
    """Route a checkpoint payload to the matching resume path."""
    kwargs = dict(
        workload_cache=workload_cache,
        fault_injector=fault_injector,
        fault_scope=fault_scope,
    )
    if checkpoint.get("format") == SHARDED_CHECKPOINT_FORMAT:
        return resume_sharded_session(checkpoint, **kwargs)  # type: ignore[arg-type]
    return resume_session(checkpoint, **kwargs)  # type: ignore[arg-type]
