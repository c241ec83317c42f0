"""The ``knapsack_secretary`` task — Section 3.4 through the engine.

A cell's grid triple is read as ``(n, l, unused)``: ``n`` stream
elements and ``l`` unit-capacity knapsacks, with heterogeneous weight
vectors drawn by :func:`repro.workloads.secretary_streams.knapsack_weights`.
The single method ``online`` runs Theorem 3.1.3's coin-flip rule
(:class:`repro.online.policies.KnapsackSecretaryPolicy`) after Lemma
3.4.1's reduction, driven by the unified online runtime.  The family
may be qualified with an arrival process — ``additive@sorted_desc``
replays the same weights under the adversarial sorted order (plain
``additive`` means ``uniform``, the paper's model, bit-identical to the
pre-runtime stream loop) — and/or a shard count: ``additive@bursty#2``
runs one coin-flip replica per shard of a hash-partitioned stream and
merges the per-shard hires under the reduced single-knapsack capacity
(:mod:`repro.online.sharding`); ``additive#2>4`` adds a mid-stream
re-partition from 2 to 4 lanes through the suspended-manifest reshard
path.  Cells run through the secretary task's
:func:`~repro.engine.tasks.secretary.run_cell`, with the rule built by
:func:`~repro.online.policies.build_policy` and one coin per lane, so
``additive#1`` and ``additive#1>1`` record what ``additive`` does.

Metric mapping: ``utility`` is the hired set's value, ``cost`` the
hindsight density-greedy estimate of the single-knapsack optimum on the
reduced weights (so ``utility / cost`` is the measured ratio for the
O(l) guarantee), ``oracle_work`` the online rule's value queries,
``n_chosen`` the number of hires.  The adapter asserts per-knapsack
feasibility of the hired set — a violation is an algorithm bug, not a
data point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Mapping, Optional

import numpy as np

from repro.core.submodular import SetFunction
from repro.engine.hashing import derive_seed, spec_fingerprint
from repro.engine.tasks.base import register_task
from repro.engine.tasks.secretary import OnlineTaskAdapter, split_family
from repro.errors import InfeasibleError, InvalidInstanceError
from repro.online.arrivals import build_arrival_source
from repro.online.runtime import offline_knapsack_estimate
from repro.online.sharding import knapsack_constraint
from repro.secretary.knapsack_secretary import reduce_knapsacks_to_one
from repro.workloads.secretary_streams import additive_values, knapsack_weights

__all__ = ["KnapsackSecretaryInstance", "KnapsackSecretaryAdapter"]


@dataclass
class KnapsackSecretaryInstance:
    """A built knapsack-secretary cell: utility, weights, capacities."""

    fn: SetFunction
    weights: Mapping[Hashable, List[float]]
    capacities: List[float]
    stream_seed: int
    algo_seed: int
    family: str
    arrival: str = "uniform"
    shards: int = 1
    reshard_to: Optional[int] = None

    def fingerprint_payload(self) -> Dict[str, Any]:
        return {
            "task": "knapsack_secretary",
            "family": self.family,
            "utility": self.fn.canonical_payload(),
            "weights": {repr(k): v for k, v in self.weights.items()},
            "capacities": self.capacities,
        }


class KnapsackSecretaryAdapter(OnlineTaskAdapter):
    """Knapsack-constrained submodular secretary (Theorem 3.1.3)."""

    name = "knapsack_secretary"
    methods = ("online",)
    base_families = ("additive",)

    def build(self, spec) -> KnapsackSecretaryInstance:
        params = dict(spec.params)
        n, n_knapsacks = spec.n_jobs, max(1, spec.n_processors)
        base, arrival, shards, reshard_to = split_family(spec.family)
        gen = np.random.default_rng(spec.seed)
        if base != "additive":
            raise InvalidInstanceError(
                f"unknown knapsack_secretary family {spec.family!r}; "
                f"known: {self.families()}"
            )
        fn, _ = additive_values(
            n, distribution=str(params.get("distribution", "uniform")), rng=gen
        )
        weights = knapsack_weights(fn.ground_set, n_knapsacks, rng=gen)
        return KnapsackSecretaryInstance(
            fn=fn,
            weights=weights,
            capacities=[float(params.get("capacity", 1.0))] * n_knapsacks,
            stream_seed=derive_seed(spec.seed, "knapsack-stream"),
            algo_seed=derive_seed(spec.seed, "knapsack-algo"),
            family=spec.family,
            arrival=arrival,
            shards=shards,
            reshard_to=reshard_to,
        )

    def fingerprint(self, instance: KnapsackSecretaryInstance) -> str:
        return spec_fingerprint(instance.fingerprint_payload())

    def solve(self, instance: KnapsackSecretaryInstance, spec) -> Dict[str, Any]:
        fn, weights, caps = instance.fn, instance.weights, instance.capacities
        reduced = reduce_knapsacks_to_one(weights, caps)
        benchmark = offline_knapsack_estimate(
            fn, reduced, sorted(fn.ground_set, key=repr), capacity=1.0
        )
        # Source built over the unwrapped function: sorted-order
        # processes query singleton values to rank arrivals, and that
        # ranking is instance data, not online oracle work.  (The live
        # Generator seed routes through the materializing fallback —
        # bit-identical to the eager builder.)  Shards are merged under
        # the reduced unit capacity, so the merged set inherits Lemma
        # 3.4.1's feasibility; the knapsack rule reads no hire budget.
        result, calls = self.run_policy(
            instance, "knapsack", 0,
            lambda: build_arrival_source(
                instance.arrival, fn, np.random.default_rng(instance.stream_seed)
            ),
            deps={"weights": reduced},
            can_take=knapsack_constraint(reduced, 1.0),
        )
        for i, cap in enumerate(caps):
            load = sum(weights[e][i] for e in result.selected)
            if load > cap + 1e-9:
                raise InfeasibleError(
                    f"knapsack {i} overfull: load {load} > capacity {cap}"
                )
        return {
            "cost": float(benchmark),
            "utility": float(fn.value(frozenset(result.selected))),
            "oracle_work": int(calls),
            "n_chosen": len(result.selected),
        }


register_task(KnapsackSecretaryAdapter())
