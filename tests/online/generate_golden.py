"""Regenerate ``golden_refactor.json`` — the bit-identity pin for PR 4.

Captures hired sets and oracle-call counts of every online algorithm
(direct function calls *and* the engine adapters) on fixed seeds under
the default uniform arrival order.  The file was first generated from
the pre-refactor tree, so :mod:`tests.online.test_golden_equivalence`
proves the unified runtime reproduces the legacy per-algorithm loops
exactly.  Rerun only when an *intentional* behaviour change lands::

    PYTHONPATH=src:tests python tests/online/generate_golden.py
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.core.oracle import CountingOracle
from repro.engine.runner import run_one
from repro.engine.spec import RunSpec
from repro.matroids.uniform import UniformMatroid
from repro.online.driver import run_online
from repro.online.policies import BestSingletonPolicy
from repro.scheduling.instance import Job
from repro.scheduling.intervals import AwakeInterval
from repro.secretary.bottleneck import bottleneck_secretary
from repro.secretary.knapsack_secretary import knapsack_submodular_secretary
from repro.secretary.matroid_secretary import matroid_submodular_secretary
from repro.secretary.online_scheduling import (
    ProcessorMarket,
    online_processor_selection,
)
from repro.secretary.robust import robust_topk_secretary
from repro.secretary.stream import SecretaryStream
from repro.secretary.subadditive import subadditive_secretary
from repro.secretary.submodular_secretary import (
    monotone_submodular_secretary,
    nonmonotone_submodular_secretary,
)
from repro.workloads.secretary_streams import (
    additive_values,
    coverage_utility,
    cut_utility,
    facility_utility,
    knapsack_weights,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_refactor.json")


def _sel(selected) -> list:
    return sorted(map(str, selected))


def direct_cases() -> dict:
    out = {}

    fn = coverage_utility(24, 10, rng=np.random.default_rng(1))
    counting = CountingOracle(fn)
    stream = SecretaryStream(counting, rng=np.random.default_rng(5))
    res = monotone_submodular_secretary(stream, 3)
    out["monotone/coverage"] = {"selected": _sel(res.selected), "calls": counting.calls}

    fn = facility_utility(18, 6, rng=np.random.default_rng(6))
    counting = CountingOracle(fn)
    stream = SecretaryStream(counting, rng=np.random.default_rng(8))
    res = monotone_submodular_secretary(stream, 4)
    out["monotone/facility"] = {"selected": _sel(res.selected), "calls": counting.calls}

    for algo_seed in (11, 1):  # both coin outcomes
        fn = cut_utility(20, rng=np.random.default_rng(2))
        counting = CountingOracle(fn)
        stream = SecretaryStream(counting, rng=np.random.default_rng(7))
        res = nonmonotone_submodular_secretary(
            stream, 3, rng=np.random.default_rng(algo_seed)
        )
        out[f"nonmonotone/cut/a{algo_seed}"] = {
            "selected": _sel(res.selected),
            "calls": counting.calls,
            "strategy": res.strategy,
        }

    for algo_seed in (13, 2):  # both coin outcomes
        fn, _ = additive_values(30, rng=np.random.default_rng(3))
        weights = knapsack_weights(fn.ground_set, 2, rng=np.random.default_rng(4))
        counting = CountingOracle(fn)
        stream = SecretaryStream(counting, rng=np.random.default_rng(9))
        res = knapsack_submodular_secretary(
            stream, weights, [1.0, 1.0], rng=np.random.default_rng(algo_seed)
        )
        out[f"knapsack/additive/a{algo_seed}"] = {
            "selected": _sel(res.selected),
            "calls": counting.calls,
            "strategy": res.strategy,
        }

    for k_est in (None, 2, 8):  # random guess + both guess branches
        fn = coverage_utility(26, 12, rng=np.random.default_rng(15))
        counting = CountingOracle(fn)
        stream = SecretaryStream(counting, rng=np.random.default_rng(16))
        res = matroid_submodular_secretary(
            stream,
            [UniformMatroid(fn.ground_set, 5)],
            rng=np.random.default_rng(17),
            k_estimate=k_est,
        )
        out[f"matroid/coverage/k{k_est}"] = {
            "selected": _sel(res.selected),
            "calls": counting.calls,
            "strategy": res.strategy,
        }

    fn, values = additive_values(25, rng=np.random.default_rng(18))
    counting = CountingOracle(fn)
    stream = SecretaryStream(counting, rng=np.random.default_rng(19))
    res_b = bottleneck_secretary(stream, values, 3)
    out["bottleneck/additive"] = {
        "selected": _sel(res_b.selected),
        "calls": counting.calls,
        "threshold": res_b.threshold,
        "hired_top_k": res_b.hired_top_k,
    }

    fn, values = additive_values(25, rng=np.random.default_rng(18))
    counting = CountingOracle(fn)
    stream = SecretaryStream(counting, rng=np.random.default_rng(20))
    res_r = robust_topk_secretary(stream, values, 4)
    out["robust/additive"] = {
        "selected": _sel(res_r.selected),
        "calls": counting.calls,
        "per_segment": [str(e) if e is not None else None for e in res_r.per_segment],
    }

    for algo_seed in (21, 2):  # both strategies
        fn, _ = additive_values(25, rng=np.random.default_rng(18))
        counting = CountingOracle(fn)
        stream = SecretaryStream(counting, rng=np.random.default_rng(22))
        res = subadditive_secretary(stream, 5, rng=np.random.default_rng(algo_seed))
        out[f"subadditive/additive/a{algo_seed}"] = {
            "selected": _sel(res.selected),
            "calls": counting.calls,
            "strategy": res.strategy,
        }

    fn, values = additive_values(12, rng=np.random.default_rng(24))
    counting = CountingOracle(fn)
    stream = SecretaryStream(counting, rng=np.random.default_rng(25))
    res = run_online(counting, stream, BestSingletonPolicy(strict=True))
    out["classical/additive"] = {
        "selected": _sel(res.selected),
        "calls": counting.calls,
    }

    offers = {
        f"p{i}": (AwakeInterval(f"p{i}", 2 * i, 2 * i + 3),) for i in range(6)
    }
    jobs = tuple(
        Job(id=f"j{t}", slots=frozenset({(f"p{t % 6}", t), (f"p{(t + 1) % 6}", t + 1)}))
        for t in range(8)
    )
    market = ProcessorMarket(offers=offers, jobs=jobs)
    sel = online_processor_selection(market, 2, rng=3)
    out["online_scheduling/market"] = {
        "selected": _sel(sel.hired),
        "utility": sel.utility,
        "scheduled": sorted(map(str, sel.scheduled_jobs)),
    }
    return out


def adapter_cases() -> dict:
    out = {}
    cells = [
        ("secretary", "additive", 30, 3, 0, "monotone"),
        ("secretary", "coverage", 24, 3, 0, "monotone"),
        ("secretary", "facility", 20, 3, 0, "monotone"),
        ("secretary", "cut", 20, 3, 0, "nonmonotone"),
        ("secretary", "additive", 30, 1, 0, "classical"),
        ("secretary", "additive", 30, 4, 0, "robust"),
        ("knapsack_secretary", "additive", 24, 2, 0, "online"),
        ("knapsack_secretary", "additive", 24, 1, 0, "online"),
    ]
    for task, family, n, p, h, method in cells:
        for trial in range(2):
            seed = 1000 + 17 * trial
            spec = RunSpec(
                family=family, n_jobs=n, n_processors=p, horizon=h,
                method=method, trial=trial, seed=seed, task=task,
            )
            rec = run_one(spec)
            out[f"{task}/{family}/{n}x{p}x{h}/{method}/t{trial}"] = {
                "cost": rec.cost,
                "utility": rec.utility,
                "oracle_work": rec.oracle_work,
                "n_chosen": rec.n_chosen,
                "fingerprint": rec.fingerprint,
            }
    return out


def main() -> None:
    golden = {"direct": direct_cases(), "adapter": adapter_cases()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
