"""Optimum certification and competitive-ratio measurement.

The secretary experiments compare an online algorithm's expected value
against the *offline* optimum ``f(R)``:

* :func:`offline_optimum_cardinality` — exhaustive search over
  ``C(n, <=k)`` subsets when that is affordable, else the offline
  greedy.  The returned flag says which path produced the number.  A
  greedy denominator makes the measured ratio *optimistic*, not
  conservative: greedy <= OPT, so ALG / greedy >= ALG / OPT.  For
  monotone utilities greedy >= (1 - 1/e) OPT bounds the overstatement
  by e / (e - 1) ~ 1.58x; for non-monotone ones (the cut family)
  greedy carries no guarantee, so neither does the ratio.

* :func:`competitive_trials` — the generic trial loop: build a fresh
  stream per trial (independent child RNGs), run the algorithm, divide
  achieved value by the offline benchmark, and summarise.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Callable, Tuple

import numpy as np

from repro.core.submodular import SetFunction
from repro.analysis.stats import TrialStats, summarize
from repro.rng import as_generator, spawn

__all__ = [
    "offline_greedy_cardinality",
    "offline_optimum_cardinality",
    "competitive_trials",
]


def offline_greedy_cardinality(fn: SetFunction, k: int) -> Tuple[frozenset, float]:
    """Standard offline greedy under a cardinality constraint.

    (1 - 1/e)-approximate for monotone submodular utilities [41]; used
    both as an optimum estimate on large ground sets and as the
    downgrade path of :func:`offline_optimum_cardinality`.  Rounds score
    every surviving element through an incremental evaluator — one
    vectorized marginal pass for the kernel-backed families, one oracle
    call per element otherwise (the original cost).
    """
    from repro.core.kernels import evaluator_for

    chosen: set = set()
    evaluator = evaluator_for(fn)
    value = evaluator.current_value
    # Sorted scan: greedy tie-breaks must not depend on (hash-randomised)
    # set iteration order, or the benchmark drifts across processes.
    ground = sorted(fn.ground_set, key=repr)
    for _ in range(max(0, k)):
        candidates = [e for e in ground if e not in chosen]
        if not candidates:
            break
        gains = evaluator.gains(candidates)
        best_i = int(np.argmax(gains))
        if not gains[best_i] > 0.0:
            break
        best_e = candidates[best_i]
        chosen.add(best_e)
        value = fn.value(frozenset(chosen))
        evaluator.advance(best_e, value)
    return frozenset(chosen), value


def offline_optimum_cardinality(
    fn: SetFunction,
    k: int,
    *,
    exhaustive_budget: int = 200_000,
) -> Tuple[float, bool]:
    """Best value of any subset of size <= k; returns (value, is_exact).

    Exhaustive when the number of size-<=k subsets fits in
    *exhaustive_budget*; otherwise falls back to the offline greedy and
    reports ``is_exact=False``.
    """
    ground = sorted(fn.ground_set, key=repr)
    n = len(ground)
    k = min(k, n)
    total = sum(comb(n, r) for r in range(k + 1))
    if total <= exhaustive_budget:
        best = fn.value(frozenset())
        for r in range(1, k + 1):
            for combo in combinations(ground, r):
                best = max(best, fn.value(frozenset(combo)))
        return best, True
    _, value = offline_greedy_cardinality(fn, k)
    return value, False


def competitive_trials(
    run_trial: Callable[[object], Tuple[float, float]],
    trials: int,
    rng=None,
) -> TrialStats:
    """Run *trials* independent trials of ``rng -> (achieved, benchmark)``.

    Each trial receives its own child generator (so trials are
    independent and order-insensitive) and must return the online
    algorithm's achieved value together with the offline benchmark it is
    measured against.  Returns statistics of the per-trial ratio
    ``achieved / benchmark``; benchmark-zero trials count as ratio 1
    when the algorithm also achieved zero, else 0 — both are reported
    conservatively rather than dropped.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    gen = as_generator(rng)
    children = spawn(gen, trials)
    ratios = []
    for child in children:
        achieved, benchmark = run_trial(child)
        if benchmark <= 0:
            ratios.append(1.0 if achieved <= 0 else 0.0)
        else:
            ratios.append(achieved / benchmark)
    return summarize(ratios)
