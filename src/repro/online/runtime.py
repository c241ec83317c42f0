"""Shared runtime utilities for the online policies.

The per-algorithm modules used to each carry their own copy of the
segment-layout / observation-window arithmetic and the offline knapsack
estimate; the runtime centralises them so a policy is only its decision
rule.  ``-inf`` thresholds are encoded as ``None`` in checkpoint state
(:func:`encode_float` / :func:`decode_float`) to keep the JSON strict.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels import evaluator_for
from repro.core.submodular import SetFunction

__all__ = [
    "segment_bounds",
    "observation_lengths",
    "encode_float",
    "decode_float",
    "offline_knapsack_estimate",
]


def segment_bounds(n: int, k: int) -> List[Tuple[int, int]]:
    """Split positions ``0..n-1`` into k near-equal contiguous segments.

    The paper pads with dummy secretaries to make ``k | n``; distributing
    the remainder across segments is the equivalent trick without
    simulating dummies (each real arrival keeps a uniform position).
    Segments may be empty when ``k > n``.
    """
    return [((j * n) // k, ((j + 1) * n) // k) for j in range(k)]


def observation_lengths(bounds: Sequence[Tuple[int, int]]) -> Dict[int, int]:
    """Per-segment observation-window lengths: ``floor(len / e)``."""
    return {j: int(math.floor((e - s) / math.e)) for j, (s, e) in enumerate(bounds)}


def encode_float(x: float) -> Optional[float]:
    """JSON-strict encoding: ``-inf`` becomes ``None``."""
    return None if x == -math.inf else float(x)


def decode_float(x: Optional[float]) -> float:
    """Inverse of :func:`encode_float`."""
    return -math.inf if x is None else float(x)


def offline_knapsack_estimate(
    utility: SetFunction,
    weights: Mapping[Hashable, float],
    items: Sequence[Hashable],
    capacity: float = 1.0,
) -> float:
    """Constant-factor offline estimate of the knapsack optimum on *items*.

    max(best feasible singleton, density-greedy value): the classical
    analysis gives value >= OPT/3 for monotone submodular utilities on a
    knapsack, which is all the online rule needs ("a constant factor
    estimation of OPT by looking at the first half").
    """
    feasible = [j for j in items if weights.get(j, math.inf) <= capacity]
    if not feasible:
        return 0.0
    # One batched pass for the singleton values, one per greedy round for
    # the density scan: with a kernel-backed utility each round is a
    # vectorized marginal pass; the naive fallback evaluates (and
    # counts) one oracle call per still-loadable candidate, exactly as
    # the original per-item loop did.
    evaluator = evaluator_for(utility)
    singles = evaluator.union_values(feasible)
    best_single = float(singles.max())

    chosen: set = set()
    load = 0.0
    value = evaluator.current_value

    if getattr(evaluator, "modular", False):
        # Modular (plain additive) utility: marginals never change, so
        # the per-round argmax is equivalent to one pass over items in
        # (density desc, arrival order) — an item that does not fit now
        # never fits later (the load only grows).  Densities reuse the
        # singleton values already queried above, so the query count
        # only shrinks.
        w_arr = np.array([float(weights[j]) for j in feasible])
        gains0 = singles - value
        with np.errstate(divide="ignore", invalid="ignore"):
            density = np.where(
                w_arr > 0, gains0 / np.where(w_arr > 0, w_arr, 1.0),
                np.where(gains0 > 0, math.inf, 0.0),
            )
        for i in np.argsort(-density, kind="stable"):
            if not density[i] > 0.0:
                break
            if load + w_arr[i] > capacity:
                continue
            chosen.add(feasible[i])
            load += float(w_arr[i])
        value = utility.value(frozenset(chosen)) if chosen else value
        return max(best_single, value)

    # Scan in the given item order: density ties then break by arrival
    # position, not by set-iteration (hash) order, keeping the estimate
    # reproducible across processes.
    remaining = list(feasible)
    while remaining:
        w_arr = np.array([weights[j] for j in remaining])
        loadable = np.flatnonzero(load + w_arr <= capacity)
        if not len(loadable):
            break
        cand = [remaining[i] for i in loadable]
        gains = evaluator.gains(cand)
        w = w_arr[loadable]
        with np.errstate(divide="ignore", invalid="ignore"):
            density = np.where(
                w > 0, gains / np.where(w > 0, w, 1.0),
                np.where(gains > 0, math.inf, 0.0),
            )
        best_local = int(np.argmax(density))
        if not density[best_local] > 0.0:
            break
        best_j = cand[best_local]
        chosen.add(best_j)
        load += weights[best_j]
        value = utility.value(frozenset(chosen))
        evaluator.advance(best_j, value)
        remaining.remove(best_j)
    return max(best_single, value)
