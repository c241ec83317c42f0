"""Section 3.4 — the submodular secretary problem with knapsack constraints.

Two pieces, mirroring the paper exactly:

* :func:`reduce_knapsacks_to_one` — Lemma 3.4.1's reduction: scale every
  knapsack to capacity 1 and give item ``j`` the single weight
  ``w'_j = max_i w_ij / C_i``.  Any feasible set of the reduced
  instance is feasible originally, and the reduction loses at most a
  ``4l`` factor of value, giving Theorem 3.1.3's O(l) ratio.

* :func:`knapsack_submodular_secretary` — Theorem 3.1.3's coin-flip
  rule, implemented as
  :class:`repro.online.policies.KnapsackSecretaryPolicy`: on heads try
  to hire the single most valuable feasible item (classical rule); on
  tails observe the first half without hiring, estimate OPT offline on
  it (:func:`offline_knapsack_estimate`, re-exported from
  :mod:`repro.online.runtime`), then hire any second-half item whose
  marginal-value density beats ``OPT_hat / 6``.  This wrapper performs
  the reduction, flips the coin, and runs the policy over the stream
  through :func:`~repro.online.driver.run_online`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Mapping, Sequence

import numpy as np

from repro.errors import InvalidInstanceError
from repro.online.driver import run_online
from repro.online.policies import KnapsackSecretaryPolicy
from repro.online.results import SecretaryResult
from repro.online.runtime import offline_knapsack_estimate
from repro.rng import as_generator

if TYPE_CHECKING:
    from repro.secretary.stream import SecretaryStream

__all__ = ["reduce_knapsacks_to_one", "knapsack_submodular_secretary", "offline_knapsack_estimate"]


def reduce_knapsacks_to_one(
    weights: Mapping[Hashable, Sequence[float]],
    capacities: Sequence[float],
) -> Dict[Hashable, float]:
    """Collapse ``l`` knapsacks into one of capacity 1 (Lemma 3.4.1).

    ``weights[j][i]`` is item j's weight in knapsack i.  Returns the
    reduced per-item weight ``w'_j = max_i w_ij / C_i``.  The reduction
    is online-safe: each item's reduced weight depends only on its own
    weights, so it can be computed at arrival time.
    """
    caps = [float(c) for c in capacities]
    if not caps or any(c <= 0 for c in caps):
        raise InvalidInstanceError(f"capacities must be positive, got {caps}")
    items = list(weights)
    if not items:
        return {}
    try:
        # One vectorized pass for the common well-formed case; a ragged
        # weight matrix falls back to the per-item loop below for its
        # precise error report.
        matrix = np.array([weights[j] for j in items], dtype=float)
    except ValueError:
        matrix = None
    if matrix is not None and matrix.ndim == 2 and matrix.shape[1] == len(caps):
        if (matrix < 0).any():
            j = items[int(np.argmax((matrix < 0).any(axis=1)))]
            raise InvalidInstanceError(f"item {j!r} has negative weight")
        reduced_arr = (matrix / np.array(caps)).max(axis=1)
        return dict(zip(items, reduced_arr.tolist()))
    reduced: Dict[Hashable, float] = {}
    for j in items:
        ws = [float(w) for w in weights[j]]
        if len(ws) != len(caps):
            raise InvalidInstanceError(
                f"item {j!r} has {len(ws)} weights for {len(caps)} knapsacks"
            )
        if any(w < 0 for w in ws):
            raise InvalidInstanceError(f"item {j!r} has negative weight")
        reduced[j] = max(w / c for w, c in zip(ws, caps))
    return reduced


def knapsack_submodular_secretary(
    stream: SecretaryStream,
    weights: Mapping[Hashable, Sequence[float]] | Mapping[Hashable, float],
    capacities: Sequence[float] | float = 1.0,
    *,
    rng=None,
    density_divisor: float = 6.0,
) -> SecretaryResult:
    """Theorem 3.1.3's O(l)-competitive algorithm.

    Accepts multi-knapsack inputs (``weights[j]`` a vector with
    *capacities* a matching sequence) or pre-reduced single-knapsack
    inputs (``weights[j]`` a float, *capacities* a float).
    """
    gen = as_generator(rng)

    if isinstance(capacities, (int, float)):
        w1: Dict[Hashable, float] = {}
        for j, w in weights.items():  # type: ignore[union-attr]
            if isinstance(w, (int, float)):
                w1[j] = float(w) / float(capacities)
            else:
                raise InvalidInstanceError(
                    "scalar capacity requires scalar per-item weights"
                )
    else:
        w1 = reduce_knapsacks_to_one(weights, capacities)  # type: ignore[arg-type]

    missing = stream.utility.ground_set - set(w1)
    if missing:
        raise InvalidInstanceError(
            f"items without weights: {sorted(map(repr, missing))[:5]}"
        )
    policy = KnapsackSecretaryPolicy(
        w1, heads=bool(gen.random() < 0.5), density_divisor=density_divisor
    )
    return run_online(stream.utility, stream, policy)
