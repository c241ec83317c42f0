"""Naive online baselines for the secretary experiments.

None of these carries a guarantee; they bracket the paper's algorithms
from below and give the E6 table its "who wins" comparison:

* :func:`first_k_baseline` — hire the first k arrivals (no observation);
* :func:`random_k_baseline` — hire k uniformly random arrivals (decided
  upfront by position, so still a legal online rule);
* :func:`greedy_no_observation_baseline` — hire any arrival with a
  positive marginal until k hires (greedy with a zero threshold: fills
  early with mediocre candidates, the failure mode the observation
  windows exist to avoid).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import BudgetError
from repro.online.driver import ArrivalOracle
from repro.rng import as_generator
from repro.secretary.submodular_secretary import SecretaryResult

if TYPE_CHECKING:
    from repro.secretary.stream import SecretaryStream

__all__ = [
    "first_k_baseline",
    "random_k_baseline",
    "greedy_no_observation_baseline",
]


def _check_k(k: int) -> None:
    if k <= 0:
        raise BudgetError(f"k must be positive, got {k}")


def first_k_baseline(stream: SecretaryStream, k: int) -> SecretaryResult:
    """Hire the first k arrivals unconditionally."""
    _check_k(k)
    return SecretaryResult(
        selected=frozenset(stream.order[:k]), traces=[], strategy="first-k"
    )


def random_k_baseline(stream: SecretaryStream, k: int, rng=None) -> SecretaryResult:
    """Hire k positions chosen uniformly in advance.

    Equivalent to a uniformly random k-subset of the ground set (the
    arrival order is itself uniform), so its expected value is the
    Lemma 3.2.3 random-sample benchmark ``(k/n) f(R)``-ish — a useful
    reference line.
    """
    _check_k(k)
    gen = as_generator(rng)
    n = stream.n
    take = gen.choice(n, size=min(k, n), replace=False)
    return SecretaryResult(
        selected=frozenset(stream.order[int(i)] for i in take),
        traces=[], strategy="random-k",
    )


def greedy_no_observation_baseline(stream: SecretaryStream, k: int) -> SecretaryResult:
    """Hire greedily on any positive marginal, no observation window.

    Queries go through an :class:`~repro.online.driver.ArrivalOracle`
    that learns each element as the walk reaches it, so the rule never
    peeks at later arrivals.
    """
    _check_k(k)
    oracle = ArrivalOracle(stream.utility)
    selected: set = set()
    value = oracle.value(frozenset())
    for a in stream.order:
        if len(selected) >= k:
            break
        oracle.reveal(a)
        candidate = oracle.value(frozenset(selected | {a}))
        if candidate > value + 1e-12:
            selected.add(a)
            value = candidate
    return SecretaryResult(
        selected=frozenset(selected), traces=[], strategy="greedy-no-obs"
    )
