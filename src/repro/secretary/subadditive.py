"""Section 3.5 — the subadditive secretary problem.

Two halves of Theorem 3.1.4:

* **Hardness** (Theorem 3.5.1): :class:`HiddenSetFunction` is the
  adversarial monotone subadditive function built around a hidden random
  set ``S*``: queries report ``max(1, ceil(|S ∩ S*| / r))``, so every
  query that does not intersect the hidden set substantially returns the
  same value 1 and leaks nothing.  Any algorithm with few oracle calls
  is stuck at value ~1 while ``OPT >= k/r`` — the Omega(sqrt(n)) gap.
  The function is "almost submodular" (Proposition 3.5.3:
  ``f(A) + f(B) >= f(A u B) + f(A n B) - 2``), which the tests verify.

* **Algorithm** (Section 3.5.2): an O(sqrt(n))-competitive rule that
  combines the k-competitive best-singleton strategy
  (:class:`repro.online.policies.BestSingletonPolicy`) with the
  (n/k)-competitive random-segment strategy
  (:class:`repro.online.policies.SubadditiveSegmentPolicy`) — partition
  the stream into ``ceil(n/k)`` segments of size at most k and hire one
  uniformly random segment wholesale; subadditivity guarantees some
  segment carries a ``k/n`` fraction of OPT.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, FrozenSet, Hashable, Iterable

from repro.core.submodular import SetFunction
from repro.errors import BudgetError
from repro.online.driver import run_online
from repro.online.policies import build_policy
from repro.online.results import SecretaryResult
from repro.rng import as_generator

if TYPE_CHECKING:
    from repro.secretary.stream import SecretaryStream

__all__ = ["HiddenSetFunction", "subadditive_secretary"]


class HiddenSetFunction(SetFunction):
    """The hard monotone subadditive function of Theorem 3.5.1.

    Parameters
    ----------
    ground:
        The universe ``U`` (size n).
    expected_hidden:
        The expected hidden-set size ``k``; each element joins ``S*``
        independently with probability ``k/n``.
    r:
        The information-hiding granularity; the theorem uses
        ``r = lambda * m * k / n`` with ``lambda ~ sqrt(n)`` and query
        caps m — callers pick it per experiment.
    rng:
        Seed/generator for sampling ``S*``.
    """

    def __init__(self, ground: Iterable[Hashable], expected_hidden: int, r: float, rng=None):
        self._ground = frozenset(ground)
        if not self._ground:
            raise BudgetError("ground set must be non-empty")
        if r <= 0:
            raise BudgetError(f"r must be positive, got {r}")
        n = len(self._ground)
        k = int(expected_hidden)
        if not (0 < k <= n):
            raise BudgetError(f"expected hidden size must be in 1..{n}, got {k}")
        gen = as_generator(rng)
        mask = gen.random(n) < (k / n)
        ordered = sorted(self._ground, key=repr)
        self.hidden: FrozenSet[Hashable] = frozenset(
            e for e, m in zip(ordered, mask) if m
        ) or frozenset({ordered[int(gen.integers(n))]})
        self.r = float(r)
        self.query_count = 0

    @property
    def ground_set(self) -> FrozenSet[Hashable]:
        return self._ground

    def intersection_size(self, subset: FrozenSet[Hashable]) -> int:
        return len(frozenset(subset) & self.hidden)

    def value(self, subset: FrozenSet[Hashable]) -> float:
        self.query_count += 1
        g = self.intersection_size(subset)
        return float(max(1, math.ceil(g / self.r)))

    def optimum(self) -> float:
        """f(S*) — what the adversary knows the best set is worth."""
        return float(max(1, math.ceil(len(self.hidden) / self.r)))


def subadditive_secretary(
    stream: SecretaryStream,
    k: int,
    *,
    rng=None,
) -> SecretaryResult:
    """The O(sqrt(n))-competitive algorithm for subadditive utilities.

    Randomises, with the coins of
    :func:`~repro.online.policies.build_policy`, between the two
    complementary strategies:

    * best-singleton (classical rule) — k-competitive,
    * random segment of size <= k hired wholesale — (n/k)-competitive.

    At ``k = sqrt(n)`` both are O(sqrt(n)), matching the lower bound.
    """
    if k <= 0:
        raise BudgetError(f"k must be positive, got {k}")
    policy = build_policy("subadditive", stream.n, k, rng)
    return run_online(stream.utility, stream, policy)
