"""Algorithm 3 — the submodular matroid secretary problem (Theorem 3.1.2).

Maximize a submodular function online subject to independence in ``l``
given matroids, O(l log^2 r)-competitive where ``r`` is the largest rank.

Structure of the algorithm (Section 3.3):

* only the *first half* of the stream is used for hiring, which keeps —
  in expectation — a large fraction of some near-optimal solution
  available for augmentation at every point;
* the analysis works against a refined optimum ``S*`` whose size is
  unknown, so the algorithm guesses ``k = |S*|`` uniformly from the
  log-scale pool ``{1, 2, 4, ..., 2^ceil(log2 r)}`` (the log r guess
  pool is one of the two log factors in the ratio);
* when the guess is small (``k = O(log r)``) hiring the single best
  item of the first half suffices; otherwise Algorithm 1 runs on the
  first half with every hire additionally required to keep the selection
  independent in all matroids.

The guess dispatch and both branches live in
:class:`repro.online.policies.MatroidSecretaryPolicy`; this wrapper
draws the guess and runs the policy over the stream through
:func:`~repro.online.driver.run_online`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import BudgetError
from repro.matroids.base import Matroid
from repro.online.driver import run_online
from repro.online.policies import MatroidSecretaryPolicy
from repro.online.results import SecretaryResult
from repro.rng import as_generator

if TYPE_CHECKING:
    from repro.secretary.stream import SecretaryStream

__all__ = ["matroid_submodular_secretary"]


def matroid_submodular_secretary(
    stream: SecretaryStream,
    matroids: Sequence[Matroid],
    *,
    rng=None,
    k_estimate: Optional[int] = None,
) -> SecretaryResult:
    """Algorithm 3 over *stream* subject to all of *matroids*.

    Parameters
    ----------
    matroids:
        One or more independence systems over (a superset of) the
        stream's ground set; hires must stay independent in all of them.
    k_estimate:
        Override the random guess of ``|S*|`` (the benchmarks sweep it
        to expose the guess pool's effect; ``None`` = paper behaviour).
    """
    if not matroids:
        raise BudgetError("need at least one matroid; use Algorithm 1 for none")
    gen = as_generator(rng)
    r = max(1, max(m.rank() for m in matroids))
    log_r = max(1, math.ceil(math.log2(r))) if r > 1 else 1

    if k_estimate is not None:
        k = int(k_estimate)
        if k <= 0:
            raise BudgetError(f"k_estimate must be positive, got {k_estimate}")
    else:
        pool: List[int] = [2**i for i in range(log_r + 1)]
        k = int(pool[int(gen.integers(len(pool)))])

    return run_online(stream.utility, stream, MatroidSecretaryPolicy(matroids, k))
