"""The oblivious "robust" top-k secretary of the conclusions (§3.6).

The paper sketches (and defers to an appendix) a simple algorithm that
hires k candidates and simultaneously approximates, for *every*
non-increasing weight vector gamma, the objective

    sum_i gamma_i * a_i      (a_1 >= a_2 >= ... the hired values, sorted)

without knowing gamma — i.e., it is a good team for "best single
member", "sum of members", and everything in between at once.

The implementation follows the natural segment strategy the thesis's
other algorithms are built from: split the stream into k near-equal
segments and run an independent classical 1/e rule *on raw values*
inside each (:class:`repro.online.policies.RobustTopKPolicy`).  Each of
the top-k elements in hindsight lands alone in its segment with
constant probability and is then hired with probability >= 1/e, so
every prefix {top-1, ..., top-j} is covered in expectation up to a
constant — which is exactly the property that makes the approximation
oblivious to gamma (a non-increasing gamma objective is a non-negative
mixture of prefix sums).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, Hashable, Mapping, Sequence

from repro.errors import BudgetError
from repro.online.driver import run_online
from repro.online.policies import RobustTopKPolicy
from repro.online.results import RobustResult

if TYPE_CHECKING:
    from repro.secretary.stream import SecretaryStream

__all__ = ["RobustResult", "robust_topk_secretary", "gamma_objective"]


def gamma_objective(
    values: Mapping[Hashable, float],
    selected: FrozenSet[Hashable],
    gamma: Sequence[float],
) -> float:
    """Evaluate sum_i gamma_i * (i-th largest selected value).

    Validates that *gamma* is non-negative and non-increasing — the
    class of objectives the oblivious guarantee covers.
    """
    g = [float(x) for x in gamma]
    if any(x < 0 for x in g):
        raise BudgetError("gamma must be non-negative")
    if any(g[i] < g[i + 1] for i in range(len(g) - 1)):
        raise BudgetError("gamma must be non-increasing")
    ranked = sorted((values[e] for e in selected), reverse=True)
    return float(sum(w * v for w, v in zip(g, ranked)))


def robust_topk_secretary(
    stream: SecretaryStream,
    values: Mapping[Hashable, float],
    k: int,
) -> RobustResult:
    """Hire <= k candidates, oblivious to the eventual gamma weighting.

    One classical-secretary subroutine per segment, thresholding on the
    candidate's raw value within the segment.
    """
    return run_online(stream.utility, stream, RobustTopKPolicy(values, k))
