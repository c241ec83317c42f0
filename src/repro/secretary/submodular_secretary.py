"""Algorithms 1 and 2 — the (non-)monotone submodular secretary problem.

Algorithm 1 (monotone, Theorem 3.1.1, competitive ratio 1/(7e)):
partition the arrival stream into ``k`` equal segments and run one
classical-secretary subroutine per segment on the *marginal* value
``g_i(a) = f(T_{i-1} + a) - f(T_{i-1})``.  Algorithm 2 (non-monotone,
8e^2-competitive): split the stream into two halves and run Algorithm 1
on a uniformly random half.

The decision logic lives in
:class:`repro.online.policies.SegmentedSubmodularPolicy` — an explicit
state machine the unified runtime can drive over any arrival process,
suspend, and resume.  These wrappers keep the paper-facing API: they
configure the policy (Algorithm 2's coin is flipped by
:func:`~repro.online.policies.build_policy`) and return
:func:`~repro.online.driver.run_online` over the
:class:`~repro.secretary.stream.SecretaryStream`, one arrival per batch.
Both algorithms accept an optional feasibility predicate ``can_take(T,
a)`` so the matroid and knapsack variants (Algorithm 3 / Section 3.4)
can reuse the machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.online.driver import run_online
from repro.online.policies import CanTake, SegmentedSubmodularPolicy, build_policy
from repro.online.results import SecretaryResult, SegmentTrace

if TYPE_CHECKING:
    from repro.secretary.stream import SecretaryStream

__all__ = [
    "SecretaryResult",
    "SegmentTrace",
    "monotone_submodular_secretary",
    "nonmonotone_submodular_secretary",
]


def monotone_submodular_secretary(
    stream: SecretaryStream,
    k: int,
    *,
    can_take: Optional[CanTake] = None,
) -> SecretaryResult:
    """Algorithm 1: hire at most k, 1/(7e)-competitive for monotone f."""
    return run_online(
        stream.utility, stream,
        SegmentedSubmodularPolicy(k, window_n=stream.n, can_take=can_take),
    )


def nonmonotone_submodular_secretary(
    stream: SecretaryStream,
    k: int,
    rng=None,
) -> SecretaryResult:
    """Algorithm 2: random-half trick, 8e^2-competitive for any submodular f.

    With probability 1/2 runs Algorithm 1 on the first half of the
    stream (ignoring the second entirely); otherwise skips the first
    half and runs on the second.
    """
    policy = build_policy("nonmonotone", stream.n, k, rng)
    return run_online(stream.utility, stream, policy)
