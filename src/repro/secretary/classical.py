"""The classical secretary stopping rule (Dynkin 1963).

Observe the first ``t - 1`` applicants without hiring, then hire the
first whose quality beats everything seen so far.  With ``t ~ n/e`` the
best applicant is hired with probability approaching ``1/e`` — the
constant that powers every per-segment step of Algorithm 1.  Its
streaming form, scoring each arrival with the value oracle as it
arrives, is :class:`repro.online.policies.BestSingletonPolicy` with
``strict=True``.
"""

from __future__ import annotations

import math
from typing import Hashable, Optional, Sequence, Tuple

__all__ = ["dynkin_threshold", "classical_secretary"]


def dynkin_threshold(n: int) -> int:
    """The optimal observation-window length for *n* applicants.

    Returns the number of applicants to *observe only*.  We use the
    asymptotically optimal ``floor(n / e)`` (the paper's segments use
    ``l / e`` directly); for n = 0 or 1 the window is empty.
    """
    if n <= 1:
        return 0
    return int(math.floor(n / math.e))


def classical_secretary(
    arrivals: Sequence[Tuple[Hashable, float]],
    observe: Optional[int] = None,
) -> Optional[Hashable]:
    """Run the stopping rule over ``(element, score)`` arrivals.

    Parameters
    ----------
    arrivals:
        Already-ordered arrival sequence with each element's score as
        revealed at its interview.
    observe:
        Observation-window length; defaults to :func:`dynkin_threshold`.

    Returns the hired element, or ``None`` when the rule never fires
    (every post-window score is dominated by the window's best).
    """
    n = len(arrivals)
    if n == 0:
        return None
    window = dynkin_threshold(n) if observe is None else max(0, min(observe, n))
    best_seen = -math.inf
    for element, score in arrivals[:window]:
        best_seen = max(best_seen, score)
    for element, score in arrivals[window:]:
        if score > best_seen:
            return element
    return None
