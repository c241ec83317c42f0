"""Section 3.6 — the bottleneck (min-value) secretary rule.

Objective: hire exactly k secretaries; the group's efficiency is the
*minimum* individual efficiency (not submodular — the tests exhibit a
violating witness for :class:`repro.core.functions.MinValueFunction`).

The paper's simple O(k)-competitive rule
(:class:`repro.online.policies.BottleneckPolicy`): interview the first
``1/k`` fraction without hiring; let ``a`` be the best efficiency
observed; hire the first k secretaries whose efficiency surpasses
``a``.  Theorem 3.6.1 shows this hires exactly the k best with
probability at least ``1/e^{2k}`` (E11 measures that success
probability directly).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Mapping

from repro.online.driver import run_online
from repro.online.policies import BottleneckPolicy
from repro.online.results import BottleneckResult

if TYPE_CHECKING:
    from repro.secretary.stream import SecretaryStream

__all__ = ["BottleneckResult", "bottleneck_secretary"]


def bottleneck_secretary(
    stream: SecretaryStream,
    values: Mapping[Hashable, float],
    k: int,
) -> BottleneckResult:
    """Run the Section 3.6 rule; values are revealed at interview time.

    The efficiency of element ``a`` is ``values[a]`` (the stream's
    utility is not consulted — the bottleneck objective is determined by
    individual efficiencies, and the rule itself only compares scalars).
    """
    return run_online(stream.utility, stream, BottleneckPolicy(values, k))
