"""Awake intervals and candidate-interval enumeration.

An :class:`AwakeInterval` is a (processor, [start, end]) pair — the unit
the cost oracle prices and the unit the greedy buys.  Time is discrete:
the horizon is slots ``0 .. horizon-1`` and an interval covers the
inclusive slot range ``start .. end`` (so its length is
``end - start + 1``), matching the paper's "a processor need not be in
use for an entire interval it is turned on".

Candidate enumeration.  The greedy needs an explicit (or oracle-backed)
list of purchasable intervals.  Enumerating all ``O(T^2)`` ranges per
processor is exact but wasteful; restricting endpoints to *event
points* — time slots some job can actually use on that processor — is
lossless for minimal-cost solutions under any cost model that is
monotone under interval shrinking (all models in
:mod:`repro.scheduling.power` are, except where unavailability makes
shrinking *necessary*, which event-point enumeration also respects
because infinite-cost intervals are simply never picked).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Hashable, Iterable, List, Tuple

from repro.errors import InvalidInstanceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduling.instance import ScheduleInstance

__all__ = ["AwakeInterval", "enumerate_candidate_intervals", "merge_intervals"]

Processor = Hashable
Slot = Tuple[Processor, int]


@dataclass(frozen=True, order=True)
class AwakeInterval:
    """An awake interval ``[start, end]`` (inclusive) on *processor*."""

    processor: Processor
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise InvalidInstanceError(
                f"invalid interval [{self.start}, {self.end}] on {self.processor!r}"
            )

    @property
    def length(self) -> int:
        """Number of time slots the interval covers."""
        return self.end - self.start + 1

    def slots(self) -> FrozenSet[Slot]:
        """The (processor, time) pairs this interval makes available."""
        return frozenset((self.processor, t) for t in range(self.start, self.end + 1))

    def contains(self, slot: Slot) -> bool:
        proc, t = slot
        return proc == self.processor and self.start <= t <= self.end

    def overlaps(self, other: "AwakeInterval") -> bool:
        return (
            self.processor == other.processor
            and self.start <= other.end
            and other.start <= self.end
        )


def merge_intervals(intervals: Iterable[AwakeInterval]) -> List[AwakeInterval]:
    """Coalesce overlapping/adjacent intervals per processor.

    Used when reporting a schedule: the greedy may buy overlapping
    ranges, but the physical awake pattern is their union.
    """
    by_proc: Dict[Processor, List[AwakeInterval]] = {}
    for iv in intervals:
        by_proc.setdefault(iv.processor, []).append(iv)
    merged: List[AwakeInterval] = []
    for proc in sorted(by_proc, key=repr):
        runs = sorted(by_proc[proc], key=lambda iv: (iv.start, iv.end))
        current = runs[0]
        for iv in runs[1:]:
            if iv.start <= current.end + 1:
                if iv.end > current.end:
                    current = AwakeInterval(proc, current.start, iv.end)
            else:
                merged.append(current)
                current = iv
        merged.append(current)
    return merged


def enumerate_candidate_intervals(
    instance: "ScheduleInstance",
    *,
    event_points_only: bool = True,
    max_length: int | None = None,
) -> List[AwakeInterval]:
    """All purchasable intervals for *instance*.

    Parameters
    ----------
    event_points_only:
        Restrict interval endpoints to time slots some job can use on
        that processor.  Lossless for cost minimisation (see module doc)
        and typically shrinks the candidate pool by orders of magnitude.
    max_length:
        Optional cap on interval length (models hardware duty-cycle
        limits; also a useful knob for stress tests).

    Intervals whose cost is infinite (processor unavailable) are dropped
    immediately — the greedy could never pick them.  (The incremental
    solver never calls this: it builds the same event-point pool, in
    the same order, as arrays of slot windows, see
    ``solver._build_pool_event_points``.)
    """
    candidates: List[AwakeInterval] = []
    inf = float("inf")
    for proc in instance.processors:
        if event_points_only:
            times = sorted({t for job in instance.jobs for (p, t) in job.slots if p == proc})
        else:
            times = list(range(instance.horizon))
        for i, s in enumerate(times):
            for e in times[i:]:
                if max_length is not None and e - s + 1 > max_length:
                    break
                iv = AwakeInterval(proc, s, e)
                if instance.cost_of(iv) != inf:
                    candidates.append(iv)
    return candidates
