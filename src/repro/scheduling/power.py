"""Energy-cost models — "an arbitrary function of the interval and processor".

The paper's central modelling generalisation (Introduction, items 1-3)
is that the energy charged for keeping a processor awake during an
interval is an *arbitrary* per-(processor, interval) quantity, accessed
through a query oracle.  Each class here is such an oracle; they cover
the three motivating scenarios:

1. non-identical processors            -> :class:`PerProcessorRateCost`
2. time-varying energy price / outages -> :class:`TimeOfUseCost`,
                                          :class:`UnavailabilityCost`
3. non-affine growth in length (fans)  -> :class:`SuperlinearCost`

:class:`AffineCost` is the classical ``alpha + length`` model of
[9, 13, 31], kept both as the baseline and for the exact-reference
comparisons.  :class:`TableCost` prices explicitly enumerated intervals
(the "costs explicitly given in the input" reading of Definition 2).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.errors import InvalidInstanceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduling.intervals import AwakeInterval

__all__ = [
    "CostModel",
    "AffineCost",
    "PerProcessorRateCost",
    "TimeOfUseCost",
    "SuperlinearCost",
    "UnavailabilityCost",
    "TableCost",
]

Processor = Hashable


class CostModel(ABC):
    """Oracle pricing awake intervals: ``cost(interval) -> float >= 0``.

    Infinity encodes "this processor cannot be awake during part of the
    interval"; a negative or NaN price is refused.  Implementations must
    be deterministic so the greedy's choices are reproducible.
    """

    @abstractmethod
    def cost(self, interval: "AwakeInterval") -> float:
        """Energy charged for keeping the interval's processor awake."""

    def __call__(self, interval: "AwakeInterval") -> float:
        value = self.cost(interval)
        if not value >= 0:  # also true for NaN
            raise InvalidInstanceError(
                f"cost model returned cost {value} for {interval}; "
                "a cost must be a non-negative number"
            )
        return value

    def length_cost_table(self, processor: Processor, max_length: int):
        """Vectorized pricing when cost depends only on interval length.

        Returns ``costs`` with ``costs[L-1]`` the price of any length-L
        interval on *processor*, or ``None`` when this model's prices
        depend on the interval's position (time-of-use, outages,
        explicit tables) — callers then fall back to per-interval
        :meth:`cost` queries.  Solvers use this to price a whole
        candidate pool in one array expression.
        """
        return None


class AffineCost(CostModel):
    """Classical model: ``restart_cost + rate * length``.

    With ``rate=1`` and a common restart cost ``alpha`` this is exactly
    the energy model of Baptiste [9] and Demaine et al. [13]: total
    energy = sum over awake intervals of (alpha + interval length).
    """

    def __init__(self, restart_cost: float, rate: float = 1.0):
        if not (restart_cost >= 0 and rate >= 0):
            raise InvalidInstanceError("restart cost and rate must be non-negative numbers")
        self.restart_cost = float(restart_cost)
        self.rate = float(rate)

    def length_cost_table(self, processor: Processor, max_length: int):
        lengths = np.arange(1, max_length + 1, dtype=float)
        return self.restart_cost + self.rate * lengths

    def cost(self, interval: "AwakeInterval") -> float:
        return self.restart_cost + self.rate * interval.length


class PerProcessorRateCost(CostModel):
    """Non-identical processors: per-processor restart cost and rate.

    Motivation 1 from the introduction — "different processors do not
    necessarily consume energy at the same rate, so we cannot scale".
    """

    def __init__(
        self,
        rates: Mapping[Processor, float],
        restart_costs: Mapping[Processor, float],
    ):
        self.rates = {p: float(r) for p, r in rates.items()}
        self.restart_costs = {p: float(c) for p, c in restart_costs.items()}
        bad = [p for p in self.rates if not self.rates[p] >= 0] + [
            p for p in self.restart_costs if not self.restart_costs[p] >= 0
        ]
        if bad:
            raise InvalidInstanceError(f"negative or NaN rates/restart costs for {bad[:3]}")

    def cost(self, interval: "AwakeInterval") -> float:
        proc = interval.processor
        if proc not in self.rates or proc not in self.restart_costs:
            raise InvalidInstanceError(f"no rate configured for processor {proc!r}")
        return self.restart_costs[proc] + self.rates[proc] * interval.length

    def length_cost_table(self, processor: Processor, max_length: int):
        if processor not in self.rates or processor not in self.restart_costs:
            raise InvalidInstanceError(f"no rate configured for processor {processor!r}")
        lengths = np.arange(1, max_length + 1, dtype=float)
        return self.restart_costs[processor] + self.rates[processor] * lengths


class TimeOfUseCost(CostModel):
    """Energy priced per time slot (electricity-market tariffs).

    Motivation 2 — "optimize energy cost instead of actual energy, which
    varies substantially in energy markets over the course of a day".
    ``prices`` is a length-``horizon`` array of per-slot prices; the
    interval's cost is its restart cost plus the price mass it covers.
    An infinite price makes the slot unavailable: every interval that
    covers it costs infinity.  Prices may differ per processor via
    *per_processor_prices*.
    """

    def __init__(
        self,
        prices: Sequence[float],
        restart_cost: float = 0.0,
        per_processor_prices: Mapping[Processor, Sequence[float]] | None = None,
    ):
        self.prices = np.asarray(prices, dtype=float)
        if not (self.prices >= 0).all():
            raise InvalidInstanceError("TOU prices must be non-negative numbers")
        if not restart_cost >= 0:
            raise InvalidInstanceError("restart cost must be a non-negative number")
        self.restart_cost = float(restart_cost)
        self._cumulative = self._prefix_sums(self.prices)
        self._per_proc: Dict[Processor, np.ndarray] = {}
        self._per_proc_cum: Dict[Processor, tuple] = {}
        if per_processor_prices:
            for p, arr in per_processor_prices.items():
                a = np.asarray(arr, dtype=float)
                if not (a >= 0).all():
                    raise InvalidInstanceError(f"negative or NaN prices for processor {p!r}")
                self._per_proc[p] = a
                self._per_proc_cum[p] = self._prefix_sums(a)

    @staticmethod
    def _prefix_sums(prices: np.ndarray) -> tuple:
        """Prefix sums of the finite prices and counts of the infinite ones.

        Summing an infinite price into one prefix would price every
        later interval ``inf - inf = NaN``.
        """
        blocked = np.isinf(prices)
        return (
            np.concatenate([[0.0], np.cumsum(np.where(blocked, 0.0, prices))]),
            np.concatenate([[0], np.cumsum(blocked)]),
        )

    def cost(self, interval: "AwakeInterval") -> float:
        cum, blocked = self._per_proc_cum.get(interval.processor, self._cumulative)
        start, stop = interval.start, interval.end + 1
        if stop >= len(cum):
            raise InvalidInstanceError(
                f"interval {interval} extends past the {len(cum) - 1}-slot price horizon"
            )
        if blocked[stop] > blocked[start]:
            return math.inf
        return self.restart_cost + float(cum[stop] - cum[start])


class SuperlinearCost(CostModel):
    """Non-affine growth: ``restart_cost + scale * length ** exponent``.

    Motivation 3 — the fan effect: "the longer it stays awake, the
    faster the fan may need to run and the more energy consumed".
    ``exponent > 1`` makes long awake stretches disproportionately
    expensive, so the optimiser prefers splitting into several restarts;
    ``exponent < 1`` models economies of staying on.  The exponent must
    be finite; a length whose power exceeds a float prices at infinity
    (or at ``restart_cost`` when ``scale`` is 0).
    """

    def __init__(self, restart_cost: float, exponent: float, scale: float = 1.0):
        if not (restart_cost >= 0 and scale >= 0 and exponent >= 0):
            raise InvalidInstanceError("cost parameters must be non-negative numbers")
        if math.isinf(exponent):
            raise InvalidInstanceError(f"the exponent must be finite, got {exponent}")
        self.restart_cost = float(restart_cost)
        self.exponent = float(exponent)
        self.scale = float(scale)

    def cost(self, interval: "AwakeInterval") -> float:
        try:
            return self.restart_cost + self.scale * interval.length**self.exponent
        except OverflowError:  # the power is finite but exceeds a float
            return math.inf if self.scale > 0 else self.restart_cost


class UnavailabilityCost(CostModel):
    """Wrap a base model; infinite cost when touching an unavailable slot.

    "if a processor is not available for some time slots ... we can
    represent [it] by setting the cost of the processor to be infinity
    for these time slots."  *blocked* is a set of (processor, time)
    pairs.
    """

    def __init__(self, base: CostModel, blocked: Iterable[Tuple[Processor, int]]):
        self.base = base
        self.blocked: Set[Tuple[Processor, int]] = set(blocked)
        self._blocked_times: Dict[Processor, Set[int]] = {}
        for proc, t in self.blocked:
            self._blocked_times.setdefault(proc, set()).add(t)

    def cost(self, interval: "AwakeInterval") -> float:
        times = self._blocked_times.get(interval.processor)
        if times and any(interval.start <= t <= interval.end for t in times):
            return math.inf
        return self.base.cost(interval)


class TableCost(CostModel):
    """Explicit per-interval price table, the raw Definition 2 input form.

    Intervals absent from the table cost *default* (infinity by default:
    only listed intervals are purchasable).  This is how adversarial /
    hand-crafted experiment instances (e.g. the Set-Cover reduction)
    express their costs exactly.
    """

    def __init__(
        self,
        table: Mapping["AwakeInterval", float],
        default: float = math.inf,
    ):
        self.table = dict(table)
        bad = [iv for iv, c in self.table.items() if not c >= 0]
        if bad:
            raise InvalidInstanceError(f"negative or NaN costs in table for {bad[:3]}")
        if default != default:
            raise InvalidInstanceError("the table's default cost is NaN")
        self.default = float(default)

    def cost(self, interval: "AwakeInterval") -> float:
        return self.table.get(interval, self.default)
