"""Oracle wrappers: call counting and memoisation.

The paper's model charges algorithms per value-oracle query (explicitly
so in the subadditive hardness proof, which bounds algorithms by their
query count).  :class:`CountingOracle` makes that cost observable;
:class:`CachedOracle` removes redundant queries, which matters because
the budgeted greedy re-evaluates the same unions across iterations.
Both wrappers compose, and both are transparent ``SetFunction``s.

Every wrapper in the library — these two, the online runtime's
arrival check, fault sites and shard views — is an
:class:`OracleWrapper`, which also forwards the incremental-evaluator
API (see :mod:`repro.core.kernels`): when the wrapped function exposes
a vectorized kernel, the wrapper returns it behind its ``view`` class,
an :class:`~repro.core.kernels.EvaluatorView` carrying the wrapper's
rule, so batched consumers keep the per-candidate query accounting
that makes reported ``oracle_work`` comparable to the naive scans.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Tuple, Type

from repro.core.kernels import EvaluatorView
from repro.core.submodular import Element, SetFunction

__all__ = ["OracleWrapper", "CountingOracle", "CachedOracle"]


class OracleWrapper(SetFunction):
    """A transparent ``SetFunction`` over *base*.

    The ground set comes from *base*; each subclass implements
    :meth:`value` with its rule and carries the same rule to the kernel
    evaluator below through its :attr:`view` class.
    """

    #: The :class:`EvaluatorView` subclass wrapped around a kernel from
    #: below, or ``None`` to hand the kernel out unwrapped.
    view: Optional[Type[EvaluatorView]] = None

    def __init__(self, base: SetFunction):
        self.base = base

    @property
    def ground_set(self) -> FrozenSet[Element]:
        return self.base.ground_set

    def fast_evaluator(self, backend=None):
        # With no kernel below, ``None`` makes the generic fallback run
        # on *this* wrapper, so each value query meets its rule exactly
        # as before the kernel layer.  ``backend`` passes through
        # untouched: selection is the base function's concern.
        inner = getattr(self.base, "fast_evaluator", lambda backend=None: None)(backend)
        if inner is None or self.view is None:
            return inner
        return self.view(inner, self)


class _CountingView(EvaluatorView):
    """Bills one query per scored candidate (or candidate set).

    That is one ``value`` call per candidate, the price the naive scan
    pays.  Per-arrival consumers (the secretary scans) report
    bit-identical counts; batch consumers may differ by the few
    candidates a naive scan would have skipped without querying (e.g.
    subsets already inside the selection), which stays well inside the
    bench gate's oracle-work tolerance.  State updates are unbilled:
    every consumer that grows a counting-stack selection pairs the
    growth with a counted authoritative ``value()`` call (the greedys)
    or with ``advance()`` on a value it already paid for (the streaming
    scans), so billing them would double-charge.
    """

    def __init__(self, inner, owner: "CountingOracle"):
        super().__init__(inner, owner)
        # The evaluator starts knowing F(empty) — the one query the
        # naive path's construction makes (and is billed for).
        owner.calls += 1

    def _query(self, elements, count: int) -> None:
        self._owner.calls += count

    def reset(self, selection: Iterable[Element] = ()) -> None:
        # The naive fallback evaluates F(selection) on reset — bill the
        # same one query so batch_marginals reports alike on both paths.
        self._owner.calls += 1
        super().reset(selection)


class CountingOracle(OracleWrapper):
    """Pass-through oracle that counts :meth:`value` invocations.

    The E12 ablation benchmark compares plain vs. lazy greedy by wrapping
    the same base utility in one of these and reading ``calls`` after.
    Batched kernel queries routed through :meth:`incremental_evaluator`
    count one call per scored candidate (Definition 1 charges per set
    queried, and a batch of ``m`` marginals is ``m`` set queries).
    """

    view = _CountingView

    def __init__(self, base: SetFunction):
        super().__init__(base)
        self.calls = 0

    def value(self, subset: FrozenSet[Element]) -> float:
        self.calls += 1
        return self.base.value(subset)

    def reset(self) -> None:
        self.calls = 0


class CachedOracle(OracleWrapper):
    """Memoising oracle keyed on the frozen subset.

    Safe because all library utilities are pure functions of the subset.
    ``hits``/``misses`` counters let benchmarks report cache efficiency.
    A kernel below is handed out unwrapped: kernel state already
    subsumes the memoisation (it never recomputes covered work), and
    with no kernel the generic fallback runs on this oracle, so its
    queries keep hitting the memo.
    """

    def __init__(self, base: SetFunction):
        super().__init__(base)
        self._cache: Dict[FrozenSet[Element], float] = {}
        self._marginal_cache: Dict[Tuple[FrozenSet[Element], FrozenSet[Element]], float] = {}
        self.hits = 0
        self.misses = 0

    def value(self, subset: FrozenSet[Element]) -> float:
        key = subset if isinstance(subset, frozenset) else frozenset(subset)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = self.base.value(key)
        self._cache[key] = result
        return result

    def marginal_gain(
        self, selection: FrozenSet[Element], items: FrozenSet[Element]
    ) -> float:
        """``F(selection | items) - F(selection)``, memoised per selection.

        The cache key is the ``(selection, items)`` fingerprint pair —
        frozensets memoise their own hash after the first computation, so
        repeat probes of the same pair (a lazy greedy re-scoring a popped
        candidate, or a sweep replaying a cached instance) cost two dict
        lookups instead of two oracle evaluations.  Routed through the
        value cache, so a gain probe also warms plain :meth:`value` calls
        for the same union.
        """
        selection = selection if isinstance(selection, frozenset) else frozenset(selection)
        items = items if isinstance(items, frozenset) else frozenset(items)
        key = (selection, items)
        cached = self._marginal_cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        gain = self.value(selection | items) - self.value(selection)
        self._marginal_cache[key] = gain
        return gain

    def clear(self) -> None:
        self._cache.clear()
        self._marginal_cache.clear()
        self.hits = 0
        self.misses = 0
