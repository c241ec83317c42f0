"""Set-function abstractions and structural checkers.

The paper manipulates utilities exclusively through value oracles
(Definition 1).  :class:`SetFunction` is that oracle: a callable from
finite sets of hashable elements to reals, with helpers for marginal
gains.  Concrete utilities live in :mod:`repro.core.functions` and
:mod:`repro.scheduling` (the matching utilities of Lemmas 2.2.2/2.3.2).

Two empirical checkers, :func:`check_submodular` and
:func:`check_monotone`, probe the lattice inequalities on random (or
exhaustive, for small ground sets) pairs; the property-based test suite
uses them to validate every utility the library ships — including the
matching functions whose submodularity is the paper's key structural
lemma.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import chain, combinations
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Optional

import numpy as np

from repro.errors import NotSubmodularError
from repro.rng import as_generator

__all__ = [
    "SetFunction",
    "LambdaSetFunction",
    "TruncatedFunction",
    "RestrictedFunction",
    "check_monotone",
    "check_submodular",
    "powerset",
]

Element = Hashable


def _as_frozen(s: Iterable[Element]) -> FrozenSet[Element]:
    return s if isinstance(s, frozenset) else frozenset(s)


class SetFunction(ABC):
    """A real-valued function on subsets of a finite ground set.

    Subclasses implement :meth:`value`; everything else (marginals,
    call syntax, normalisation checks) is provided here.
    """

    @property
    @abstractmethod
    def ground_set(self) -> FrozenSet[Element]:
        """The universe the function is defined on."""

    @abstractmethod
    def value(self, subset: FrozenSet[Element]) -> float:
        """Evaluate the function on *subset* (a subset of the ground set)."""

    # -- conveniences -------------------------------------------------

    def __call__(self, subset: Iterable[Element]) -> float:
        return self.value(_as_frozen(subset))

    def marginal(self, subset: Iterable[Element], extra: Iterable[Element]) -> float:
        """Return ``F(subset | extra) - F(subset)``.

        *extra* may be a single-element iterable or a whole set; the gain
        of adding all of it at once is returned.
        """
        base = _as_frozen(subset)
        return self.value(base | _as_frozen(extra)) - self.value(base)

    def marginal_element(self, subset: Iterable[Element], element: Element) -> float:
        """Return ``F(subset + {element}) - F(subset)``."""
        base = _as_frozen(subset)
        return self.value(base | {element}) - self.value(base)

    def fast_evaluator(self, backend: Optional[str] = None):
        """A vectorized kernel evaluator, or ``None`` when there is none.

        Concrete families in :mod:`repro.core.functions` override this;
        oracle wrappers forward it (adding accounting / arrival checks).
        Kept separate from :meth:`incremental_evaluator` so probing for
        a kernel never constructs — or queries through — a throwaway
        naive evaluator.

        *backend* selects the kernel backend for families that have
        more than one (``"auto"``/``None``, ``"dense"``, ``"sparse"``,
        or ``"naive"`` to force the generic fallback); see
        :func:`repro.core.kernels.resolve_backend`.
        """
        return None

    def incremental_evaluator(self, backend: Optional[str] = None) -> "IncrementalEvaluator":
        """A stateful incremental view of this function (see kernels).

        Returns the family's vectorized kernel when one exists
        (``fast = True``), else the generic (naive) fallback, which
        answers every query through :meth:`value` — correct for any
        oracle, including user-supplied :class:`LambdaSetFunction`
        wrappers.  Consumer loops check ``fast`` before switching to
        batched scoring.  ``backend="naive"`` forces the fallback.
        """
        from repro.core.kernels import IncrementalEvaluator

        fast = None if backend == "naive" else self.fast_evaluator(backend)
        return fast if fast is not None else IncrementalEvaluator(self)

    def batch_marginals(
        self,
        subset: Iterable[Element],
        candidates,
        *,
        backend: Optional[str] = None,
    ):
        """``F(subset + c) - F(subset)`` for every single-element candidate.

        One-shot form of the incremental API: builds an evaluator at
        *subset* and scores all *candidates* in one pass (vectorized for
        the kernel-backed families, a python loop otherwise) into a
        plain array.  Greedy loops that score the same pool repeatedly
        should hold on to an evaluator instead of calling this per round.
        """
        ev = self.incremental_evaluator(backend=backend)
        ev.reset(subset)
        return ev.gains(list(candidates))

    def singleton_values(self) -> Dict[Element, float]:
        """``{e: value({e})}`` for every element, keyed in ``repr`` order.

        The raw-value rules (robust, bottleneck) and the sorted arrival
        orders read this map.  A family whose arrays already hold its
        singleton values overrides this with an exact read of them.
        """
        return {e: self.value(frozenset({e})) for e in sorted(self.ground_set, key=repr)}

    def is_normalized(self, tol: float = 1e-12) -> bool:
        """True when ``F(empty) == 0`` (all paper utilities are)."""
        return abs(self.value(frozenset())) <= tol


class LambdaSetFunction(SetFunction):
    """Wrap an arbitrary callable as a :class:`SetFunction`.

    Handy for tests and for user-supplied oracles: the paper's model
    only assumes oracle access, so any callable qualifies.
    """

    def __init__(self, ground: Iterable[Element], fn: Callable[[FrozenSet[Element]], float]):
        self._ground = frozenset(ground)
        self._fn = fn

    @property
    def ground_set(self) -> FrozenSet[Element]:
        return self._ground

    def value(self, subset: FrozenSet[Element]) -> float:
        return float(self._fn(_as_frozen(subset)))


class TruncatedFunction(SetFunction):
    """``min(cap, F)`` — the truncation the greedy of Lemma 2.1.2 optimises.

    Truncating a monotone submodular function at a constant preserves both
    monotonicity and submodularity, which is why the greedy's
    "count increments only up to x" rule keeps its guarantee.
    """

    def __init__(self, base: SetFunction, cap: float):
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        self.base = base
        self.cap = float(cap)

    @property
    def ground_set(self) -> FrozenSet[Element]:
        return self.base.ground_set

    def value(self, subset: FrozenSet[Element]) -> float:
        return min(self.cap, self.base.value(_as_frozen(subset)))


class RestrictedFunction(SetFunction):
    """``F`` restricted to a sub-universe, i.e. ``G(S) = F(S & allowed)``.

    Algorithm 2 (the non-monotone secretary) runs Algorithm 1 on one half
    of the stream; restriction is how that projection is expressed.
    """

    def __init__(self, base: SetFunction, allowed: Iterable[Element]):
        self.base = base
        self._allowed = frozenset(allowed)
        if not self._allowed <= base.ground_set:
            raise ValueError("allowed set must be a subset of the base ground set")

    @property
    def ground_set(self) -> FrozenSet[Element]:
        return self._allowed

    def value(self, subset: FrozenSet[Element]) -> float:
        return self.base.value(_as_frozen(subset) & self._allowed)


def powerset(items: Iterable[Element]) -> "chain[tuple[Element, ...]]":
    """All subsets of *items*, smallest first (used by exhaustive checks)."""
    pool = list(items)
    return chain.from_iterable(combinations(pool, r) for r in range(len(pool) + 1))


def check_monotone(
    fn: SetFunction,
    *,
    trials: int = 200,
    rng=None,
    exhaustive_limit: int = 10,
    tol: float = 1e-9,
) -> bool:
    """Empirically verify ``A <= B  =>  F(A) <= F(B)``.

    Exhaustive when the ground set has at most *exhaustive_limit*
    elements, randomised otherwise.  Returns ``True`` or raises
    :class:`NotSubmodularError` with a witness (reusing the error type
    for both lattice properties keeps the caller-side handling simple).
    """
    ground = sorted(fn.ground_set, key=repr)
    if len(ground) <= exhaustive_limit:
        for combo in powerset(ground):
            a = frozenset(combo)
            fa = fn.value(a)
            for e in ground:
                if e in a:
                    continue
                if fn.value(a | {e}) < fa - tol:
                    raise NotSubmodularError(
                        f"monotonicity violated at A={set(a)}, e={e!r}", witness=(a, e)
                    )
        return True
    gen = as_generator(rng)
    n = len(ground)
    for _ in range(trials):
        mask = gen.random(n) < gen.random()
        a = frozenset(g for g, m in zip(ground, mask) if m)
        extra = ground[int(gen.integers(n))]
        if extra in a:
            continue
        if fn.value(a | {extra}) < fn.value(a) - tol:
            raise NotSubmodularError(
                f"monotonicity violated at A={set(a)}, e={extra!r}", witness=(a, extra)
            )
    return True


def check_submodular(
    fn: SetFunction,
    *,
    trials: int = 200,
    rng=None,
    exhaustive_limit: int = 8,
    tol: float = 1e-9,
) -> bool:
    """Empirically verify the diminishing-returns characterisation.

    Checks ``F(A+z) - F(A) >= F(B+z) - F(B)`` for ``A ⊆ B`` (the paper's
    Definition 3, equivalent to the lattice form of Definition 1).
    Exhaustive below *exhaustive_limit* ground-set elements, randomised
    above.  Raises :class:`NotSubmodularError` with the violating triple.
    """
    ground = sorted(fn.ground_set, key=repr)
    n = len(ground)

    def _check(a: FrozenSet[Element], b: FrozenSet[Element], z: Element) -> None:
        gain_a = fn.value(a | {z}) - fn.value(a)
        gain_b = fn.value(b | {z}) - fn.value(b)
        if gain_a < gain_b - tol:
            raise NotSubmodularError(
                f"submodularity violated: A={set(a)} B={set(b)} z={z!r} "
                f"gain_A={gain_a} < gain_B={gain_b}",
                witness=(a, b, z),
            )

    if n <= exhaustive_limit:
        for combo_b in powerset(ground):
            b = frozenset(combo_b)
            for combo_a in powerset(sorted(b, key=repr)):
                a = frozenset(combo_a)
                for z in ground:
                    if z in b:
                        continue
                    _check(a, b, z)
        return True

    gen = as_generator(rng)
    for _ in range(trials):
        mask_b = gen.random(n) < gen.random()
        b = frozenset(g for g, m in zip(ground, mask_b) if m)
        sub_mask = gen.random(len(b)) < gen.random() if b else np.empty(0)
        a = frozenset(g for g, m in zip(sorted(b, key=repr), sub_mask) if m)
        z = ground[int(gen.integers(n))]
        if z in b:
            continue
        _check(a, b, z)
    return True
