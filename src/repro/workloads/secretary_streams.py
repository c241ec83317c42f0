"""Utility generators for the secretary experiments.

Each helper builds a concrete submodular utility (plus any side data the
experiment needs) over a fresh ground set of ``n`` elements:

* :func:`additive_values` — i.i.d. values (uniform or heavy-tailed
  lognormal), the multiple-choice secretary benchmark [36];
* :func:`coverage_utility` — secretaries covering random skill subsets,
  the Max-Cover-flavoured monotone utility;
* :func:`facility_utility` — facility-location benefit matrices;
* :func:`cut_utility` — weighted cut functions on G(n, p) graphs, the
  canonical non-monotone family for Algorithm 2.

The arrival order is not built here: a
:class:`~repro.secretary.stream.SecretaryStream` draws the paper's
uniform order, and ``SecretaryStream(fn, order=build_arrival_schedule(
process, fn, seed).order)`` replays any registered arrival process
through the same paper-facing functions.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.functions import (
    AdditiveFunction,
    CoverageFunction,
    CutFunction,
    FacilityLocationFunction,
    WeightedCoverageFunction,
)
from repro.errors import InvalidInstanceError
from repro.rng import as_generator

__all__ = [
    "STREAM_FAMILIES",
    "additive_values",
    "coverage_utility",
    "facility_utility",
    "cut_utility",
    "knapsack_weights",
    "stream_utility",
    "sparse_coverage_utility",
    "sparse_cut_utility",
    "sparse_additive_utility",
]

STREAM_FAMILIES = ("additive", "coverage", "facility", "cut")
#: The params :func:`stream_utility` reads (each family reads its own).
_STREAM_PARAMS = ("distribution", "skills_per_secretary", "edge_probability")


def stream_utility(family: str, n: int, *, aux: int = 0, rng=None, **params):
    """Build one stream-utility family by name (the single source of
    family dispatch and aux-size defaults).

    Both the engine's secretary adapters and the online session layer
    construct their instances through this function, so a given
    ``(family, n, aux, seed)`` names the same utility everywhere.
    ``aux`` is the family-specific auxiliary size (coverage universe /
    facility clients; 0 picks the default); *params* forwards the
    family's knobs (``distribution``, ``skills_per_secretary``,
    ``edge_probability``).  Any other param is refused, for every
    family, rather than silently building the default instance.
    """
    unknown = sorted(set(params) - set(_STREAM_PARAMS))
    if unknown:
        raise InvalidInstanceError(
            f"unknown stream-utility params {unknown}; known: {_STREAM_PARAMS}"
        )
    gen = as_generator(rng)
    fn = None
    if family == "additive":
        fn, _ = additive_values(
            n, distribution=str(params.get("distribution", "uniform")), rng=gen
        )
    elif family == "coverage":
        universe = aux if aux > 0 else max(1, n // 3)
        fn = coverage_utility(
            n, universe,
            skills_per_secretary=int(params.get("skills_per_secretary", 4)),
            rng=gen,
        )
    elif family == "facility":
        clients = aux if aux > 0 else max(2, n // 4)
        fn = facility_utility(n, clients, rng=gen)
    elif family == "cut":
        fn = cut_utility(
            n, edge_probability=float(params.get("edge_probability", 0.3)), rng=gen
        )
    if fn is None:
        raise InvalidInstanceError(
            f"unknown stream-utility family {family!r}; known: {STREAM_FAMILIES}"
        )
    return fn


def additive_values(
    n: int,
    *,
    distribution: str = "uniform",
    rng=None,
) -> Tuple[AdditiveFunction, Dict[str, float]]:
    """i.i.d. per-element values; returns (utility, raw values)."""
    gen = as_generator(rng)
    if n <= 0:
        raise InvalidInstanceError(f"n must be positive, got {n}")
    if distribution == "uniform":
        raw = gen.random(n)
    elif distribution == "lognormal":
        raw = gen.lognormal(mean=0.0, sigma=1.0, size=n)
    else:
        raise InvalidInstanceError(f"unknown distribution {distribution!r}")
    values = {f"s{i}": float(v) for i, v in enumerate(raw)}
    return AdditiveFunction(values), values


def knapsack_weights(
    elements,
    n_knapsacks: int,
    *,
    low: float = 0.05,
    high: float = 0.5,
    rng=None,
) -> Dict:
    """Heterogeneous per-element weight vectors for ``l`` unit knapsacks.

    Weights are i.i.d. uniform on ``[low, high)``.  Elements are visited
    in sorted-by-repr order so the draws land on the same elements in
    every process (set iteration order is hash-randomised).
    """
    gen = as_generator(rng)
    if n_knapsacks <= 0:
        raise InvalidInstanceError(
            f"n_knapsacks must be positive, got {n_knapsacks}"
        )
    if not (0.0 <= low < high):
        raise InvalidInstanceError(f"need 0 <= low < high, got [{low}, {high})")
    order = sorted(elements, key=repr)
    span = high - low
    # One draw, row-major: the same doubles, in the same order, as a
    # ``gen.random()`` per element and knapsack.
    return dict(zip(order, (low + span * gen.random((len(order), n_knapsacks))).tolist()))


def coverage_utility(
    n: int,
    universe_size: int,
    *,
    skills_per_secretary: int = 4,
    rng=None,
) -> CoverageFunction:
    """Each secretary covers a random subset of a skill universe.

    Secretary ``s{i}`` covers the skills ``u{j}`` drawn by, in turn for
    ``i = 0..n-1``, ``size = min(universe_size, gen.integers(1,
    skills_per_secretary + 1))`` and ``gen.choice(universe_size, size,
    replace=False)``.  Those calls are not made: the draws are replayed
    from blocks of the generator's 32-bit stream
    (:func:`_coverage_rows`), and the rows go straight into the named
    :meth:`CoverageFunction.from_arrays` form (elements ``s{i}``, items
    ``u{j}``), so the instance and the generator's end state are
    exactly the loop's.
    """
    gen = as_generator(rng)
    if n <= 0 or universe_size <= 0:
        raise InvalidInstanceError("n and universe_size must be positive")
    if not (1 <= skills_per_secretary <= 2**32 and universe_size < 2**32):
        # Past these bounds numpy draws 64-bit words, which is not replayed.
        raise InvalidInstanceError(
            "need 1 <= skills_per_secretary <= 2**32 and universe_size < 2**32, "
            f"got {skills_per_secretary} and {universe_size}"
        )
    indptr, indices = _coverage_rows(gen, n, universe_size, skills_per_secretary)
    # Name only the drawn skills: the kernel drops uncovered items anyway.
    drawn, indices = np.unique(np.asarray(indices, dtype=np.int64), return_inverse=True)
    return CoverageFunction.from_arrays(
        indptr, indices,
        elements=[f"s{i}" for i in range(n)],
        items=[f"u{j}" for j in drawn.tolist()],
    )


def _coverage_rows(gen, n: int, universe: int, skills: int):
    """CSR rows of :func:`coverage_utility`'s draws, replayed.

    ``integers(1, s + 1)`` and ``choice(U, k, replace=False)`` read the
    ``next_uint32`` stream that ``integers(0, 2**32, dtype=np.uint32)``
    returns in order.  A value in ``[0, r]`` is numpy's Lemire draw:
    none if ``r == 0``, else ``u * (r + 1) >> 32``, redrawn while the
    low word is below ``(2**32 - 1 - r) % (r + 1)``.  ``choice`` runs
    Floyd's algorithm and then shuffles (which only costs draws here),
    unless ``U > 10000`` and ``k > U // 50``: then it tail-shuffles a
    virtual ``arange(U)``.  The generator ends advanced by exactly the
    words the loop reads.
    """
    state = gen.bit_generator.state
    block = min(n * (2 * min(skills, universe) + 2), 1 << 16)
    words: List[int] = []
    used = 0

    def bounded(r: int) -> int:
        nonlocal used
        if r == 0:
            return 0
        span = r + 1
        while True:
            if used == len(words):
                words.extend(gen.integers(0, 2**32, size=block, dtype=np.uint32).tolist())
            m = words[used] * span
            used += 1
            low = m & 0xFFFFFFFF
            if low >= span or low >= (0xFFFFFFFF - r) % span:
                return m >> 32

    indptr = [0]
    indices: List[int] = []
    for _ in range(n):
        k = min(universe, 1 + bounded(skills - 1))
        if universe > 10000 and k > universe // 50:
            perm: Dict[int, int] = {}
            for i in range(universe - 1, max(universe - k, 1) - 1, -1):
                j = bounded(i)
                perm[i], perm[j] = perm.get(j, j), perm.get(i, i)
            indices.extend(perm.get(i, i) for i in range(universe - k, universe))
        else:
            picked = set()
            for j in range(universe - k, universe):
                v = bounded(j)
                picked.add(j if v in picked else v)
            for i in range(k - 1, 0, -1):
                bounded(i)
            indices.extend(picked)
        indptr.append(len(indices))
    gen.bit_generator.state = state
    gen.integers(0, 2**32, size=used, dtype=np.uint32)
    return indptr, indices


def facility_utility(
    n: int,
    n_clients: int,
    *,
    rng=None,
) -> FacilityLocationFunction:
    """Random non-negative client-benefit matrix (uniform [0, 1))."""
    gen = as_generator(rng)
    if n <= 0 or n_clients <= 0:
        raise InvalidInstanceError("n and n_clients must be positive")
    benefit = gen.random((n_clients, n))
    return FacilityLocationFunction._adopt([f"s{i}" for i in range(n)], benefit)


def cut_utility(
    n: int,
    *,
    edge_probability: float = 0.3,
    rng=None,
) -> CutFunction:
    """Weighted cut function of a G(n, p) graph — non-monotone submodular."""
    gen = as_generator(rng)
    if n <= 0:
        raise InvalidInstanceError(f"n must be positive, got {n}")
    if not (0.0 <= edge_probability <= 1.0):
        raise InvalidInstanceError("edge probability must be in [0, 1]")
    vertices = [f"s{i}" for i in range(n)]
    edges: List[Tuple[str, str, float]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if gen.random() < edge_probability:
                edges.append((vertices[i], vertices[j], float(gen.random())))
    return CutFunction(vertices, edges)


# -- array-built sparse instances (10^6-element ground sets) -----------------
#
# The mapping-based builders above top out around n≈10^4 — python dicts
# of frozensets dominate memory long before the kernels do.  These
# builders generate the instance directly in CSR/COO numpy arrays and
# hand it to the ``from_arrays`` constructors, so a million-element
# utility costs its nnz and nothing more.  Elements are the integers
# ``0..n-1`` (positional kernels skip the element-index dict entirely).


def sparse_coverage_utility(
    n: int,
    universe_size: int,
    *,
    skills_per_secretary: int = 6,
    weighted: bool = False,
    rng=None,
) -> CoverageFunction:
    """CSR-built (weighted) coverage over integer elements/items.

    Per-element item draws are uniform **with replacement** and
    deduplicated during kernel canonicalization, so a row's effective
    size can be slightly below its draw count — the price of fully
    vectorized generation (no per-element ``choice`` loop, which is
    what makes n=10^6 constructible in seconds).
    """
    gen = as_generator(rng)
    if n <= 0 or universe_size <= 0:
        raise InvalidInstanceError("n and universe_size must be positive")
    if skills_per_secretary <= 0:
        raise InvalidInstanceError("skills_per_secretary must be positive")
    hi = min(universe_size, skills_per_secretary) + 1
    sizes = gen.integers(1, hi, size=n) if hi > 2 else np.ones(n, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    indices = gen.integers(0, universe_size, size=int(indptr[-1]))
    if weighted:
        weights = gen.random(universe_size)
        return WeightedCoverageFunction.from_arrays(
            indptr, indices, weights, n_items=universe_size
        )
    return CoverageFunction.from_arrays(indptr, indices, n_items=universe_size)


def sparse_cut_utility(
    n: int,
    *,
    avg_degree: float = 8.0,
    rng=None,
) -> CutFunction:
    """COO-built weighted cut on a uniform random multigraph.

    Draws ``n · avg_degree / 2`` endpoint pairs uniformly (self-loops
    dropped, parallel edges consolidated by weight sum in the kernel) —
    the sparse analogue of :func:`cut_utility`'s G(n, p), constructible
    at n=10^6 where the O(n²) pair scan is not.
    """
    gen = as_generator(rng)
    if n <= 0:
        raise InvalidInstanceError(f"n must be positive, got {n}")
    if avg_degree <= 0:
        raise InvalidInstanceError(f"avg_degree must be positive, got {avg_degree}")
    m = max(1, int(n * avg_degree / 2))
    u = gen.integers(0, n, size=m)
    v = gen.integers(0, n, size=m)
    w = gen.random(m)
    return CutFunction.from_arrays(n, u, v, w)


def sparse_additive_utility(
    n: int,
    *,
    distribution: str = "uniform",
    rng=None,
) -> AdditiveFunction:
    """Value-vector additive utility over integer elements ``0..n-1``."""
    gen = as_generator(rng)
    if n <= 0:
        raise InvalidInstanceError(f"n must be positive, got {n}")
    if distribution == "uniform":
        raw = gen.random(n)
    elif distribution == "lognormal":
        raw = gen.lognormal(mean=0.0, sigma=1.0, size=n)
    else:
        raise InvalidInstanceError(f"unknown distribution {distribution!r}")
    return AdditiveFunction.from_arrays(raw)
