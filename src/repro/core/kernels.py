"""Vectorized incremental oracle kernels for the concrete utility families.

The paper's algorithms are analysed in the value-oracle model
(Definition 1): the query count is the honest complexity measure, and
:class:`~repro.core.oracle.CountingOracle` reports it.  Wall time is a
different matter — a naive oracle re-evaluates ``F(S ∪ {a})`` from
scratch, so one query costs ``O(|S| · |instance|)`` python-object work
and a greedy's total cost picks up an extra factor of the instance
size.  This module removes that factor the same way the paper's own
Lemma 2.1.1 accounting does for matchings: keep *incremental state* for
the growing selection and answer each marginal query from that state.

Three pieces:

* :class:`IncrementalEvaluator` — the generic (naive) fallback.  It
  works for any :class:`~repro.core.submodular.SetFunction`
  (``LambdaSetFunction``, ``TruncatedFunction``, the matching
  utilities, ...) by delegating to ``fn.value``, so consumers can be
  written against one API and stay correct everywhere.

* **dense kernels** — numpy-backed evaluators sized by the full
  instance: coverage via packed-bitset incidence rows and (blocked)
  popcounts, facility location via running per-client best arrays over
  a benefit matrix tiled in place so each facility's column reads as
  contiguous runs, cut functions via a dense symmetric adjacency with
  an incrementally maintained ``W @ x`` product, and (budget-)additive
  utilities via value vectors.

* **sparse (CSR) kernels** — the v2 backend for million-element ground
  sets: coverage incidence and cut adjacency are stored as CSR
  ``(indptr, indices[, data])`` arrays, per-candidate marginals are
  indptr-sliced gathers against an uncovered mask / active-weight /
  ``W @ x`` vector, and nothing of size ``n × m`` is ever
  materialized — state and batch work are ``O(nnz)``.

Backend selection is automatic by instance size and density (see
:func:`resolve_backend` and the pinned constants below) with an
explicit ``backend=`` override threaded through
``SetFunction.fast_evaluator()`` and every oracle wrapper.  Where both
backends exist for a family, their marginals are **bit-identical** by
construction: integer popcount vs. integer bincount for coverage, and
one shared CSR arithmetic (same degree vector, same element-wise
``W @ x`` updates, same summation order) for the float families — the
property suite asserts exact equality, which is what lets the committed
bench cells stay drift-free no matter which backend auto-selection
picks.

Gains are evaluated against the evaluator's *current* selection and are
exact under overlap: a candidate set that intersects the selection is
charged only for its genuinely new part, matching
``F(S ∪ A) - F(S)`` by definition.  Kernel arithmetic can differ from
the naive path by float round-off (``fsum`` vs accumulated numpy sums);
the property suite pins agreement to 1e-12.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.submodular import Element, SetFunction, _as_frozen

__all__ = [
    "EvaluatorView",
    "IncrementalEvaluator",
    "PreparedBatch",
    "evaluator_for",
    "resolve_backend",
    "KERNEL_BACKENDS",
    "DENSE_CELL_LIMIT",
    "DENSE_CELL_MIN",
    "SPARSE_DENSITY_CUTOFF",
    "POPCOUNT_TILE_BYTES",
]


# -- backend selection (constants pinned by docs/ARCHITECTURE.md) -----------

#: Recognised values for the ``backend=`` override.
KERNEL_BACKENDS = ("auto", "dense", "sparse", "naive")

#: Above this many incidence/adjacency cells (``n_elements × n_items``,
#: or ``n_vertices²`` for cuts) the dense arrays are never built:
#: auto-selection always picks the CSR backend.  At the limit the
#: packed coverage bitset is 8 MiB and a dense cut adjacency 512 MiB —
#: past it, dense storage stops being a sensible trade at any density.
DENSE_CELL_LIMIT = 1 << 26

#: Below this many cells the dense arrays are small enough that kernel
#: constants dominate: auto-selection always picks dense, whatever the
#: density (the committed PR 3 bench cells all live in this regime).
DENSE_CELL_MIN = 1 << 21

#: Between the two cell bounds, auto-selection picks the CSR backend
#: when the instance is sparse: ``nnz < SPARSE_DENSITY_CUTOFF · cells``.
SPARSE_DENSITY_CUTOFF = 1.0 / 16.0

#: The blocked-popcount path materializes at most this many bytes of
#: ``row & ~mask`` scratch per tile, so large dense batches stream
#: through cache-sized chunks instead of allocating ``batch × m/8`` at
#: once.  Gains are integer popcounts, so tiling cannot change them.
POPCOUNT_TILE_BYTES = 1 << 18


def resolve_backend(backend: Optional[str], *, cells: int, nnz: int) -> str:
    """Resolve ``backend`` to ``"dense"`` or ``"sparse"`` for an instance.

    ``"dense"``/``"sparse"`` are honoured verbatim; ``None``/``"auto"``
    apply the size/density rule: sparse when the dense arrays would
    exceed :data:`DENSE_CELL_LIMIT` cells, dense below
    :data:`DENSE_CELL_MIN`, and density-decided (:data:`
    SPARSE_DENSITY_CUTOFF`) in between.  ``"naive"`` never reaches this
    function — the families return no kernel at all for it.
    """
    if backend in ("dense", "sparse"):
        return backend
    if backend not in (None, "auto"):
        raise ValueError(
            f"unknown kernel backend {backend!r}; expected one of {KERNEL_BACKENDS}"
        )
    if cells > DENSE_CELL_LIMIT:
        return "sparse"
    if cells > DENSE_CELL_MIN and nnz < SPARSE_DENSITY_CUTOFF * cells:
        return "sparse"
    return "dense"


def _popcount(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint8 array (numpy >= 2 fast path)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words)
    return _POPCOUNT_TABLE[words]


_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


# -- CSR helpers shared by the sparse kernels --------------------------------


def _slice_gather(indptr: np.ndarray, ids: np.ndarray):
    """Flat gather indices + per-row lengths for the CSR rows in *ids*.

    Returns ``(flat, lens)`` where ``indices[flat]`` concatenates the
    selected rows in order — the vectorized equivalent of
    ``np.concatenate([indices[indptr[i]:indptr[i+1]] for i in ids])``
    without a python loop.
    """
    starts = indptr[ids]
    lens = indptr[ids + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp), lens
    cum = np.cumsum(lens)
    flat = np.repeat(starts - (cum - lens), lens) + np.arange(total, dtype=starts.dtype)
    return flat.astype(np.intp, copy=False), lens


def _row_sums(values: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Per-row sums of *values* partitioned by *lens* (sequential order).

    ``np.bincount`` accumulates the flat array in index order, so two
    callers handing it identically-ordered values get bit-identical
    sums — this is the one summation primitive both coverage backends
    and both cut backends share, which is what makes their float
    marginals exactly equal rather than merely close.
    """
    n = len(lens)
    if not len(values):
        return np.zeros(n)
    rows = np.repeat(np.arange(n, dtype=np.intp), lens)
    return np.bincount(rows, weights=values, minlength=n)


def _canonical_csr(indptr: np.ndarray, indices: np.ndarray):
    """Sort each CSR row ascending and drop duplicate entries.

    Returns ``(indptr, indices)`` in canonical form (strictly
    increasing within every row).  Already-canonical inputs are
    returned as-is without copying.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.intp)
    n = len(indptr) - 1
    if len(indices) <= 1:
        return indptr, indices
    lens = np.diff(indptr)
    rows = np.repeat(np.arange(n, dtype=np.intp), lens)
    # A position is a row start iff some indptr value equals it; strict
    # ascent is only required between consecutive entries of one row.
    starts = indptr[1:-1]
    interior = np.ones(len(indices), dtype=bool)
    interior[starts[starts < len(indices)]] = False
    if bool(np.all((np.diff(indices) > 0) | ~interior[1:])):
        return indptr, indices
    order = np.lexsort((indices, rows))
    rows, indices = rows[order], indices[order]
    keep = np.ones(len(indices), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]) | (indices[1:] != indices[:-1])
    rows, indices = rows[keep], indices[keep]
    new_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=new_indptr[1:])
    return new_indptr, indices.astype(np.intp, copy=False)


def evaluator_for(fn: SetFunction) -> "IncrementalEvaluator":
    """The best incremental evaluator *fn* offers (naive fallback).

    Functions exposing the kernel hook pick their own evaluator;
    functions without it (arbitrary oracles) get the naive one.
    """
    maker = getattr(fn, "incremental_evaluator", None)
    if maker is not None:
        return maker()
    return IncrementalEvaluator(fn)


class PreparedBatch:
    """A fixed candidate pool, pre-digested for repeated round scoring.

    Greedy loops score the same candidate subsets round after round;
    whatever is selection-independent about them (their unioned
    incidence rows, their value sums, their member index arrays) is
    digested here.  Kernel subclass batches digest **lazily** — a pool
    index is materialized the first time a ``gains`` call asks for it
    and cached after, so a lazy greedy that only ever re-probes a few
    heap heads never pays for the rest of the pool, and no call
    allocates anything sized by the ground set.  The naive base class
    keeps the candidate frozensets and loops — correct for every
    function, fast for none.
    """

    def __init__(self, ev: "IncrementalEvaluator", candidate_sets: Sequence[Iterable[Element]]):
        self.ev = ev
        self.sets: List[FrozenSet[Element]] = [_as_frozen(s) for s in candidate_sets]

    def __len__(self) -> int:
        return len(self.sets)

    def gains(self, indices: Sequence[int]) -> np.ndarray:
        """``F(S ∪ A_i) - F(S)`` for each pool index, vs the current state."""
        return self.ev.set_gains([self.sets[i] for i in indices])


class IncrementalEvaluator:
    """Stateful view of ``F`` at a growing selection — naive fallback.

    The evaluator owns a selection ``S`` and answers marginal queries
    against it; ``add``/``add_set`` grow ``S`` in place (the greedy/
    secretary usage pattern — selections only grow, which is also what
    makes kernel state updates O(new elements) instead of O(|S|)).

    ``fast`` advertises whether queries are vectorized kernel work
    (``True`` for the family kernels) or one python-level oracle
    evaluation per candidate (this class).  Consumers keep their legacy
    scan when ``fast`` is ``False`` so oracle-call accounting and
    memoisation wrappers behave exactly as before.
    """

    fast = False
    modular = False  # True only when marginals are selection-independent

    def __init__(self, fn: SetFunction, selection: Iterable[Element] = ()):  # noqa: D401
        self.fn = fn
        self._selection: set = set()
        self._value = 0.0
        self.reset(selection)

    # -- state ---------------------------------------------------------

    @property
    def selection(self) -> FrozenSet[Element]:
        return frozenset(self._selection)

    @property
    def current_value(self) -> float:
        """``F(S)`` for the current selection ``S``."""
        return self._value

    def reset(self, selection: Iterable[Element] = ()) -> None:
        """Rebuild state for an arbitrary selection (O(|selection|))."""
        self._selection = set(selection)
        self._value = self.fn.value(frozenset(self._selection))

    def add(self, element: Element) -> float:
        """Grow the selection by one element; returns the new value."""
        if element not in self._selection:
            self._selection.add(element)
            self._value = self.fn.value(frozenset(self._selection))
        return self._value

    def add_set(self, items: Iterable[Element]) -> float:
        """Grow the selection by a whole subset; returns the new value."""
        items = set(items) - self._selection
        if items:
            self._selection |= items
            self._value = self.fn.value(frozenset(self._selection))
        return self._value

    def advance(self, element: Element, new_value: float) -> None:
        """Record a pick whose value the caller already evaluated.

        Greedy/secretary loops learn ``F(S + a)`` from the very query
        that selected ``a``; advancing with that number instead of
        calling :meth:`add` avoids re-evaluating the oracle (keeping
        naive-path query counts identical to the pre-kernel scans).
        """
        self._selection.add(element)
        self._value = float(new_value)

    # -- queries -------------------------------------------------------

    def gains(self, candidates: Sequence[Element]) -> np.ndarray:
        """``F(S + c) - F(S)`` for each single-element candidate ``c``."""
        return self.union_values(candidates) - self._value

    def gain1(self, element: Element) -> float:
        """Scalar ``F(S + a) - F(S)`` — the per-arrival streaming query."""
        return self.union_value1(element) - self._value

    def union_value1(self, element: Element) -> float:
        """Scalar ``F(S + a)``; avoids array overhead on per-arrival paths."""
        return self.fn.value(frozenset(self._selection) | {element})

    def union_values(self, candidates: Sequence[Element]) -> np.ndarray:
        """``F(S + c)`` per candidate — the segment scans compare these.

        The naive path evaluates each union directly (bit-identical to
        the pre-kernel code); kernels return ``current + gain``.
        """
        base = frozenset(self._selection)
        return np.array(
            [self.fn.value(base | {c}) for c in candidates], dtype=float
        )

    def set_gains(self, candidate_sets: Sequence[Iterable[Element]]) -> np.ndarray:
        """``F(S ∪ A) - F(S)`` for each candidate *subset* ``A``."""
        base = frozenset(self._selection)
        return np.array(
            [self.fn.value(base | _as_frozen(a)) - self._value for a in candidate_sets],
            dtype=float,
        )

    def prepare(self, candidate_sets: Sequence[Iterable[Element]]) -> PreparedBatch:
        """Digest a fixed candidate pool for repeated round scoring."""
        return PreparedBatch(self, candidate_sets)


class EvaluatorView(IncrementalEvaluator):
    """An oracle wrapper's view of the kernel evaluator below it.

    Every method forwards to the inner evaluator after one of two
    hooks, which is where a wrapper puts its rule: :meth:`_touch`
    before a state update (``reset``, ``add``, ``add_set``,
    ``advance``), and :meth:`_query` before a counted query (``gains``,
    ``gain1``, ``union_value1``, ``union_values``, ``set_gains``, a
    prepared batch's ``gains``), with the number of values the query
    asks for.  Both default to doing nothing; ``fn`` is the owning
    wrapper, ``_inner`` the evaluator below.
    """

    fast = True

    def __init__(self, inner: IncrementalEvaluator, owner: SetFunction):
        self._inner = inner
        self._owner = owner
        self.fn = owner
        self.modular = inner.modular

    def _touch(self, elements: Iterable[Element]) -> None:
        """Hook run before a state update naming *elements*."""

    def _query(self, elements: Iterable[Element], count: int) -> None:
        """Hook run before a query for *count* values over *elements*."""

    @property
    def selection(self) -> FrozenSet[Element]:
        return self._inner.selection

    @property
    def current_value(self) -> float:
        return self._inner.current_value

    def reset(self, selection: Iterable[Element] = ()) -> None:
        selection = list(selection)
        self._touch(selection)
        self._inner.reset(selection)

    def add(self, element: Element) -> float:
        self._touch((element,))
        return self._inner.add(element)

    def add_set(self, items: Iterable[Element]) -> float:
        items = list(items)
        self._touch(items)
        return self._inner.add_set(items)

    def advance(self, element: Element, new_value: float) -> None:
        self._touch((element,))
        self._inner.advance(element, new_value)

    def gains(self, candidates: Sequence[Element]) -> np.ndarray:
        self._query(candidates, len(candidates))
        return self._inner.gains(candidates)

    def gain1(self, element: Element) -> float:
        self._query((element,), 1)
        return self._inner.gain1(element)

    def union_value1(self, element: Element) -> float:
        self._query((element,), 1)
        return self._inner.union_value1(element)

    def union_values(self, candidates: Sequence[Element]) -> np.ndarray:
        self._query(candidates, len(candidates))
        return self._inner.union_values(candidates)

    def set_gains(self, candidate_sets: Sequence[Iterable[Element]]) -> np.ndarray:
        self._query(chain.from_iterable(candidate_sets), len(candidate_sets))
        return self._inner.set_gains(candidate_sets)

    def prepare(self, candidate_sets: Sequence[Iterable[Element]]) -> PreparedBatch:
        return _ViewBatch(self, candidate_sets)


class _ViewBatch(PreparedBatch):
    """The inner evaluator's prepared batch behind a view's query hook."""

    def __init__(self, view: EvaluatorView, candidate_sets: Sequence[Iterable[Element]]):
        super().__init__(view, candidate_sets)
        self._inner = view._inner.prepare(candidate_sets)

    def gains(self, indices: Sequence[int]) -> np.ndarray:
        idx = list(indices)
        self.ev._query(chain.from_iterable(self.sets[i] for i in idx), len(idx))
        return self._inner.gains(idx)


# ---------------------------------------------------------------------------
# kernel plumbing shared by the family evaluators
# ---------------------------------------------------------------------------


class _KernelEvaluator(IncrementalEvaluator):
    """Shared scaffolding: index bookkeeping and value tracking.

    Subclasses maintain numpy state and implement ``_gain_ids`` /
    ``_add_id``; element <-> dense-index translation and the
    :class:`IncrementalEvaluator` contract live here.  The element
    order is the owning function's canonical order (sorted-by-repr for
    mapping-built instances, natural array order for array-built ones),
    so kernel tie-breaking matches the naive scans everywhere consumers
    iterate in that order.

    *index* is the owning function's ``{element: canonical index}`` map,
    built once with the function's memoised kernel and shared by every
    evaluator of it, so constructing or :meth:`reset`-ting an evaluator
    never does O(n) python work.  ``None`` marks a *positional* instance
    (array-built functions), whose integer elements are their own
    canonical index: candidate translation is a single ``np.asarray``
    and no dict is ever built — at 10^6 elements that dict alone would
    dwarf the CSR arrays.
    """

    fast = True

    def __init__(
        self,
        fn: SetFunction,
        elements: Sequence[Element],
        selection: Iterable[Element] = (),
        *,
        index: Optional[Dict[Element, int]] = None,
    ):
        self.fn = fn
        self._elements = elements
        self._index = index
        self._selection = set()
        self._value = 0.0
        self._init_state()
        for e in selection:
            self.add(e)

    def _init_state(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _gain_ids(self, ids: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def _add_id(self, i: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _id_of(self, element: Element) -> int:
        if self._index is None:
            return int(element)
        return self._index[element]

    def _ids_of(self, candidates: Sequence[Element]) -> np.ndarray:
        if self._index is None:
            return np.asarray(candidates, dtype=np.intp)
        index = self._index
        return np.fromiter((index[c] for c in candidates), dtype=np.intp, count=len(candidates))

    def reset(self, selection: Iterable[Element] = ()) -> None:
        self._selection = set()
        self._value = 0.0
        self._init_state()
        for e in selection:
            self.add(e)

    def add(self, element: Element) -> float:
        if element not in self._selection:
            self._selection.add(element)
            self._add_id(self._id_of(element))
        return self._value

    def add_set(self, items: Iterable[Element]) -> float:
        for e in items:
            self.add(e)
        return self._value

    def advance(self, element: Element, new_value: float) -> None:
        # Kernel state updates are cheap; adopt the caller's value so the
        # scalar matches what its (possibly fsum-exact) query reported.
        self.add(element)
        self._value = float(new_value)

    def gains(self, candidates: Sequence[Element]) -> np.ndarray:
        if not len(candidates):
            return np.zeros(0)
        return self._gain_ids(self._ids_of(candidates))

    def gain1(self, element: Element) -> float:
        return float(self._gain_ids(np.array([self._id_of(element)], dtype=np.intp))[0])

    def union_value1(self, element: Element) -> float:
        return self._value + self.gain1(element)

    def union_values(self, candidates: Sequence[Element]) -> np.ndarray:
        return self._value + self.gains(candidates)

    def set_gains(self, candidate_sets: Sequence[Iterable[Element]]) -> np.ndarray:
        return self.prepare(candidate_sets).gains(range(len(candidate_sets)))

    def _member_ids(self, candidate_set: Iterable[Element]) -> np.ndarray:
        """Sorted canonical ids of one candidate set's members."""
        if self._index is None:
            ids = np.asarray(sorted(int(e) for e in candidate_set), dtype=np.intp)
        else:
            index = self._index
            ids = np.asarray(sorted(index[e] for e in candidate_set), dtype=np.intp)
        return ids


class _LazyBatch(PreparedBatch):
    """Prepared batch whose per-index digests materialize on first use.

    ``_digest(r)`` (subclass hook via *digest_fn*) computes the pool
    index's selection-independent form; the cache keeps it for later
    rounds.  No ``gains`` call allocates anything proportional to the
    ground set — only to the requested indices' own digests.
    """

    def __init__(self, ev, candidate_sets, digest_fn, gains_fn):
        super().__init__(ev, candidate_sets)
        self._digests: Dict[int, object] = {}
        self._digest_fn = digest_fn
        self._gains_fn = gains_fn

    def _digest(self, r: int):
        d = self._digests.get(r)
        if d is None:
            d = self._digest_fn(self.sets[r])
            self._digests[r] = d
        return d

    def gains(self, indices: Sequence[int]) -> np.ndarray:
        idx = [int(i) for i in indices]
        return self._gains_fn([self._digest(r) for r in idx])


# ---------------------------------------------------------------------------
# coverage kernels (shared CSR core; dense packed bitsets on top)
# ---------------------------------------------------------------------------


class _CoverageKernel:
    """Selection-independent arrays for a (weighted) coverage function.

    Built once per function instance and shared by all its evaluators.
    The canonical core is a CSR incidence (``indptr``/``indices`` over
    item ids in the canonical item order, rows ascending-unique) —
    O(nnz) however large the instance.  The packed-bitset rows are
    derived **lazily** via :meth:`ensure_dense`, only when a dense
    evaluator is actually constructed, so a 10^6-element instance never
    materializes its ``n × m`` incidence just because the function
    object exists.  Named kernels (mapping-built, or array-built with
    names) also carry ``index``, the element → canonical index map
    every evaluator shares (``None`` when positional).
    """

    def __init__(self, covers: Mapping[Element, FrozenSet], weights: Optional[Mapping] = None):
        elements = list(covers)
        item_ids: Dict = {}
        indices = [item_ids.setdefault(u, len(item_ids)) for e in elements for u in covers[e]]
        indptr = np.zeros(len(elements) + 1, dtype=np.int64)
        np.cumsum(np.array([len(covers[e]) for e in elements], dtype=np.int64), out=indptr[1:])
        self._canonicalise(indptr, np.array(indices, dtype=np.intp), elements, list(item_ids))
        if weights is None:
            self.weights = None
        else:
            self.weights = np.array([float(weights.get(u, 1.0)) for u in self.items], dtype=float)
        self.packed: Optional[np.ndarray] = None

    @classmethod
    def from_named_csr(
        cls, indptr: np.ndarray, indices: np.ndarray, elements: Sequence, items: Sequence
    ) -> "_CoverageKernel":
        """Array-built kernel over names, canonical as a mapping build.

        ``elements[i]`` covers the ``items`` that CSR row ``i`` lists.
        """
        self = cls.__new__(cls)
        self._canonicalise(indptr, indices, elements, items)
        self.weights = None
        self.packed = None
        return self

    def _canonicalise(
        self, indptr: np.ndarray, indices: np.ndarray, elements: Sequence, items: Sequence
    ) -> None:
        """Set the canonical named arrays, the one ordering both builds use.

        Elements are ordered by ``repr``, and so are the items some row
        covers (an uncovered item is dropped); ids are remapped to those
        orders and every row is sorted ascending and deduplicated.
        """
        element_reprs = [repr(e) for e in elements]
        order = np.array(sorted(range(len(elements)), key=element_reprs.__getitem__),
                         dtype=np.intp)
        covered = np.flatnonzero(np.bincount(indices, minlength=len(items)))
        item_reprs = [repr(items[j]) for j in covered.tolist()]
        covered = covered[sorted(range(len(covered)), key=item_reprs.__getitem__)]
        rank = np.zeros(len(items), dtype=np.intp)
        rank[covered] = np.arange(len(covered), dtype=np.intp)
        flat, lens = _slice_gather(indptr, order)
        new_indptr = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(lens, out=new_indptr[1:])
        self.indptr, self.indices = _canonical_csr(new_indptr, rank[indices[flat]])
        self.elements: Sequence[Element] = [elements[i] for i in order.tolist()]
        self.items: Sequence = [items[j] for j in covered.tolist()]
        self.n_items = len(self.items)
        self.index: Optional[Dict[Element, int]] = {e: i for i, e in enumerate(self.elements)}

    @classmethod
    def from_csr(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        n_items: int,
        weights: Optional[np.ndarray] = None,
    ) -> "_CoverageKernel":
        """Array-built kernel: positional elements/items, canonical CSR."""
        self = cls.__new__(cls)
        self.indptr, self.indices = _canonical_csr(indptr, indices)
        n = len(self.indptr) - 1
        self.elements = range(n)
        self.n_items = int(n_items)
        self.items = range(self.n_items)
        self.index = None
        self.weights = None if weights is None else np.asarray(weights, dtype=float)
        self.packed = None
        return self

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def cells(self) -> int:
        return len(self.elements) * max(1, self.n_items)

    def covered_by(self, i: int) -> np.ndarray:
        """Item ids covered by element id *i* (a CSR row view)."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def ensure_dense(self) -> None:
        """Materialize the packed-bitset incidence rows."""
        if self.packed is not None:
            return
        n, m = len(self.elements), max(1, self.n_items)
        rows = np.zeros((n, m), dtype=bool)
        if self.nnz:
            lens = np.diff(self.indptr)
            rows[np.repeat(np.arange(n, dtype=np.intp), lens), self.indices] = True
        self.packed = np.packbits(rows, axis=1)


class CoverageEvaluator(_KernelEvaluator):
    """Packed-bitset incremental coverage: gains are popcounts.

    State is one bit per universe item; the marginal of a candidate is
    ``popcount(row & ~covered)`` — evaluated for a whole batch with two
    ``np.bitwise_*`` passes, tiled into :data:`POPCOUNT_TILE_BYTES`
    chunks when the batch scratch would outgrow cache.  Values are
    exact integers, so this path is bit-identical to both the naive
    ``len(union)`` evaluation and the CSR backend's bincounts.
    """

    def __init__(self, fn, kernel: _CoverageKernel, selection: Iterable[Element] = ()):
        kernel.ensure_dense()
        self._kernel = kernel
        super().__init__(fn, kernel.elements, selection, index=kernel.index)

    def _init_state(self) -> None:
        self._mask = np.zeros(self._kernel.packed.shape[1], dtype=np.uint8)

    def _fresh_popcounts(self, rows: np.ndarray) -> np.ndarray:
        """Row popcounts of ``rows & ~mask``, tiled to cache-sized scratch."""
        width = max(1, rows.shape[1])
        if rows.shape[0] * width <= POPCOUNT_TILE_BYTES:
            fresh = rows & ~self._mask
            return _popcount(fresh).sum(axis=1, dtype=np.int64)
        out = np.zeros(rows.shape[0], dtype=np.int64)
        step = max(1, POPCOUNT_TILE_BYTES // width)
        inv = ~self._mask
        for r0 in range(0, rows.shape[0], step):
            fresh = rows[r0:r0 + step] & inv
            out[r0:r0 + step] = _popcount(fresh).sum(axis=1, dtype=np.int64)
        return out

    def _gain_ids(self, ids: np.ndarray) -> np.ndarray:
        packed = self._kernel.packed
        width = max(1, packed.shape[1])
        step = max(1, POPCOUNT_TILE_BYTES // width)
        if len(ids) <= step:
            return self._fresh_popcounts(packed[ids]).astype(float)
        # Tile the *gather* too: never materialize batch × width bytes.
        out = np.empty(len(ids), dtype=np.int64)
        inv = ~self._mask
        for r0 in range(0, len(ids), step):
            fresh = packed[ids[r0:r0 + step]] & inv
            out[r0:r0 + step] = _popcount(fresh).sum(axis=1, dtype=np.int64)
        return out.astype(float)

    def _add_id(self, i: int) -> None:
        self._mask |= self._kernel.packed[i]
        self._value = float(_popcount(self._mask).sum(dtype=np.int64))

    def prepare(self, candidate_sets: Sequence[Iterable[Element]]) -> PreparedBatch:
        packed = self._kernel.packed

        def digest(cset, self=self, packed=packed):
            row = np.zeros(packed.shape[1], dtype=np.uint8)
            for e in cset:
                row |= packed[self._id_of(e)]
            return row

        def gains(rows, self=self):
            if not rows:
                return np.zeros(0)
            return self._fresh_popcounts(np.stack(rows)).astype(float)

        return _LazyBatch(self, candidate_sets, digest, gains)


class SparseCoverageEvaluator(_KernelEvaluator):
    """CSR incremental coverage: gains are bincounts of uncovered items.

    State is one boolean per universe item; a batch marginal gathers
    every candidate row through one indptr-sliced flat index and
    bincounts the still-uncovered hits per row — O(batch nnz) work and
    scratch, nothing sized ``n × m``.  Values are exact integers, so
    this backend is bit-identical to the packed-bitset path and the
    naive evaluation.
    """

    def __init__(self, fn, kernel: _CoverageKernel, selection: Iterable[Element] = ()):
        self._kernel = kernel
        super().__init__(fn, kernel.elements, selection, index=kernel.index)

    def _init_state(self) -> None:
        self._uncovered = np.ones(max(1, self._kernel.n_items), dtype=bool)
        self._covered_count = 0

    def _gain_ids(self, ids: np.ndarray) -> np.ndarray:
        flat, lens = _slice_gather(self._kernel.indptr, ids)
        return _row_sums(self._uncovered[self._kernel.indices[flat]], lens)

    def _add_id(self, i: int) -> None:
        row = self._kernel.covered_by(i)
        fresh = self._uncovered[row]
        self._covered_count += int(fresh.sum())
        self._uncovered[row] = False
        self._value = float(self._covered_count)

    def prepare(self, candidate_sets: Sequence[Iterable[Element]]) -> PreparedBatch:
        kernel = self._kernel

        def digest(cset, self=self, kernel=kernel):
            ids = self._member_ids(cset)
            if not len(ids):
                return np.empty(0, dtype=np.intp)
            flat, _ = _slice_gather(kernel.indptr, ids)
            return np.unique(kernel.indices[flat])

        def gains(item_arrays, self=self):
            if not item_arrays:
                return np.zeros(0)
            lens = np.array([len(a) for a in item_arrays], dtype=np.int64)
            flat = np.concatenate(item_arrays) if lens.sum() else np.empty(0, np.intp)
            return _row_sums(self._uncovered[flat], lens)

        return _LazyBatch(self, candidate_sets, digest, gains)


class WeightedCoverageEvaluator(_KernelEvaluator):
    """Weighted coverage: CSR gathers against the active-weight vector.

    The single v2 backend for the weighted family (the PR 3 dense
    matvec is retired): a candidate's marginal is the sum of
    still-active item weights over its CSR row, batched as one flat
    gather + bincount.  ``backend="dense"`` and ``backend="sparse"``
    both resolve here, so the bit-identity contract is trivial; the
    naive exact-``fsum`` path stays within the 1e-12 equivalence suite,
    as the dense matvec did.
    """

    def __init__(self, fn, kernel: _CoverageKernel, selection: Iterable[Element] = ()):
        self._kernel = kernel
        super().__init__(fn, kernel.elements, selection, index=kernel.index)

    def _init_state(self) -> None:
        k = self._kernel
        self._covered = np.zeros(max(1, k.n_items), dtype=bool)
        self._active = (
            k.weights.copy() if k.weights is not None and len(k.weights)
            else np.zeros(max(1, k.n_items))
        )

    def _gain_ids(self, ids: np.ndarray) -> np.ndarray:
        flat, lens = _slice_gather(self._kernel.indptr, ids)
        return _row_sums(self._active[self._kernel.indices[flat]], lens)

    def _add_id(self, i: int) -> None:
        row = self._kernel.covered_by(i)
        fresh = row[~self._covered[row]]
        self._value += float(self._active[fresh].sum())
        self._covered[row] = True
        self._active[row] = 0.0

    def prepare(self, candidate_sets: Sequence[Iterable[Element]]) -> PreparedBatch:
        kernel = self._kernel

        def digest(cset, self=self, kernel=kernel):
            ids = self._member_ids(cset)
            if not len(ids):
                return np.empty(0, dtype=np.intp)
            flat, _ = _slice_gather(kernel.indptr, ids)
            return np.unique(kernel.indices[flat])

        def gains(item_arrays, self=self):
            if not item_arrays:
                return np.zeros(0)
            lens = np.array([len(a) for a in item_arrays], dtype=np.int64)
            flat = np.concatenate(item_arrays) if lens.sum() else np.empty(0, np.intp)
            return _row_sums(self._active[flat], lens)

        return _LazyBatch(self, candidate_sets, digest, gains)


# ---------------------------------------------------------------------------
# facility location (tiled benefit columns, running per-client best arrays)
# ---------------------------------------------------------------------------

#: Values per facility tile: a tile holds ``max(1, 2^16 // facilities)``
#: client rows, so it spans about 512 kB whatever the facility count.
_FACILITY_TILE_VALUES = 1 << 16


class _FacilityKernel:
    """A facility-location benefit matrix, tiled for column reads.

    Takes over *benefit*, a C-order float (clients × facilities) array
    nothing else holds, and retiles it in place: each block of ``rows``
    consecutive client rows is transposed within its own span into a
    (facilities × rows) tile, through one block-sized scratch; a ragged
    last block is its own, shorter tile.  A facility's column is then
    ``⌈clients / rows⌉`` contiguous runs instead of one value per client
    row, and :meth:`columns` gathers a batch of them with one fancy
    index.  Every reader goes through :meth:`columns`; the buffer has
    no other layout after construction.
    """

    def __init__(self, benefit: np.ndarray):
        self.clients, self.facilities = clients, facilities = benefit.shape
        rows = max(1, _FACILITY_TILE_VALUES // max(facilities, 1))
        full = clients - clients % rows
        flat = benefit.reshape(-1)
        scratch = np.empty(min(rows, clients) * facilities)
        for start in range(0, clients, rows):
            n = min(rows, clients - start)
            span = flat[start * facilities:(start + n) * facilities]
            block = scratch[:len(span)]
            block[:] = span
            span.reshape(facilities, n)[...] = block.reshape(n, facilities).T
        self._head = flat[:full * facilities].reshape(full // rows, facilities, rows)
        self._tail = flat[full * facilities:].reshape(facilities, clients - full)

    def columns(self, ids) -> np.ndarray:
        """C-order ``(len(ids), clients)`` array of the facilities' columns.

        Row ``j`` is ``benefit[:, ids[j]]``, contiguous, so a reduction
        over it runs in the order it would over that column.
        """
        head, tail = self._head, self._tail
        if not head.shape[0]:
            return tail[ids]
        # numpy lays a middle-axis gather out advanced axis first, so
        # this reshape of the (tiles, m, rows) result is a view.
        cols = head[:, ids, :].transpose(1, 0, 2).reshape(len(ids), head.shape[0] * head.shape[2])
        if not tail.shape[1]:
            return cols
        return np.concatenate((cols, tail[ids]), axis=1)


class FacilityLocationEvaluator(_KernelEvaluator):
    """Facility location: state is the per-client best open benefit.

    ``F(S) = Σ_clients max_{f ∈ S} benefit[c, f]`` — adding a facility
    updates a running max array, and a candidate's marginal is
    ``Σ max(0, column - best)``, batched over one
    :meth:`_FacilityKernel.columns` gather.  The evaluators of one
    function share its kernel, so its tiled matrix exists once.  The
    matrix is inherently dense (clients × facilities), so this family
    has no separate sparse backend.
    """

    def __init__(self, fn, kernel: _FacilityKernel, facilities: List[Element],
                 selection: Iterable[Element] = (), *, index: Dict[Element, int]):
        self._kernel = kernel
        super().__init__(fn, facilities, selection, index=index)

    def _init_state(self) -> None:
        self._best = np.zeros(self._kernel.clients)

    def _gain_ids(self, ids: np.ndarray) -> np.ndarray:
        return np.maximum(self._kernel.columns(ids) - self._best, 0.0).sum(axis=1)

    def _add_id(self, i: int) -> None:
        np.maximum(self._best, self._kernel.columns([i])[0], out=self._best)
        self._value = float(self._best.sum())

    def prepare(self, candidate_sets: Sequence[Iterable[Element]]) -> PreparedBatch:
        kernel = self._kernel

        def digest(cset, self=self, kernel=kernel):
            ids = [self._id_of(e) for e in cset]
            if not ids:
                return np.zeros(kernel.clients)
            return kernel.columns(ids).max(axis=0)

        def gains(cols, self=self):
            if not cols:
                return np.zeros(0)
            return np.maximum(np.stack(cols) - self._best, 0.0).sum(axis=1)

        return _LazyBatch(self, candidate_sets, digest, gains)


# ---------------------------------------------------------------------------
# cut functions (shared CSR adjacency; dense W on top for small graphs)
# ---------------------------------------------------------------------------


class _CutKernel:
    """Selection-independent adjacency for a cut function.

    Canonical core: a both-directions CSR (``indptr``/``cols``/``data``
    with columns ascending-unique per row — duplicate edges are
    consolidated by summing in sorted order) plus the degree vector
    ``deg``, computed once through :func:`_row_sums` so **both**
    backends read the same float degrees.  The dense symmetric ``W`` is
    derived lazily for the dense evaluator only.  ``index`` maps vertex
    → canonical index for the evaluators (``None`` when positional).
    """

    def __init__(self, vertices: Sequence[Element], edges, *, positional: bool = False):
        self.vertices = vertices
        n = len(vertices)
        self.index: Optional[Dict[Element, int]] = None
        if positional:
            # Array-built path: *edges* is a (u, v, w) array triple, so a
            # million-edge graph never round-trips through python tuples.
            u, v, w = edges
            u = np.asarray(u, dtype=np.intp)
            v = np.asarray(v, dtype=np.intp)
            w = np.asarray(w, dtype=float)
        else:
            index = self.index = {x: i for i, x in enumerate(vertices)}
            u = np.array([index[a] for a, _, _ in edges], dtype=np.intp)
            v = np.array([index[b] for _, b, _ in edges], dtype=np.intp)
            w = np.array([float(c) for _, _, c in edges], dtype=float)
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        data = np.concatenate([w, w])
        if len(rows):
            order = np.lexsort((cols, rows))
            rows, cols, data = rows[order], cols[order], data[order]
            boundary = np.ones(len(rows), dtype=bool)
            boundary[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(boundary)
            data = np.add.reduceat(data, starts)
            rows, cols = rows[starts], cols[starts]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        if len(rows):
            np.cumsum(np.bincount(rows, minlength=n), out=self.indptr[1:])
        self.cols = cols.astype(np.intp, copy=False)
        self.data = data
        self.deg = _row_sums(self.data, np.diff(self.indptr)) if n else np.zeros(0)
        self.W: Optional[np.ndarray] = None
        self._rows = rows  # kept for lazy dense scatter

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def cells(self) -> int:
        return self.n * self.n

    def ensure_dense(self) -> None:
        """Materialize the dense symmetric adjacency matrix."""
        if self.W is None:
            W = np.zeros((self.n, self.n))
            if len(self.data):
                W[self._rows, self.cols] = self.data
            self.W = W

    def neighbours(self, i: int):
        """``(cols, data)`` CSR row views for vertex id *i*."""
        s, e = self.indptr[i], self.indptr[i + 1]
        return self.cols[s:e], self.data[s:e]

    def internal_weight(self, ids: np.ndarray) -> float:
        """Total edge weight with both endpoints in *ids* (counted twice).

        Shared by both backends' multi-vertex ``set_gains`` so the
        correction term is summed in the same (row, ascending-column)
        order everywhere.
        """
        if not len(ids):
            return 0.0
        flat, _ = _slice_gather(self.indptr, ids)
        cols = self.cols[flat]
        inside = np.isin(cols, ids)
        return float(self.data[flat][inside].sum())


class _CutEvaluatorBase(_KernelEvaluator):
    """Shared cut arithmetic: ``gain(v) = (deg(v) - 2·(Wx)_v) · fresh``.

    Subclasses differ only in how :meth:`_add_id` maintains the
    ``W @ x`` product (dense row addition vs CSR scatter-add) — which
    touches the same positions with the same addends, so the two
    backends' ``Wx`` vectors, and hence every gain they report, are
    bit-identical.
    """

    def __init__(self, fn, kernel: _CutKernel, selection: Iterable[Element] = ()):
        self._kernel = kernel
        self._deg = kernel.deg
        super().__init__(fn, kernel.vertices, selection, index=kernel.index)

    def _init_state(self) -> None:
        n = self._kernel.n
        self._in = np.zeros(n, dtype=bool)
        self._Wx = np.zeros(n)

    def _gain_ids(self, ids: np.ndarray) -> np.ndarray:
        fresh = ~self._in[ids]
        return (self._deg[ids] - 2.0 * self._Wx[ids]) * fresh

    def gain1(self, element: Element) -> float:
        i = self._id_of(element)
        if self._in[i]:
            return 0.0
        return float(self._deg[i] - 2.0 * self._Wx[i])

    def set_gains(self, candidate_sets: Sequence[Iterable[Element]]) -> np.ndarray:
        out = np.zeros(len(candidate_sets))
        for r, a in enumerate(candidate_sets):
            ids = self._member_ids(a)
            b = ids[~self._in[ids]]
            if len(b):
                external = float((self._deg[b] - 2.0 * self._Wx[b]).sum())
                out[r] = external - self._kernel.internal_weight(b)
        return out

    def prepare(self, candidate_sets: Sequence[Iterable[Element]]) -> PreparedBatch:
        members = [self._member_ids(a) for a in candidate_sets]
        batch = PreparedBatch(self, candidate_sets)
        singleton = all(len(m) <= 1 for m in members)
        flat = np.array([m[0] if len(m) else 0 for m in members], dtype=np.intp)
        empty = np.array([len(m) == 0 for m in members], dtype=bool)

        def gains(indices, self=self):
            idx = np.asarray(list(indices), dtype=np.intp)
            if singleton:
                ids = flat[idx]
                out = (self._deg[ids] - 2.0 * self._Wx[ids]) * ~self._in[ids]
                out[empty[idx]] = 0.0
                return out
            return self.set_gains([batch.sets[i] for i in idx])

        batch.gains = gains  # type: ignore[method-assign]
        return batch


class CutEvaluator(_CutEvaluatorBase):
    """Dense-adjacency cut backend: ``Wx`` grows by full row additions.

    For the symmetric weighted adjacency ``W`` and selection indicator
    ``x``, ``F(S) = xᵀW(1-x)`` and a fresh vertex's marginal is
    ``deg(v) - 2 (Wx)_v`` — so a batch of singleton candidates is one
    fancy-indexing pass.  Adding ``v`` costs one O(n) row addition.
    """

    def __init__(self, fn, kernel: _CutKernel, selection: Iterable[Element] = ()):
        kernel.ensure_dense()
        super().__init__(fn, kernel, selection)

    def _add_id(self, i: int) -> None:
        self._value += float(self._deg[i] - 2.0 * self._Wx[i])
        self._in[i] = True
        self._Wx += self._kernel.W[i]


class SparseCutEvaluator(_CutEvaluatorBase):
    """CSR cut backend: ``Wx`` grows by scatter-adds over neighbours.

    Adding ``v`` costs O(deg(v)) instead of O(n), and no ``n × n``
    array is ever built — the backend for million-vertex graphs.  The
    scatter adds the same addends at the same positions as the dense
    row addition (everywhere else the row is zero), so ``Wx`` — and
    every gain derived from it — matches the dense backend bit for bit.
    """

    def _add_id(self, i: int) -> None:
        self._value += float(self._deg[i] - 2.0 * self._Wx[i])
        self._in[i] = True
        cols, data = self._kernel.neighbours(i)
        self._Wx[cols] += data


# ---------------------------------------------------------------------------
# (budget-)additive utilities (value vectors / prefix totals)
# ---------------------------------------------------------------------------


class AdditiveEvaluator(_KernelEvaluator):
    """Modular utilities: a candidate's marginal is just its value.

    The degenerate-but-hot base case (the multiple-choice secretary
    benchmark and the knapsack density greedy): gains are a fancy-index
    of the value vector, masked to elements not yet selected; the
    budget-additive variant truncates against the running total.  The
    value vector is already O(n), so this family needs no separate
    sparse storage — ``backend="sparse"`` resolves here too.

    ``modular`` is ``True`` for the uncapped case: marginals never
    change as the selection grows, which lets consumers (the knapsack
    density greedy) replace per-round re-scoring with one sort.
    """

    def __init__(self, fn, elements: Sequence[Element], values: np.ndarray,
                 cap: Optional[float] = None, selection: Iterable[Element] = (),
                 *, index: Optional[Dict[Element, int]] = None):
        self._values = values
        self._cap = cap
        self.modular = cap is None
        super().__init__(fn, elements, selection, index=index)

    def gain1(self, element: Element) -> float:
        i = self._id_of(element)
        raw = 0.0 if self._in[i] else float(self._values[i])
        if self._cap is None:
            return raw
        return min(self._cap, self._total + raw) - min(self._cap, self._total)

    def _init_state(self) -> None:
        self._in = np.zeros(len(self._elements), dtype=bool)
        self._total = 0.0

    def _truncate(self, totals):
        if self._cap is None:
            return totals
        return np.minimum(self._cap, totals)

    def _gain_ids(self, ids: np.ndarray) -> np.ndarray:
        raw = self._values[ids] * ~self._in[ids]
        if self._cap is None:
            return raw
        return np.minimum(self._cap, self._total + raw) - min(self._cap, self._total)

    def _add_id(self, i: int) -> None:
        self._total += float(self._values[i])
        self._in[i] = True
        self._value = self._total if self._cap is None else min(self._cap, self._total)

    def set_gains(self, candidate_sets: Sequence[Iterable[Element]]) -> np.ndarray:
        values, inS = self._values, self._in
        raw = np.zeros(len(candidate_sets))
        for r, a in enumerate(candidate_sets):
            ids = np.fromiter((self._id_of(e) for e in a), dtype=np.intp)
            if len(ids):
                raw[r] = float((values[ids] * ~inS[ids]).sum())
        if self._cap is None:
            return raw
        return np.minimum(self._cap, self._total + raw) - min(self._cap, self._total)

    def prepare(self, candidate_sets: Sequence[Iterable[Element]]) -> PreparedBatch:
        members: List[np.ndarray] = [
            np.fromiter((self._id_of(e) for e in a), dtype=np.intp)
            for a in candidate_sets
        ]
        lens = np.array([len(m) for m in members], dtype=np.int64)
        flat = np.concatenate(members) if lens.sum() else np.empty(0, np.intp)
        m = len(candidate_sets)
        totals = _row_sums(self._values[flat], lens) if len(flat) else np.zeros(m)
        batch = PreparedBatch(self, candidate_sets)

        def gains(indices, self=self):
            idx = np.asarray(list(indices), dtype=np.intp)
            # Static per-set sums minus the already-selected overlap.
            # Small requests (a lazy greedy re-scoring one candidate)
            # pay only for their own members via a python loop; larger
            # requests gather just the requested sets' members and
            # bincount them — either way the work is O(requested
            # members), never O(ground set), and both branches
            # accumulate sequentially in member order so they return
            # bit-identical floats.
            values, inS = self._values, self._in
            if len(idx) <= 8:
                raw = np.empty(len(idx))
                for pos, r in enumerate(idx):
                    overlap = 0.0
                    for i in members[r].tolist():
                        if inS[i]:
                            overlap += float(values[i])
                    raw[pos] = totals[r] - overlap
            else:
                req = [members[r] for r in idx]
                req_lens = np.array([len(m_) for m_ in req], dtype=np.int64)
                req_flat = (
                    np.concatenate(req) if req_lens.sum() else np.empty(0, np.intp)
                )
                overlap = _row_sums(values[req_flat] * inS[req_flat], req_lens)
                raw = totals[idx] - overlap
            if self._cap is None:
                return raw
            return np.minimum(self._cap, self._total + raw) - min(self._cap, self._total)

        batch.gains = gains  # type: ignore[method-assign]
        return batch
