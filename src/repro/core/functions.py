"""Concrete submodular (and deliberately non-submodular) set functions.

These are the utility families the paper cites as motivating special
cases of Definition 1: Set-Cover / Max-Cover style coverage functions
[33, 43], weighted coverage, matroid rank functions [15], graph cut
functions (the canonical *non-monotone* submodular family used by the
non-monotone secretary experiments), facility location, and the additive
/ budget-additive utilities of the classical multiple-choice secretary
problem [36].  ``MaxValueFunction`` and ``MinValueFunction`` model the
two aggregate objectives discussed in the conclusions (Section 3.6) —
note ``min`` is *not* submodular, which the tests assert.

The coverage, cut, and additive families have two constructors: the
mapping-based ``__init__`` (hashable elements, python containers — the
right interface at test/experiment scale) and an array-based
``from_arrays`` for million-element instances, where elements are the
integers ``0..n-1``, the instance lives in CSR/COO numpy arrays, and
nothing O(ground set) in python objects is ever built eagerly — the
naive ``value`` path reads the arrays through lazy mapping views, and
``ground_set`` materializes only if something actually asks for it.
``CoverageFunction.from_arrays`` also takes element and item names,
building the mapping-built instance on those covers straight from the
arrays.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.submodular import Element, SetFunction
from repro.errors import InvalidInstanceError

__all__ = [
    "AdditiveFunction",
    "BudgetAdditiveFunction",
    "CoverageFunction",
    "WeightedCoverageFunction",
    "CutFunction",
    "FacilityLocationFunction",
    "MatroidRankFunction",
    "MaxValueFunction",
    "MinValueFunction",
]


def _array_digest(*arrays: np.ndarray) -> str:
    """Stable content hash of numpy arrays (fingerprint payloads)."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class _CsrCovers(Mapping):
    """Lazy ``{element id -> frozenset(items)}`` view of a CSR incidence.

    Backs the naive ``value``/``covered`` path of array-built coverage
    functions: each row materializes as a frozenset only when somebody
    actually indexes it, so holding a 10^6-row instance costs the CSR
    arrays and nothing more.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self._indptr = indptr
        self._indices = indices

    def __getitem__(self, i) -> FrozenSet:
        i = int(i)
        if not 0 <= i < len(self._indptr) - 1:
            raise KeyError(i)
        return frozenset(self._indices[self._indptr[i]:self._indptr[i + 1]].tolist())

    def __iter__(self):
        return iter(range(len(self._indptr) - 1))

    def __len__(self) -> int:
        return len(self._indptr) - 1


class _NamedCsrCovers(Mapping):
    """Lazy ``{element -> frozenset(items)}`` view of a named kernel.

    Iterates the caller's element order, as the mapping it stands in
    for would; each row materializes on first access and is kept, so
    the naive path pays one frozenset per element it reads, once.
    """

    def __init__(self, kernel, elements: List):
        self._kernel = kernel
        self._elements = elements
        self._rows: Dict = {}

    def __getitem__(self, element) -> FrozenSet:
        row = self._rows.get(element)
        if row is None:
            kernel = self._kernel
            ids = kernel.covered_by(kernel.index[element]).tolist()
            row = self._rows[element] = frozenset([kernel.items[j] for j in ids])
        return row

    def __iter__(self):
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)


class _ArrayWeights(Mapping):
    """Lazy ``{item id -> weight}`` view of a weight vector."""

    def __init__(self, weights: np.ndarray):
        self._weights = weights

    def get(self, key, default=None):
        try:
            k = int(key)
        except (TypeError, ValueError):
            return default
        if 0 <= k < len(self._weights):
            return float(self._weights[k])
        return default

    def __getitem__(self, key):
        out = self.get(key)
        if out is None:
            raise KeyError(key)
        return out

    def __iter__(self):
        return iter(range(len(self._weights)))

    def __len__(self) -> int:
        return len(self._weights)


class _LazyEdges:
    """Lazy triple view of COO edge arrays for the naive cut path."""

    def __init__(self, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        self._u, self._v, self._w = u, v, w

    def __iter__(self):
        return zip(self._u.tolist(), self._v.tolist(), self._w.tolist())

    def __len__(self) -> int:
        return len(self._u)


class CoverageFunction(SetFunction):
    """``F(S) = | union of the item sets chosen by S |``.

    *covers* maps each ground element (e.g. a candidate interval, a
    secretary) to the set of universe items it covers.  Monotone
    submodular; with unit costs the budgeted greedy on this function is
    exactly the classical greedy Set-Cover algorithm, which Lemma 2.1.2
    generalises.
    """

    def __init__(self, covers: Mapping[Element, Iterable[Hashable]]):
        self._covers: Mapping[Element, FrozenSet[Hashable]] = {
            k: frozenset(v) for k, v in covers.items()
        }
        self._ground: FrozenSet[Element] | None = frozenset(self._covers)
        self._universe: FrozenSet[Hashable] | None = None
        self._kernel = None
        self._positional = False

    @classmethod
    def from_arrays(
        cls, indptr, indices, *, n_items: Optional[int] = None,
        elements: Optional[Sequence] = None, items: Optional[Sequence] = None,
    ) -> "CoverageFunction":
        """Build from a CSR incidence over integer element/item ids.

        Row ``i`` of ``(indptr, indices)`` lists the item ids covered by
        element ``i``; rows are canonicalized (sorted, deduplicated) on
        kernel construction.  Elements are ``0..n-1``, items
        ``0..n_items-1`` (default: ``max(indices) + 1``).  The instance
        stays in its arrays — no per-element python sets are built until
        the naive path asks for them.

        With *elements* and/or *items* (name sequences: element ``i`` is
        ``elements[i]``, item ``j`` is ``items[j]``; a missing one
        defaults to the ids), the instance is the mapping-built
        ``CoverageFunction({elements[i]: {items[j] for j in row i}})``:
        same ``canonical_payload`` (so engine fingerprints), ground set,
        values and kernel arrays, with the kernel canonicalized once,
        vectorized, instead of from per-element python sets.
        """
        from repro.core.kernels import _CoverageKernel

        self = cls.__new__(cls)
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.intp)
        if n_items is None:
            n_items = int(indices.max()) + 1 if len(indices) else 0
        if elements is None and items is None:
            self._kernel = _CoverageKernel.from_csr(indptr, indices, int(n_items))
            self._covers = _CsrCovers(self._kernel.indptr, self._kernel.indices)
            self._positional = True
        else:
            names = list(range(len(indptr) - 1) if elements is None else elements)
            item_names = list(range(n_items) if items is None else items)
            bad_ids = len(indices) and not 0 <= indices.min() <= indices.max() < len(item_names)
            if (bad_ids or len(names) != len(indptr) - 1 or len(set(names)) != len(names)
                    or len(set(item_names)) != len(item_names)):
                raise InvalidInstanceError(
                    "named CSR needs one distinct name per row and per item id"
                )
            self._kernel = _CoverageKernel.from_named_csr(indptr, indices, names, item_names)
            self._covers = _NamedCsrCovers(self._kernel, names)
            self._positional = False
        self._ground = None
        self._universe = None
        return self

    @property
    def ground_set(self) -> FrozenSet[Element]:
        if self._ground is None:
            self._ground = frozenset(self._covers)
        return self._ground

    def canonical_payload(self) -> Dict[str, object]:
        """JSON-able content description (engine fingerprints hash this)."""
        if self._positional:
            k = self._kernel
            return {
                "kind": "coverage_csr",
                "n": len(k.indptr) - 1,
                "n_items": k.n_items,
                "digest": _array_digest(k.indptr, k.indices),
            }
        return {
            "kind": "coverage",
            "covers": {repr(k): sorted(map(repr, v)) for k, v in self._covers.items()},
        }

    @property
    def universe(self) -> FrozenSet[Hashable]:
        """All items coverable by the full ground set (computed once).

        The union is cached — Set-Cover style consumers read this on
        every greedy round, and ``_covers`` is immutable after
        construction, so re-unioning per access was pure waste.
        """
        if self._universe is None:
            if self._positional:
                self._universe = frozenset(
                    np.unique(self._kernel.indices).tolist()
                )
            else:
                out: set = set()
                for s in self._covers.values():
                    out |= s
                self._universe = frozenset(out)
        return self._universe

    def _coverage_kernel(self):
        from repro.core.kernels import _CoverageKernel

        if self._kernel is None:
            self._kernel = _CoverageKernel(self._covers)
        return self._kernel

    def fast_evaluator(self, backend: Optional[str] = None):
        """Coverage kernel: packed-bitset popcounts or CSR bincounts.

        ``backend`` picks dense vs sparse (``None``/``"auto"`` applies
        the size/density rule in :func:`repro.core.kernels
        .resolve_backend`); both return bit-identical marginals.
        ``"naive"`` opts out of kernels entirely.
        """
        from repro.core.kernels import (
            CoverageEvaluator,
            SparseCoverageEvaluator,
            resolve_backend,
        )

        if backend == "naive":
            return None
        kernel = self._coverage_kernel()
        if resolve_backend(backend, cells=kernel.cells, nnz=kernel.nnz) == "sparse":
            return SparseCoverageEvaluator(self, kernel)
        return CoverageEvaluator(self, kernel)

    def covered(self, subset: FrozenSet[Element]) -> FrozenSet[Hashable]:
        out: set = set()
        for e in subset:
            out |= self._covers[e]
        return frozenset(out)

    def value(self, subset: FrozenSet[Element]) -> float:
        return float(len(self.covered(subset)))

    def singleton_values(self) -> Dict[Element, float]:
        """``{e: value({e})}`` in ``repr`` order, read off the kernel's rows.

        A singleton's value is its row's item count, exactly: canonical
        rows are deduplicated.  No row is built as a frozenset.
        """
        kernel = self._coverage_kernel()
        sizes = np.diff(kernel.indptr).tolist()
        index = kernel.index
        order = sorted(self.ground_set, key=repr)
        if index is None:  # positional: element i is row i
            return {e: float(sizes[e]) for e in order}
        return {e: float(sizes[index[e]]) for e in order}


class WeightedCoverageFunction(CoverageFunction):
    """Coverage where each universe item carries a non-negative weight.

    ``F(S) = sum of weights of items covered by S`` — still monotone
    submodular.  Items missing from *weights* default to weight 1.
    """

    def __init__(
        self,
        covers: Mapping[Element, Iterable[Hashable]],
        weights: Mapping[Hashable, float],
    ):
        super().__init__(covers)
        self._weights = {k: float(v) for k, v in weights.items()}
        bad = [k for k, v in self._weights.items() if v < 0]
        if bad:
            raise ValueError(f"negative item weights not allowed: {bad[:3]}")

    @classmethod
    def from_arrays(
        cls, indptr, indices, weights, *, n_items: Optional[int] = None
    ) -> "WeightedCoverageFunction":
        """CSR incidence + aligned item-weight vector (see base class)."""
        from repro.core.kernels import _CoverageKernel

        weights = np.asarray(weights, dtype=float)
        if len(weights) and float(weights.min()) < 0:
            raise ValueError("negative item weights not allowed")
        self = cls.__new__(cls)
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.intp)
        if n_items is None:
            n_items = len(weights)
        self._kernel = _CoverageKernel.from_csr(indptr, indices, int(n_items), weights)
        self._covers = _CsrCovers(self._kernel.indptr, self._kernel.indices)
        self._weights = _ArrayWeights(weights)
        self._ground = None
        self._universe = None
        self._positional = True
        return self

    # A weighted singleton value is an fsum of item weights, not a row
    # length.
    singleton_values = SetFunction.singleton_values

    def value(self, subset: FrozenSet[Element]) -> float:
        # fsum: exactly-rounded, so the value cannot depend on the set's
        # (hash-randomised) iteration order — oracles must be deterministic.
        return math.fsum(self._weights.get(i, 1.0) for i in self.covered(subset))

    def canonical_payload(self) -> Dict[str, object]:
        """JSON-able content description (engine fingerprints hash this).

        The mapping-built payload is unchanged from the base class
        (engine fingerprints hash it; committed bench cells pin those
        fingerprints) — only array-built instances gain a weights
        digest.
        """
        payload = super().canonical_payload()
        if self._positional:
            payload["kind"] = "weighted_coverage_csr"
            payload["weights_digest"] = _array_digest(self._kernel.weights)
        return payload

    def _coverage_kernel(self):
        from repro.core.kernels import _CoverageKernel

        if self._kernel is None:
            self._kernel = _CoverageKernel(self._covers, self._weights)
        return self._kernel

    def fast_evaluator(self, backend: Optional[str] = None):
        """CSR gather kernel against the active item-weight vector.

        One implementation serves both backend names — the weighted
        family's arithmetic is CSR-native, so ``dense``/``sparse`` are
        trivially bit-identical here.
        """
        from repro.core.kernels import WeightedCoverageEvaluator

        if backend == "naive":
            return None
        return WeightedCoverageEvaluator(self, self._coverage_kernel())


class AdditiveFunction(SetFunction):
    """Modular utility ``F(S) = sum of per-element values``.

    The multiple-choice secretary objective of Kleinberg [36]; the
    degenerate-but-important base case of submodularity.
    """

    def __init__(self, values: Mapping[Element, float]):
        self._values = {k: float(v) for k, v in values.items()}
        self._ground: FrozenSet[Element] | None = frozenset(self._values)
        self._kernel = None
        self._positional = False

    @classmethod
    def from_arrays(cls, values) -> "AdditiveFunction":
        """Value-vector instance over integer elements ``0..n-1``."""
        self = cls.__new__(cls)
        self._values = np.asarray(values, dtype=float)
        self._ground = None
        self._kernel = None
        self._positional = True
        return self

    @property
    def ground_set(self) -> FrozenSet[Element]:
        if self._ground is None:
            self._ground = frozenset(range(len(self._values)))
        return self._ground

    def value(self, subset: FrozenSet[Element]) -> float:
        # fsum: exactly-rounded => independent of set iteration order.
        return math.fsum(self._values[e] for e in subset)

    def canonical_payload(self) -> Dict[str, object]:
        """JSON-able content description (engine fingerprints hash this)."""
        if self._positional:
            return {
                "kind": "additive_array",
                "n": len(self._values),
                "digest": _array_digest(self._values),
            }
        return {
            "kind": "additive",
            "values": {repr(k): v for k, v in self._values.items()},
        }

    def _additive_kernel(self):
        # Built once per function: the canonical element order, the
        # aligned value vector and the element -> index map every
        # evaluator shares are selection-independent.  Array-built
        # instances are already in kernel form (positional order, no map).
        if self._kernel is None:
            if self._positional:
                self._kernel = (range(len(self._values)), self._values, None)
            else:
                elements = sorted(self._values, key=repr)
                values = np.array([self._values[e] for e in elements], dtype=float)
                index = {e: i for i, e in enumerate(elements)}
                self._kernel = (elements, values, index)
        return self._kernel

    def fast_evaluator(self, backend: Optional[str] = None):
        """Value-vector kernel: a fresh element's marginal is its value.

        The vector is already O(n); ``dense`` and ``sparse`` both
        resolve to the same evaluator.
        """
        from repro.core.kernels import AdditiveEvaluator

        if backend == "naive":
            return None
        elements, values, index = self._additive_kernel()
        return AdditiveEvaluator(self, elements, values, index=index)


class BudgetAdditiveFunction(AdditiveFunction):
    """``F(S) = min(cap, sum of values)`` — monotone submodular.

    The standard "budget-additive" utility from combinatorial auctions;
    exercises the truncation path of the greedy.
    """

    def __init__(self, values: Mapping[Element, float], cap: float):
        super().__init__(values)
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        self.cap = float(cap)

    @classmethod
    def from_arrays(cls, values, cap: float = 0.0) -> "BudgetAdditiveFunction":
        """Value-vector instance truncated at *cap* (see base class)."""
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        self = super().from_arrays(values)
        self.cap = float(cap)
        return self

    def value(self, subset: FrozenSet[Element]) -> float:
        return min(self.cap, super().value(subset))

    def canonical_payload(self) -> Dict[str, object]:
        """JSON-able content description (engine fingerprints hash this).

        Mapping-built payloads stay byte-identical to the additive base
        (committed fingerprints pin them); only array-built instances
        record the cap alongside the value digest.
        """
        payload = super().canonical_payload()
        if self._positional:
            payload["cap"] = self.cap
        return payload

    def fast_evaluator(self, backend: Optional[str] = None):
        """Additive kernel truncated at ``cap`` (still one fancy-index)."""
        from repro.core.kernels import AdditiveEvaluator

        if backend == "naive":
            return None
        elements, values, index = self._additive_kernel()
        return AdditiveEvaluator(self, elements, values, cap=self.cap, index=index)


class CutFunction(SetFunction):
    """Undirected weighted cut ``F(S) = total weight of edges leaving S``.

    The canonical *non-monotone* submodular function (Max-Cut family
    [25]); drives Algorithm 2's experiments.  Edges are given as
    ``(u, v, weight)`` triples over the ground set of vertices.
    """

    def __init__(self, vertices: Iterable[Element], edges: Iterable[Tuple[Element, Element, float]]):
        self._ground: FrozenSet[Element] | None = frozenset(vertices)
        self._kernel = None
        self._positional = False
        self._n = len(self._ground)
        self._edges: list[Tuple[Element, Element, float]] = []
        for u, v, w in edges:
            if u not in self._ground or v not in self._ground:
                raise ValueError(f"edge ({u!r}, {v!r}) uses unknown vertex")
            if w < 0:
                raise ValueError("cut functions require non-negative edge weights")
            if u != v:
                self._edges.append((u, v, float(w)))

    @classmethod
    def from_arrays(cls, n: int, u, v, w) -> "CutFunction":
        """COO edge arrays over integer vertices ``0..n-1``.

        Self-loops are dropped (they never cross a cut); parallel edges
        are legal and consolidate by weight sum in the kernel.  The
        triples stay in their arrays — the naive ``value`` path iterates
        them through a lazy view.
        """
        u = np.asarray(u, dtype=np.intp)
        v = np.asarray(v, dtype=np.intp)
        w = np.asarray(w, dtype=float)
        if not (len(u) == len(v) == len(w)):
            raise ValueError("edge arrays must have equal length")
        if len(u):
            if int(u.min()) < 0 or int(v.min()) < 0 or int(max(u.max(), v.max())) >= n:
                raise ValueError("edge endpoints must lie in 0..n-1")
            if float(w.min()) < 0:
                raise ValueError("cut functions require non-negative edge weights")
        keep = u != v
        if not keep.all():
            u, v, w = u[keep], v[keep], w[keep]
        self = cls.__new__(cls)
        self._ground = None
        self._kernel = None
        self._positional = True
        self._n = int(n)
        self._edges = _LazyEdges(u, v, w)
        return self

    @property
    def ground_set(self) -> FrozenSet[Element]:
        if self._ground is None:
            self._ground = frozenset(range(self._n))
        return self._ground

    def value(self, subset: FrozenSet[Element]) -> float:
        return float(sum(w for u, v, w in self._edges if (u in subset) != (v in subset)))

    def canonical_payload(self) -> Dict[str, object]:
        """JSON-able content description (engine fingerprints hash this)."""
        if self._positional:
            e = self._edges
            return {
                "kind": "cut_coo",
                "n": self._n,
                "digest": _array_digest(e._u, e._v, e._w),
            }
        edges = sorted(
            sorted([repr(u), repr(v)]) + [w] for u, v, w in self._edges
        )
        return {"kind": "cut", "vertices": sorted(map(repr, self._ground)), "edges": edges}

    def _cut_kernel(self):
        from repro.core.kernels import _CutKernel

        if self._kernel is None:
            if self._positional:
                e = self._edges
                self._kernel = _CutKernel(
                    range(self._n), (e._u, e._v, e._w), positional=True
                )
            else:
                vertices = sorted(self._ground, key=repr)
                self._kernel = _CutKernel(vertices, self._edges)
        return self._kernel

    def fast_evaluator(self, backend: Optional[str] = None):
        """Cut kernel with a maintained ``W @ x`` product.

        Dense keeps the symmetric adjacency matrix (O(n) row additions
        per pick); sparse keeps CSR neighbour lists (O(deg) scatter
        adds).  Both read the same CSR-derived degree vector and update
        ``W @ x`` with identical addends, so their marginals are
        bit-identical.
        """
        from repro.core.kernels import CutEvaluator, SparseCutEvaluator, resolve_backend

        if backend == "naive":
            return None
        kernel = self._cut_kernel()
        if resolve_backend(backend, cells=kernel.cells, nnz=kernel.nnz) == "sparse":
            return SparseCutEvaluator(self, kernel)
        return CutEvaluator(self, kernel)


class FacilityLocationFunction(SetFunction):
    """``F(S) = sum over clients of max benefit from an open facility in S``.

    The uncapacitated facility-location utility [2, 11, 12].  *benefit*
    is a (clients x facilities) finite, non-negative matrix; opening
    facility set S serves each client by its best open facility.
    Monotone submodular.

    The function keeps its own copy of *benefit*: on the first read
    (``value``, ``canonical_payload`` or ``fast_evaluator``) its kernel
    retiles that buffer in place for column gathers, so the caller's
    array is never written and later writes to it never show.
    """

    def __init__(self, facilities: Iterable[Element], benefit: np.ndarray):
        mat = np.array(benefit, dtype=float, order="C")
        # +inf would turn later gains into NaN (inf - inf).
        if not np.isfinite(mat).all():
            raise ValueError("facility benefits must be finite and non-negative")
        self._own(facilities, mat)

    @classmethod
    def _adopt(cls, facilities: Iterable[Element], benefit: np.ndarray) -> "FacilityLocationFunction":
        """Build over *benefit* itself, a C-order float array no one else holds.

        Its entries must already be finite (``facility_utility`` draws
        them in [0, 1)), so the finiteness pass is skipped.
        """
        self = cls.__new__(cls)
        self._own(facilities, benefit)
        return self

    def _own(self, facilities: Iterable[Element], mat: np.ndarray) -> None:
        self._facilities = list(facilities)
        self._index = {f: i for i, f in enumerate(self._facilities)}
        if mat.ndim != 2 or mat.shape[1] != len(self._facilities):
            raise ValueError(
                f"benefit must be (clients x {len(self._facilities)}) 2-D, got {mat.shape}"
            )
        if not (mat >= 0).all():  # also false for NaN
            raise ValueError("facility benefits must be non-negative")
        self._benefit: Optional[np.ndarray] = mat
        self._kernel = None
        self._ground = frozenset(self._facilities)

    def _facility_kernel(self):
        """The tiled kernel; the first call hands it the matrix to retile."""
        if self._kernel is None:
            from repro.core.kernels import _FacilityKernel

            self._kernel = _FacilityKernel(self._benefit)
            self._benefit = None
        return self._kernel

    @property
    def ground_set(self) -> FrozenSet[Element]:
        return self._ground

    def value(self, subset: FrozenSet[Element]) -> float:
        if not subset:
            return 0.0
        cols = [self._index[f] for f in subset]
        # Vectorised best-facility-per-client reduction; this is the hot
        # call in secretary sweeps, hence numpy instead of a python loop.
        return float(self._facility_kernel().columns(cols).max(axis=0).sum())

    def canonical_payload(self) -> Dict[str, object]:
        """JSON-able content description (engine fingerprints hash this)."""
        kernel = self._facility_kernel()
        return {
            "kind": "facility",
            "facilities": [repr(f) for f in self._facilities],
            "benefit": kernel.columns(np.arange(kernel.facilities)).T.tolist(),
        }

    def fast_evaluator(self, backend: Optional[str] = None):
        """Running per-client best-benefit kernel.

        The benefit matrix is inherently dense (clients × facilities),
        so both backend names resolve to the one evaluator.
        """
        from repro.core.kernels import FacilityLocationEvaluator

        if backend == "naive":
            return None
        return FacilityLocationEvaluator(
            self, self._facility_kernel(), self._facilities, index=self._index
        )


class MatroidRankFunction(SetFunction):
    """Rank of a matroid as a set function — monotone submodular [15].

    Accepts any object following the :class:`repro.matroids.base.Matroid`
    protocol (an ``is_independent``/``rank``/``ground_set`` trio).
    """

    def __init__(self, matroid) -> None:
        self._matroid = matroid

    @property
    def ground_set(self) -> FrozenSet[Element]:
        return frozenset(self._matroid.ground_set)

    def value(self, subset: FrozenSet[Element]) -> float:
        return float(self._matroid.rank(subset))


class MaxValueFunction(SetFunction):
    """``F(S) = max of per-element values`` (0 on the empty set).

    The classical best-choice secretary objective [22, 23]; monotone
    submodular.
    """

    def __init__(self, values: Mapping[Element, float]):
        self._values = {k: float(v) for k, v in values.items()}
        self._ground = frozenset(self._values)

    @property
    def ground_set(self) -> FrozenSet[Element]:
        return self._ground

    def value(self, subset: FrozenSet[Element]) -> float:
        return max((self._values[e] for e in subset), default=0.0)


class MinValueFunction(SetFunction):
    """``F(S) = min of per-element values`` — the Section 3.6 bottleneck.

    *Not* submodular (the tests prove it with a witness); included so the
    bottleneck secretary experiment can use the same oracle machinery.
    The empty set is assigned 0, matching "no group hired, no speed".
    """

    def __init__(self, values: Mapping[Element, float]):
        self._values = {k: float(v) for k, v in values.items()}
        self._ground = frozenset(self._values)

    @property
    def ground_set(self) -> FrozenSet[Element]:
        return self._ground

    def value(self, subset: FrozenSet[Element]) -> float:
        return min((self._values[e] for e in subset), default=0.0)
