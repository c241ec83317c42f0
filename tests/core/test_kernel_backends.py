"""Property suite for the sparse/chunked kernel backend layer (v2).

The contracts under test, in the order the backend layer promises them:

* *bit-identity* — wherever a family has both a dense and a sparse
  backend, every query (``gains``, ``gain1``, ``union_values``,
  ``set_gains``, prepared batches) returns **exactly equal** floats on
  both, across growing selections.  This is the property that lets
  automatic backend selection flip per instance size without a single
  committed bench cell drifting.

* *constructor equivalence* — an ``from_arrays`` instance over integer
  elements agrees with the mapping-built instance of the same data, on
  the naive path and on every backend.

* *selection rule* — ``resolve_backend`` honours explicit overrides and
  applies the pinned cell/density constants on ``auto``.

* *degenerate instances* — empty ground sets, single-element universes,
  all-zero weights, and candidate pools larger than the ground set stay
  naive-parity correct on both backends.

* *wrapper passthrough* — ``backend=`` threads through
  ``CountingOracle`` / ``CachedOracle`` / ``FaultyOracle`` /
  ``ArrivalOracle`` / ``ShardView`` down to the family.
"""

import numpy as np
import pytest

from repro.core.functions import (
    AdditiveFunction,
    BudgetAdditiveFunction,
    CoverageFunction,
    CutFunction,
    WeightedCoverageFunction,
)
from repro.core.kernels import (
    DENSE_CELL_LIMIT,
    DENSE_CELL_MIN,
    KERNEL_BACKENDS,
    SPARSE_DENSITY_CUTOFF,
    CoverageEvaluator,
    IncrementalEvaluator,
    SparseCoverageEvaluator,
    SparseCutEvaluator,
    resolve_backend,
)
from repro.core.oracle import CachedOracle, CountingOracle

TOL = 1e-12


def _coverage_pair(seed, n=24, universe=40):
    """Equivalent mapping-built and array-built coverage instances."""
    rng = np.random.default_rng(seed)
    rows = [
        sorted(rng.choice(universe, size=int(rng.integers(1, 6)), replace=False))
        for _ in range(n)
    ]
    covers = {i: {int(j) for j in row} for i, row in enumerate(rows)}
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.concatenate([np.asarray(r) for r in rows]) if n else np.zeros(0)
    return covers, indptr, indices


def _cut_pair(seed, n=20):
    """Equivalent mapping-built and array-built cut instances."""
    rng = np.random.default_rng(seed)
    u, v, w = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                u.append(i)
                v.append(j)
                w.append(float(rng.random()))
    edges = list(zip(u, v, w))
    return edges, np.asarray(u), np.asarray(v), np.asarray(w)


def _drive_both(make_a, make_b, ground, rng, rounds=4):
    """Drive two evaluators through identical query/add sequences.

    Yields paired query results; the caller asserts its equality
    notion (exact for backend pairs, 1e-12 for naive parity).
    """
    ev_a, ev_b = make_a(), make_b()
    pool = list(ground)
    for _ in range(rounds):
        yield ev_a.gains(pool), ev_b.gains(pool)
        probe = pool[int(rng.integers(len(pool)))]
        yield ev_a.gain1(probe), ev_b.gain1(probe)
        yield ev_a.union_values(pool[::2]), ev_b.union_values(pool[::2])
        sets = [
            [pool[int(i)] for i in rng.choice(len(pool), size=3, replace=False)]
            for _ in range(3)
        ]
        yield ev_a.set_gains(sets), ev_b.set_gains(sets)
        batch_a, batch_b = ev_a.prepare(sets), ev_b.prepare(sets)
        idx = [2, 0]
        yield batch_a.gains(idx), batch_b.gains(idx)
        pick = pool[int(rng.integers(len(pool)))]
        ev_a.add(pick)
        ev_b.add(pick)
        yield ev_a.current_value, ev_b.current_value


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_coverage_dense_equals_sparse_exactly(self, seed):
        covers, _, _ = _coverage_pair(seed)
        fn = CoverageFunction(covers)
        rng = np.random.default_rng(500 + seed)
        for a, b in _drive_both(
            lambda: fn.fast_evaluator("dense"),
            lambda: fn.fast_evaluator("sparse"),
            sorted(fn.ground_set),
            rng,
        ):
            assert np.array_equal(np.asarray(a), np.asarray(b))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cut_dense_equals_sparse_exactly(self, seed):
        edges, *_ = _cut_pair(seed)
        fn = CutFunction(range(20), edges)
        rng = np.random.default_rng(600 + seed)
        for a, b in _drive_both(
            lambda: fn.fast_evaluator("dense"),
            lambda: fn.fast_evaluator("sparse"),
            sorted(fn.ground_set),
            rng,
        ):
            assert np.array_equal(np.asarray(a), np.asarray(b))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_backend_types_are_what_the_override_names(self, seed):
        covers, _, _ = _coverage_pair(seed)
        fn = CoverageFunction(covers)
        assert isinstance(fn.fast_evaluator("dense"), CoverageEvaluator)
        assert isinstance(fn.fast_evaluator("sparse"), SparseCoverageEvaluator)
        edges, *_ = _cut_pair(seed)
        cut = CutFunction(range(20), edges)
        assert isinstance(cut.fast_evaluator("sparse"), SparseCutEvaluator)
        assert cut.fast_evaluator("naive") is None
        assert isinstance(
            cut.incremental_evaluator(backend="naive"), IncrementalEvaluator
        )
        assert not cut.incremental_evaluator(backend="naive").fast

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sparse_matches_naive_to_tolerance(self, seed):
        covers, _, _ = _coverage_pair(seed)
        weights = {
            j: float(np.random.default_rng(seed).random()) * 2 for j in range(40)
        }
        rng = np.random.default_rng(700 + seed)
        for fn in (
            CoverageFunction(covers),
            WeightedCoverageFunction(covers, weights),
        ):
            ground = sorted(fn.ground_set)
            for a, b in _drive_both(
                lambda fn=fn: fn.fast_evaluator("sparse"),
                lambda fn=fn: IncrementalEvaluator(fn),
                ground,
                rng,
            ):
                assert np.allclose(
                    np.asarray(a), np.asarray(b), rtol=TOL, atol=TOL
                )


class TestFromArrays:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_coverage_from_arrays_matches_mapping_built(self, seed):
        covers, indptr, indices = _coverage_pair(seed)
        dict_fn = CoverageFunction(covers)
        arr_fn = CoverageFunction.from_arrays(indptr, indices, n_items=40)
        assert arr_fn.ground_set == dict_fn.ground_set
        rng = np.random.default_rng(seed)
        sel = [0, 5, 7]
        pool = list(range(24))
        for backend in ("dense", "sparse", "naive"):
            got = arr_fn.batch_marginals(sel, pool, backend=backend)
            want = dict_fn.batch_marginals(sel, pool, backend="naive")
            assert np.allclose(got, want, rtol=TOL, atol=TOL), backend
        # Unsorted/duplicated rows canonicalize to the same instance.
        rev = CoverageFunction.from_arrays(
            np.repeat(indptr, 1), np.concatenate([indices[s:e][::-1] for s, e in zip(indptr[:-1], indptr[1:])]),
            n_items=40,
        )
        assert np.array_equal(
            rev.batch_marginals(sel, pool), arr_fn.batch_marginals(sel, pool)
        )
        del rng

    @pytest.mark.parametrize("seed", [0, 1])
    def test_weighted_coverage_from_arrays_matches_mapping_built(self, seed):
        covers, indptr, indices = _coverage_pair(seed)
        w = np.random.default_rng(seed).random(40) * 3
        dict_fn = WeightedCoverageFunction(covers, {j: float(w[j]) for j in range(40)})
        arr_fn = WeightedCoverageFunction.from_arrays(indptr, indices, w)
        sel, pool = [1, 2], list(range(24))
        assert np.allclose(
            arr_fn.batch_marginals(sel, pool),
            dict_fn.batch_marginals(sel, pool),
            rtol=TOL,
            atol=TOL,
        )
        assert arr_fn.value(frozenset(sel)) == pytest.approx(
            dict_fn.value(frozenset(sel)), abs=TOL
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cut_from_arrays_matches_mapping_built(self, seed):
        edges, u, v, w = _cut_pair(seed)
        dict_fn = CutFunction(range(20), edges)
        arr_fn = CutFunction.from_arrays(20, u, v, w)
        sel, pool = [3, 4], list(range(20))
        for backend in ("dense", "sparse", "naive"):
            assert np.allclose(
                arr_fn.batch_marginals(sel, pool, backend=backend),
                dict_fn.batch_marginals(sel, pool, backend="naive"),
                rtol=TOL,
                atol=TOL,
            ), backend
        # Parallel edges consolidate; self-loops drop.
        doubled = CutFunction.from_arrays(
            20,
            np.concatenate([u, u, [5]]),
            np.concatenate([v, v, [5]]),
            np.concatenate([w, w, [9.0]]),
        )
        want = CutFunction(range(20), [(a, b, 2 * c) for a, b, c in edges])
        assert np.allclose(
            doubled.batch_marginals(sel, pool),
            want.batch_marginals(sel, pool, backend="naive"),
            rtol=TOL,
            atol=TOL,
        )

    def test_additive_from_arrays_matches_mapping_built(self):
        vals = np.random.default_rng(0).random(30)
        dict_fn = AdditiveFunction({i: float(vals[i]) for i in range(30)})
        arr_fn = AdditiveFunction.from_arrays(vals)
        budget = BudgetAdditiveFunction.from_arrays(vals, cap=2.0)
        sel, pool = [2, 9], list(range(30))
        assert np.allclose(
            arr_fn.batch_marginals(sel, pool),
            dict_fn.batch_marginals(sel, pool),
            rtol=TOL,
            atol=TOL,
        )
        bd = BudgetAdditiveFunction({i: float(vals[i]) for i in range(30)}, cap=2.0)
        assert np.allclose(
            budget.batch_marginals(sel, pool),
            bd.batch_marginals(sel, pool),
            rtol=TOL,
            atol=TOL,
        )
        assert budget.fast_evaluator().modular is False
        assert arr_fn.fast_evaluator().modular is True

    def test_from_arrays_payloads_are_content_hashed(self):
        _, indptr, indices = _coverage_pair(0)
        a = CoverageFunction.from_arrays(indptr, indices, n_items=40)
        b = CoverageFunction.from_arrays(indptr.copy(), indices.copy(), n_items=40)
        assert a.canonical_payload() == b.canonical_payload()
        assert a.canonical_payload()["kind"] == "coverage_csr"


class TestSelectionRule:
    def test_explicit_overrides_win(self):
        assert resolve_backend("dense", cells=10**12, nnz=1) == "dense"
        assert resolve_backend("sparse", cells=4, nnz=4) == "sparse"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("turbo", cells=4, nnz=4)

    def test_auto_rule_uses_the_pinned_constants(self):
        # Above the hard cell limit: always sparse.
        assert resolve_backend(None, cells=DENSE_CELL_LIMIT + 1, nnz=0) == "sparse"
        # Below the dense floor: always dense, any density.
        assert resolve_backend(None, cells=DENSE_CELL_MIN, nnz=0) == "dense"
        # In between: density decides.
        mid = DENSE_CELL_MIN * 4
        sparse_nnz = int(SPARSE_DENSITY_CUTOFF * mid) - 1
        assert resolve_backend(None, cells=mid, nnz=sparse_nnz) == "sparse"
        assert resolve_backend(None, cells=mid, nnz=sparse_nnz + 2) == "dense"
        assert resolve_backend("auto", cells=mid, nnz=sparse_nnz) == "sparse"

    def test_auto_picks_sparse_for_large_instances(self):
        n = 40_000
        rng = np.random.default_rng(1)
        indptr = np.arange(n + 1, dtype=np.int64) * 3
        indices = rng.integers(0, n, 3 * n)
        fn = CoverageFunction.from_arrays(indptr, indices, n_items=n)
        assert isinstance(fn.fast_evaluator(), SparseCoverageEvaluator)
        small = CoverageFunction({0: {1, 2}, 1: {2}})
        assert isinstance(small.fast_evaluator(), CoverageEvaluator)

    def test_backends_tuple_is_pinned(self):
        assert KERNEL_BACKENDS == ("auto", "dense", "sparse", "naive")


class TestDegenerateInstances:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_empty_ground_set(self, backend):
        fn = CoverageFunction({})
        assert fn.batch_marginals([], [], backend=backend).shape == (0,)
        cut = CutFunction.from_arrays(0, [], [], [])
        assert cut.batch_marginals([], [], backend=backend).shape == (0,)
        add = AdditiveFunction.from_arrays([])
        assert add.batch_marginals([], [], backend=backend).shape == (0,)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_single_element_universe(self, backend):
        fn = CoverageFunction({"a": {"u"}, "b": {"u"}, "c": set()})
        got = fn.batch_marginals([], ["a", "b", "c"], backend=backend)
        assert np.array_equal(got, [1.0, 1.0, 0.0])
        ev = fn.incremental_evaluator(backend=backend)
        ev.add("a")
        assert np.array_equal(ev.gains(["b", "c"]), [0.0, 0.0])
        assert ev.current_value == 1.0

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_all_zero_weights(self, backend):
        covers, indptr, indices = _coverage_pair(3)
        fn = WeightedCoverageFunction(covers, {j: 0.0 for j in range(40)})
        pool = sorted(fn.ground_set)
        got = fn.batch_marginals([], pool, backend=backend)
        assert np.array_equal(got, np.zeros(len(pool)))
        arr = WeightedCoverageFunction.from_arrays(indptr, indices, np.zeros(40))
        assert np.array_equal(
            arr.batch_marginals([0], list(range(24)), backend=backend),
            np.zeros(24),
        )

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_candidate_pool_larger_than_ground_set(self, backend):
        covers, _, _ = _coverage_pair(4, n=6, universe=10)
        fn = CoverageFunction(covers)
        pool = list(range(6)) * 4  # repeats: pool >> ground set
        got = fn.batch_marginals([2], pool, backend=backend)
        naive = fn.batch_marginals([2], pool, backend="naive")
        assert np.allclose(got, naive, rtol=TOL, atol=TOL)
        assert len(got) == 24

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_isolated_vertices_and_empty_graph(self, backend):
        cut = CutFunction.from_arrays(5, [], [], [])
        got = cut.batch_marginals([], list(range(5)), backend=backend)
        assert np.array_equal(got, np.zeros(5))
        one = CutFunction.from_arrays(3, [0], [1], [2.0])
        ev = one.incremental_evaluator(backend=backend)
        assert np.array_equal(ev.gains([0, 1, 2]), [2.0, 2.0, 0.0])
        ev.add(0)
        assert np.array_equal(ev.gains([1, 2]), [-2.0, 0.0])


class TestWrapperPassthrough:
    def test_counting_and_cached_forward_backend(self):
        covers, _, _ = _coverage_pair(5)
        fn = CoverageFunction(covers)
        for wrap in (CountingOracle, CachedOracle):
            ev = wrap(fn).fast_evaluator(backend="sparse")
            assert isinstance(getattr(ev, "_inner", ev), SparseCoverageEvaluator)
            assert wrap(fn).fast_evaluator(backend="naive") is None

    def test_counting_bills_equally_on_both_backends(self):
        covers, _, _ = _coverage_pair(6)
        calls = {}
        for backend in ("dense", "sparse"):
            oracle = CountingOracle(CoverageFunction(covers))
            oracle.batch_marginals([0, 1], list(range(24)), backend=backend)
            calls[backend] = oracle.calls
        assert calls["dense"] == calls["sparse"]

    def test_faulty_oracle_forwards_backend(self):
        from repro.online.faults import FaultInjector, FaultPlan

        covers, _, _ = _coverage_pair(7)
        counting = CountingOracle(CoverageFunction(covers))
        faulty = FaultInjector(FaultPlan()).wrap_oracle(counting, "t")
        ev = faulty.fast_evaluator(backend="sparse")
        assert ev is not None and ev.fast
        assert isinstance(ev._inner._inner, SparseCoverageEvaluator)

    def test_arrival_oracle_and_shard_view_forward_backend(self):
        from repro.online.driver import ArrivalOracle
        from repro.online.sharding import ShardView

        covers, _, _ = _coverage_pair(8)
        fn = CoverageFunction(covers)
        oracle = ArrivalOracle(fn)
        for e in fn.ground_set:
            oracle.reveal(e)
        ev = oracle.fast_evaluator(backend="sparse")
        assert isinstance(ev._inner, SparseCoverageEvaluator)
        view = ShardView(fn, sorted(fn.ground_set)[:5])
        assert isinstance(
            view.fast_evaluator(backend="sparse"), SparseCoverageEvaluator
        )


class TestBatchMarginals:
    def test_returns_a_plain_array(self):
        covers, _, _ = _coverage_pair(10)
        fn = CoverageFunction(covers)
        out = fn.batch_marginals([0], list(range(24)))
        assert isinstance(out, np.ndarray)
