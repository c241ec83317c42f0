"""Facility location reads its benefit matrix through tiled column gathers.

``FacilityLocationFunction`` keeps its own copy of the benefit matrix,
and on first read its kernel retiles that buffer in place: each block of
``R = max(1, 2^16 // facilities)`` client rows becomes a (facilities ×
R) tile, a ragged last block a shorter one.  Every query must stay
bit-for-bit what the untiled column expressions give; those expressions
are kept here as :class:`ColumnReference`.  The retile must run once per
function, keep one buffer that every evaluator shares, allocate nothing
matrix-sized but its block scratch, and never touch the caller's array.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels
from repro.core.functions import FacilityLocationFunction
from repro.online.serving import ServingLoop, TenantSpec
from repro.online.session import WorkloadCache
from repro.workloads.secretary_streams import facility_utility

TILE = kernels._FACILITY_TILE_VALUES


class ColumnReference:
    """The evaluator's and the function's queries on the untiled matrix."""

    def __init__(self, benefit: np.ndarray):
        self.benefit = benefit
        self.best = np.zeros(benefit.shape[0])
        self.value = 0.0

    def add(self, i: int) -> float:
        np.maximum(self.best, self.benefit[:, i], out=self.best)
        self.value = float(self.best.sum())
        return self.value

    def gains(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.intp)
        return np.maximum(self.benefit[:, ids] - self.best[:, None], 0.0).sum(axis=0)

    def set_gains(self, id_sets) -> np.ndarray:
        if not id_sets:
            return np.zeros(0)
        cols = [self.benefit[:, ids].max(axis=1) if ids else np.zeros(self.benefit.shape[0])
                for ids in id_sets]
        return np.maximum(np.stack(cols) - self.best, 0.0).sum(axis=1)

    def set_value(self, ids) -> float:
        if not ids:
            return 0.0
        return float(self.benefit[:, ids].max(axis=1).sum())


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def same_payload(fn, benefit) -> bool:
    """Whether *fn*'s fingerprint payload lists *benefit* (no list diff on failure)."""
    return fn.canonical_payload()["benefit"] == benefit.tolist()


@st.composite
def shapes(draw):
    """(clients, facilities): every tile edge case, F from 400 down to 1."""
    facilities = draw(st.one_of(st.integers(1, 12), st.integers(13, 400)))
    rows = max(1, TILE // facilities)
    clients = draw(st.sampled_from([0, 1, rows - 1, rows, rows + 1, 2000, 2003]))
    return clients, facilities


@settings(max_examples=150, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), coarse=st.booleans())
def test_every_query_matches_the_column_expressions(shape, seed, coarse):
    clients, facilities = shape
    rng = np.random.default_rng(seed)
    benefit = rng.random((clients, facilities))
    if coarse:
        benefit = np.floor(benefit * 4) / 4  # ties, and gains of exactly zero
    names = [f"f{i}" for i in range(facilities)]
    fn = FacilityLocationFunction(names, benefit)
    ref = ColumnReference(benefit)  # the caller's array: the retile must not reach it
    ev = fn.fast_evaluator()

    def check_queries():
        m = int(rng.integers(1, facilities + 1))
        ids = rng.choice(facilities, size=m, replace=bool(rng.integers(2))).tolist()
        want = ref.gains(ids)
        assert same_bits(ev.gains([names[i] for i in ids]), want)
        assert same_bits(ev.union_values([names[i] for i in ids]), ref.value + want)
        assert same_bits(ev.gain1(names[ids[0]]), want[0])
        id_sets = [rng.choice(facilities, size=int(rng.integers(0, min(facilities, 3) + 1)),
                              replace=False).tolist() for _ in range(int(rng.integers(0, 5)))]
        sets = [[names[i] for i in ids] for ids in id_sets]
        assert same_bits(ev.set_gains(sets), ref.set_gains(id_sets))
        if sets:
            batch = ev.prepare(sets)
            order = rng.integers(0, len(sets), size=2 * len(sets)).tolist()
            assert same_bits(batch.gains(order), ref.set_gains([id_sets[r] for r in order]))
        picked = rng.choice(facilities, size=int(rng.integers(0, facilities + 1)),
                            replace=False).tolist()
        assert same_bits(fn.value(frozenset(names[i] for i in picked)), ref.set_value(picked))

    check_queries()  # empty selection
    selection = rng.choice(facilities, size=min(facilities, 4), replace=False).tolist()
    for step, i in enumerate(selection):
        want = ref.add(i)
        if step % 2:
            ev.advance(names[i], want)
        else:
            assert same_bits(ev.add(names[i]), want)
        assert same_bits(ev.current_value, want)
        check_queries()
    assert same_bits(fn.value(frozenset(names[i] for i in selection)), ref.set_value(selection))
    assert same_payload(fn, benefit)


def test_the_benchmark_shape_matches_the_column_expressions():
    # 2,000 facilities tile 32 clients at a time: 62 full tiles and a
    # ragged 16-row tail, built through facility_utility's no-copy path.
    fn = facility_utility(2000, 2000, rng=83)
    ref = ColumnReference(np.random.default_rng(83).random((2000, 2000)))
    names = [f"s{i}" for i in range(2000)]
    ev = fn.fast_evaluator()
    rng = np.random.default_rng(0)
    for i in rng.choice(2000, size=6, replace=False).tolist():
        ids = rng.choice(2000, size=21, replace=False)
        assert same_bits(ev.gains([names[j] for j in ids]), ref.gains(ids))
        assert same_bits(ev.add(names[i]), ref.add(i))
    assert same_bits(fn.value(frozenset(names[:50])), ref.set_value(list(range(50))))


# -- ownership ---------------------------------------------------------------


def test_later_writes_to_the_callers_matrix_do_not_reach_the_function():
    benefit = np.array([[1.0, 2.0]])
    fn = FacilityLocationFunction(["a", "b"], benefit)
    benefit[0, 0] = 50.0
    assert fn.value(frozenset({"a"})) == 1.0
    benefit[0, 1] = 70.0  # after the retile too
    assert fn.value(frozenset({"b"})) == 2.0
    assert fn.fast_evaluator().gain1("b") == 2.0


@pytest.mark.parametrize("layout", ["C", "F", "list"])
def test_the_retile_does_not_reach_the_callers_matrix(layout):
    rng = np.random.default_rng(4)
    reference = rng.random((70, 2000))  # two 32-row tiles and a 6-row tail
    benefit = {"C": reference.copy(), "F": np.asfortranarray(reference),
               "list": reference.tolist()}[layout]
    names = [f"f{i}" for i in range(2000)]
    fn = FacilityLocationFunction(names, benefit)
    fn.fast_evaluator().add("f3")
    assert np.array_equal(np.asarray(benefit), reference)
    assert fn.value(frozenset(["f3", "f9"])) == ColumnReference(reference).set_value([3, 9])
    assert same_payload(fn, reference)


def test_nan_and_infinite_benefits_are_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        FacilityLocationFunction(["a", "b"], [[np.nan, 1.0], [0.5, 0.2]])
    with pytest.raises(ValueError, match="non-negative"):
        FacilityLocationFunction(["a"], [[-np.inf]])
    # +inf would turn later gains into NaN through inf - inf.
    with pytest.raises(ValueError, match="finite"):
        FacilityLocationFunction(["a", "b"], [[np.inf, np.inf], [0.5, 0.2]])


def test_one_infinite_benefit_among_finite_ones_is_rejected():
    # One +inf cell is enough: the check covers the whole copied matrix,
    # not whole rows or columns.
    benefit = [[np.inf, 1.0], [0.5, 0.2]]
    with pytest.raises(ValueError, match="finite and non-negative"):
        FacilityLocationFunction(["a", "b"], benefit)
    assert benefit[0][0] == np.inf  # the caller's matrix is left as it was


# -- one retile, one buffer ----------------------------------------------------


@pytest.fixture
def retiled(monkeypatch):
    """The matrices handed to a facility kernel, in retile order."""
    buffers = []
    init = kernels._FacilityKernel.__init__

    def spy(self, benefit):
        buffers.append(benefit)
        init(self, benefit)

    monkeypatch.setattr(kernels._FacilityKernel, "__init__", spy)
    return buffers


def _shares(kernel, buffer):
    return all(np.shares_memory(part, buffer) for part in (kernel._head, kernel._tail) if part.size)


def test_the_retile_runs_once_and_every_evaluator_shares_its_buffer(retiled):
    benefit = np.random.default_rng(2).random((70, 2000))
    names = [f"f{i}" for i in range(2000)]
    fn = FacilityLocationFunction._adopt(names, benefit)
    assert not retiled  # building does not retile
    ev1, ev2 = fn.fast_evaluator(), fn.fast_evaluator("dense")
    fn.value(frozenset(names[:3]))
    fn.canonical_payload()
    assert len(retiled) == 1 and retiled[0] is benefit
    assert ev1._kernel is ev2._kernel is fn._facility_kernel()
    assert _shares(ev1._kernel, benefit) and _shares(ev2._kernel, benefit)


def test_a_two_tenant_serve_retiles_its_shared_utility_once(retiled):
    recipe = dict(family="facility", n=60, aux=70, k=3, seed=5, process="bursty")
    specs = [TenantSpec("a", **recipe), TenantSpec("b", shards=2, **recipe)]
    cache = WorkloadCache()
    report = ServingLoop(specs, workload_cache=cache).serve()
    assert len(retiled) == 1
    fn = cache.lookup({**recipe, "policy": "monotone"})[0]
    assert _shares(fn._facility_kernel(), retiled[0])
    for spec in specs:
        alone = spec.start().advance().summary()
        got = report["tenants"][spec.tenant_id]
        for key in ("selected", "value", "oracle_calls"):
            assert got[key] == alone[key], (spec.tenant_id, key)


def test_the_retile_allocates_one_block_of_scratch():
    benefit = np.random.default_rng(1).random((2000, 2000))
    tracemalloc.start()
    try:
        kernel = kernels._FacilityKernel(benefit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 32 * 2000 * 8  # one 32-row tile
    assert block <= peak < 2 * block, peak
    assert _shares(kernel, benefit)
