"""Property suite for the vectorized incremental oracle kernels.

Two families of guarantees, both demanded by the oracle-kernel layer's
contract (:mod:`repro.core.kernels`):

* *marginal equivalence* — for every concrete utility family, every
  batched query (``batch_marginals``, ``gains``, ``set_gains``,
  prepared batches, the scalar fast paths) agrees with the naive
  per-element evaluation ``F(S + c) - F(S)`` to 1e-12, across random
  seeded selections and candidate sets, including candidates
  overlapping the selection;

* *consumer equivalence* — the greedy/secretary/estimate loops produce
  the same pick sequences with kernels on as with the generic naive
  fallback (obtained by hiding the same function behind a
  ``LambdaSetFunction``, which advertises no kernel).
"""

import numpy as np
import pytest

from repro.analysis.ratio import offline_greedy_cardinality
from repro.core.budgeted import BudgetedInstance, budgeted_greedy
from repro.core.functions import (
    AdditiveFunction,
    BudgetAdditiveFunction,
    CoverageFunction,
    CutFunction,
    FacilityLocationFunction,
    WeightedCoverageFunction,
)
from repro.core.kernels import IncrementalEvaluator, evaluator_for
from repro.core.lazy import lazy_budgeted_greedy
from repro.core.oracle import CachedOracle, CountingOracle
from repro.core.submodular import LambdaSetFunction, TruncatedFunction
from repro.errors import OracleError
from repro.online.driver import ArrivalOracle
from repro.secretary.knapsack_secretary import offline_knapsack_estimate
from repro.secretary.stream import SecretaryStream
from repro.secretary.submodular_secretary import monotone_submodular_secretary

TOL = 1e-12


def _families(seed: int):
    """One seeded instance of every kernel-backed utility family."""
    rng = np.random.default_rng(seed)
    els = [f"e{i}" for i in range(18)]
    values = {e: float(rng.random()) for e in els}
    covers = {e: {f"u{j}" for j in rng.choice(25, size=int(rng.integers(1, 5)), replace=False)} for e in els}
    weights = {f"u{j}": float(rng.random() * 3) for j in range(25)}
    edges = [
        (els[i], els[j], float(rng.random()))
        for i in range(len(els))
        for j in range(i + 1, len(els))
        if rng.random() < 0.3
    ]
    return [
        AdditiveFunction(values),
        BudgetAdditiveFunction(values, cap=3.0),
        CoverageFunction(covers),
        WeightedCoverageFunction(covers, weights),
        CutFunction(els, edges),
        FacilityLocationFunction(els, rng.random((11, len(els)))),
    ]


def _random_selection(rng, ground):
    ground = sorted(ground, key=repr)
    n_pick = int(rng.integers(0, len(ground)))
    return set(rng.choice(ground, size=n_pick, replace=False)) if n_pick else set()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_marginals_match_naive(seed):
    rng = np.random.default_rng(100 + seed)
    for fn in _families(seed):
        ground = sorted(fn.ground_set, key=repr)
        for _ in range(4):
            sel = _random_selection(rng, ground)
            base = frozenset(sel)
            fsel = fn.value(base)
            expected = np.array([fn.value(base | {c}) - fsel for c in ground])
            got = fn.batch_marginals(sel, ground)
            assert np.allclose(got, expected, rtol=TOL, atol=TOL), type(fn).__name__


@pytest.mark.parametrize("seed", [0, 1])
def test_set_gains_and_prepared_match_naive_under_overlap(seed):
    rng = np.random.default_rng(200 + seed)
    for fn in _families(seed):
        ground = sorted(fn.ground_set, key=repr)
        sel = _random_selection(rng, ground)
        # Candidate sets deliberately overlap the selection: the kernel
        # must charge only the genuinely new part.
        cand_sets = [
            frozenset(rng.choice(ground, size=int(rng.integers(1, 5)), replace=False))
            for _ in range(6)
        ]
        base = frozenset(sel)
        fsel = fn.value(base)
        expected = np.array([fn.value(base | s) - fsel for s in cand_sets])
        ev = fn.incremental_evaluator()
        assert ev.fast, type(fn).__name__
        ev.reset(sel)
        assert np.allclose(ev.set_gains(cand_sets), expected, rtol=TOL, atol=TOL)
        batch = ev.prepare(cand_sets)
        assert np.allclose(batch.gains(range(len(cand_sets))), expected, rtol=TOL, atol=TOL)
        # Prepared batches track evaluator state across adds.
        extra = next(e for e in ground if e not in sel)
        ev.add(extra)
        base2 = base | {extra}
        f2 = fn.value(base2)
        expected2 = np.array([fn.value(base2 | s) - f2 for s in cand_sets])
        assert np.allclose(batch.gains(range(len(cand_sets))), expected2, rtol=TOL, atol=TOL)


@pytest.mark.parametrize("seed", [0, 1])
def test_incremental_adds_track_value(seed):
    rng = np.random.default_rng(300 + seed)
    for fn in _families(seed):
        ground = sorted(fn.ground_set, key=repr)
        ev = fn.incremental_evaluator()
        acc: set = set()
        order = list(rng.permutation(ground))
        for e in order[:10]:
            got = ev.add(e)
            acc.add(e)
            want = fn.value(frozenset(acc))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9), type(fn).__name__
            assert ev.gain1(e) == pytest.approx(0.0, abs=TOL)  # already selected
            fresh = [x for x in ground if x not in acc]
            if fresh:
                assert ev.union_value1(fresh[0]) == pytest.approx(
                    fn.value(frozenset(acc) | {fresh[0]}), rel=1e-9, abs=1e-9
                )


def test_naive_fallback_for_opaque_functions():
    values = {f"e{i}": float(i + 1) for i in range(6)}
    fn = AdditiveFunction(values)
    lam = LambdaSetFunction(fn.ground_set, fn.value)
    ev = lam.incremental_evaluator()
    assert isinstance(ev, IncrementalEvaluator) and not ev.fast
    assert np.allclose(
        lam.batch_marginals({"e0"}, ["e1", "e2"]),
        [values["e1"], values["e2"]],
        rtol=TOL, atol=TOL,
    )
    trunc = TruncatedFunction(fn, cap=4.0)
    assert not trunc.incremental_evaluator().fast
    assert trunc.batch_marginals(set(), ["e4"])[0] == pytest.approx(4.0)


def _as_naive(fn):
    """Hide *fn* behind a lambda so every consumer takes the naive path."""
    return LambdaSetFunction(fn.ground_set, fn.value)


def _instances_for_greedy(seed: int):
    rng = np.random.default_rng(400 + seed)
    out = []
    for fn in _families(seed):
        ground = sorted(fn.ground_set, key=repr)
        # Mixed singleton/multi-element subsets with arbitrary costs.
        subsets = {}
        costs = {}
        for i, e in enumerate(ground):
            subsets[f"s{i}"] = frozenset({e})
            costs[f"s{i}"] = float(0.5 + rng.random())
        for i in range(5):
            members = frozenset(rng.choice(ground, size=3, replace=False))
            subsets[f"m{i}"] = members
            costs[f"m{i}"] = float(1.0 + rng.random())
        out.append((fn, subsets, costs))
    return out


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("runner", [budgeted_greedy, lazy_budgeted_greedy])
def test_greedy_pick_sequences_match_kernels_on_vs_off(seed, runner):
    for fn, subsets, costs in _instances_for_greedy(seed):
        if isinstance(fn, CutFunction):
            continue  # the budgeted greedy contract is monotone utilities
        target = fn.value(frozenset(fn.ground_set)) * 0.7
        if target <= 0:
            continue
        fast = runner(
            BudgetedInstance(utility=fn, subsets=subsets, costs=costs),
            target=target, epsilon=0.25,
        )
        slow = runner(
            BudgetedInstance(utility=_as_naive(fn), subsets=subsets, costs=costs),
            target=target, epsilon=0.25,
        )
        assert fast.chosen == slow.chosen, type(fn).__name__
        assert fast.cost == pytest.approx(slow.cost, rel=TOL)
        assert fast.utility == pytest.approx(slow.utility, rel=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_offline_greedy_cardinality_matches_naive(seed):
    for fn in _families(seed):
        chosen_fast, value_fast = offline_greedy_cardinality(fn, 5)
        chosen_slow, value_slow = offline_greedy_cardinality(_as_naive(fn), 5)
        assert chosen_fast == chosen_slow, type(fn).__name__
        assert value_fast == pytest.approx(value_slow, rel=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_offline_knapsack_estimate_matches_naive(seed):
    rng = np.random.default_rng(500 + seed)
    for fn in _families(seed):
        items = sorted(fn.ground_set, key=repr)
        weights = {e: float(0.05 + 0.4 * rng.random()) for e in items}
        fast = offline_knapsack_estimate(fn, weights, items)
        slow = offline_knapsack_estimate(_as_naive(fn), weights, items)
        assert fast == pytest.approx(slow, rel=1e-9), type(fn).__name__


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_secretary_selection_and_counts_match_kernels_on_vs_off(seed):
    for fn in _families(seed):
        order = sorted(fn.ground_set, key=repr)
        counting_fast = CountingOracle(fn)
        counting_slow = CountingOracle(_as_naive(fn))
        fast = monotone_submodular_secretary(
            SecretaryStream(counting_fast, order=order), k=4
        )
        slow = monotone_submodular_secretary(
            SecretaryStream(counting_slow, order=order), k=4
        )
        assert fast.selected == slow.selected, type(fn).__name__
        # The batched accounting bills one query per scored candidate,
        # so reported oracle work is identical to the naive scan.
        assert counting_fast.calls == counting_slow.calls, type(fn).__name__


def test_arrival_evaluator_enforces_no_peeking():
    fn = AdditiveFunction({f"e{i}": float(i + 1) for i in range(8)})
    order = sorted(fn.ground_set, key=repr)
    oracle = ArrivalOracle(fn)
    ev = oracle.incremental_evaluator()
    assert ev.fast
    with pytest.raises(OracleError):
        ev.gains([order[0]])  # nothing has arrived yet
    first = order[0]
    oracle.reveal(first)
    assert ev.gain1(first) == pytest.approx(fn.value(frozenset({first})))
    with pytest.raises(OracleError):
        ev.union_value1(order[3] if order[3] != first else order[4])
    with pytest.raises(OracleError):
        ev.add(order[5] if order[5] != first else order[6])


def test_counting_oracle_bills_batches_per_candidate():
    fn = CoverageFunction({f"e{i}": {i, i + 1} for i in range(10)})
    counting = CountingOracle(fn)
    ev = counting.incremental_evaluator()
    assert ev.fast
    assert counting.calls == 1  # construction evaluates (and bills) F(empty)
    ev.gains([f"e{i}" for i in range(10)])
    assert counting.calls == 11
    ev.union_value1("e0")
    assert counting.calls == 12
    batch = ev.prepare([frozenset({"e1", "e2"}), frozenset({"e3"})])
    batch.gains([0, 1])
    assert counting.calls == 14
    ev.set_gains([frozenset({"e4"})])
    assert counting.calls == 15


def test_cached_oracle_prefers_kernel_over_memo():
    fn = CoverageFunction({f"e{i}": {i, i + 1} for i in range(6)})
    cached = CachedOracle(fn)
    ev = cached.incremental_evaluator()
    assert ev.fast  # kernel state subsumes memoisation
    assert ev.gain1("e0") == pytest.approx(2.0)
    assert cached.hits == cached.misses == 0  # dict caches bypassed


def test_evaluator_for_falls_back_without_api():
    class Bare:
        ground_set = frozenset({"a", "b"})

        def value(self, subset):
            return float(len(subset))

    ev = evaluator_for(Bare())
    assert not ev.fast
    assert ev.gains(["a"])[0] == pytest.approx(1.0)
