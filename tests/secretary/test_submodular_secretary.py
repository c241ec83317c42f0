"""Algorithms 1 and 2: structure, feasibility, empirical competitiveness."""

import math

import pytest

from repro.analysis.ratio import offline_optimum_cardinality
from repro.core.functions import AdditiveFunction
from repro.errors import BudgetError
from repro.rng import spawn, as_generator
from repro.online.runtime import segment_bounds as _segment_bounds
from repro.secretary.stream import SecretaryStream
from repro.secretary.submodular_secretary import (
    monotone_submodular_secretary,
    nonmonotone_submodular_secretary,
)
from repro.workloads.secretary_streams import (
    additive_values,
    coverage_utility,
    cut_utility,
)


class TestSegmentBounds:
    def test_even_split(self):
        assert _segment_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_distributed(self):
        bounds = _segment_bounds(10, 3)
        sizes = [e - s for s, e in bounds]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_k_larger_than_n(self):
        bounds = _segment_bounds(2, 5)
        assert sum(e - s for s, e in bounds) == 2
        assert all(e >= s for s, e in bounds)

    def test_covers_everything_exactly_once(self):
        for n, k in [(17, 4), (5, 5), (100, 7)]:
            bounds = _segment_bounds(n, k)
            covered = [t for s, e in bounds for t in range(s, e)]
            assert covered == list(range(n))


class TestAlgorithm1:
    def test_at_most_k_hires(self):
        fn = coverage_utility(60, 30, rng=0)
        stream = SecretaryStream(fn, rng=1)
        result = monotone_submodular_secretary(stream, 5)
        assert result.hires <= 5

    def test_one_hire_per_segment(self):
        fn = coverage_utility(60, 30, rng=2)
        stream = SecretaryStream(fn, rng=3)
        result = monotone_submodular_secretary(stream, 6)
        picks = [t.picked for t in result.traces if t.picked is not None]
        assert len(picks) == len(set(picks)) == result.hires
        assert len(result.traces) == 6

    def test_k_must_be_positive(self):
        fn = coverage_utility(10, 5, rng=4)
        stream = SecretaryStream(fn, rng=5)
        with pytest.raises(BudgetError):
            monotone_submodular_secretary(stream, 0)

    def test_traces_are_ordered_windows(self):
        fn = coverage_utility(40, 20, rng=6)
        stream = SecretaryStream(fn, rng=7)
        result = monotone_submodular_secretary(stream, 4)
        for t in result.traces:
            assert t.start <= t.observe_until <= t.end

    def test_value_nondecreasing_across_picks(self):
        fn = coverage_utility(60, 30, rng=8)
        stream = SecretaryStream(fn, rng=9)
        result = monotone_submodular_secretary(stream, 6)
        for t in result.traces:
            assert t.gain >= -1e-9

    def test_no_oracle_peeking(self):
        # ArrivalOracle raises on future queries; a clean run certifies
        # the algorithm is genuinely online.
        fn = coverage_utility(50, 25, rng=10)
        stream = SecretaryStream(fn, rng=11)
        monotone_submodular_secretary(stream, 5)  # must not raise

    def test_empirical_competitiveness_additive(self):
        # Theorem 3.1.1 guarantees E[f(T_k)] >= OPT/(7e); on benign
        # additive streams the measured mean is far above the bound.
        k, n, trials = 4, 120, 60
        master = as_generator(123)
        ratios = []
        for child in spawn(master, trials):
            fn, values = additive_values(n, rng=child)
            opt = sum(sorted(values.values(), reverse=True)[:k])
            stream = SecretaryStream(fn, rng=child)
            result = monotone_submodular_secretary(stream, k)
            ratios.append(fn.value(result.selected) / opt)
        mean = sum(ratios) / trials
        assert mean >= 1.0 / (7 * math.e)

    def test_empirical_competitiveness_coverage(self):
        k, trials = 4, 40
        master = as_generator(321)
        ratios = []
        for child in spawn(master, trials):
            fn = coverage_utility(80, 25, rng=child)
            opt, _ = offline_optimum_cardinality(fn, k, exhaustive_budget=0)
            stream = SecretaryStream(fn, rng=child)
            result = monotone_submodular_secretary(stream, k)
            ratios.append(fn.value(result.selected) / opt if opt else 1.0)
        mean = sum(ratios) / trials
        assert mean >= 1.0 / (7 * math.e)


class TestAlgorithm2:
    def test_half_strategies_used(self):
        fn = cut_utility(40, rng=0)
        strategies = set()
        for seed in range(12):
            stream = SecretaryStream(fn, rng=seed)
            result = nonmonotone_submodular_secretary(stream, 4, rng=seed)
            strategies.add(result.strategy)
        assert strategies == {"first-half", "second-half"}

    def test_at_most_k_hires(self):
        fn = cut_utility(40, rng=1)
        stream = SecretaryStream(fn, rng=2)
        result = nonmonotone_submodular_secretary(stream, 3, rng=3)
        assert result.hires <= 3

    def test_selection_within_chosen_half(self):
        fn = cut_utility(30, rng=4)
        stream = SecretaryStream(fn, rng=5)
        result = nonmonotone_submodular_secretary(stream, 3, rng=6)
        half = stream.n // 2
        if result.strategy == "first-half":
            allowed = set(stream.order[:half])
        else:
            allowed = set(stream.order[half:])
        assert set(result.selected) <= allowed

    def test_empirical_competitiveness_cut(self):
        # Bound: OPT / (8 e^2) ~ 0.0169 OPT. Cut streams easily beat it.
        k, trials = 4, 40
        master = as_generator(777)
        ratios = []
        for child in spawn(master, trials):
            fn = cut_utility(40, rng=child)
            opt, _ = offline_optimum_cardinality(fn, k, exhaustive_budget=0)
            stream = SecretaryStream(fn, rng=child)
            result = nonmonotone_submodular_secretary(stream, k, rng=child)
            ratios.append(fn.value(result.selected) / opt if opt else 1.0)
        mean = sum(ratios) / trials
        assert mean >= 1.0 / (8 * math.e**2)


class TestSegmentEngine:
    def test_respects_can_take(self):
        fn = AdditiveFunction({f"s{i}": float(i) for i in range(20)})
        stream = SecretaryStream(fn, rng=0)
        forbidden = set(list(fn.ground_set)[:10])
        result = monotone_submodular_secretary(
            stream, 5, can_take=lambda T, a: a not in forbidden,
        )
        assert not (set(result.selected) & forbidden)

    def test_zero_length_stream(self):
        stream = SecretaryStream(AdditiveFunction({}), rng=0)
        result = monotone_submodular_secretary(stream, 3)
        assert result.selected == frozenset()
        assert len(result.traces) == 3
