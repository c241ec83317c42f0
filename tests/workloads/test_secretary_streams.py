"""Secretary utility generators."""

import numpy as np
import pytest

from repro.core.submodular import check_monotone, check_submodular
from repro.engine import SweepSpec, run_one
from repro.errors import InvalidInstanceError
from repro.workloads.secretary_streams import (
    additive_values,
    coverage_utility,
    cut_utility,
    facility_utility,
    knapsack_weights,
    stream_utility,
)


class TestAdditive:
    def test_size_and_values_match(self):
        fn, values = additive_values(30, rng=0)
        assert len(fn.ground_set) == 30
        for e, v in values.items():
            assert fn({e}) == pytest.approx(v)

    def test_lognormal_heavy_tail(self):
        _, values = additive_values(500, distribution="lognormal", rng=1)
        vals = sorted(values.values())
        assert vals[-1] > 4 * (sum(vals) / len(vals))  # heavy tail present

    def test_unknown_distribution(self):
        with pytest.raises(InvalidInstanceError):
            additive_values(5, distribution="cauchy")

    def test_determinism(self):
        _, a = additive_values(10, rng=3)
        _, b = additive_values(10, rng=3)
        assert a == b


class TestCoverage:
    def test_ground_size(self):
        fn = coverage_utility(25, 10, rng=0)
        assert len(fn.ground_set) == 25

    def test_every_secretary_covers_something(self):
        fn = coverage_utility(25, 10, rng=1)
        for e in fn.ground_set:
            assert fn({e}) >= 1.0

    def test_submodular(self):
        fn = coverage_utility(7, 6, rng=2)
        assert check_submodular(fn)
        assert check_monotone(fn)

    def test_bad_parameters(self):
        with pytest.raises(InvalidInstanceError):
            coverage_utility(0, 5)


class TestFacility:
    def test_submodular(self):
        fn = facility_utility(6, 5, rng=0)
        assert check_submodular(fn)

    def test_bad_parameters(self):
        with pytest.raises(InvalidInstanceError):
            facility_utility(3, 0)


class TestCut:
    def test_submodular_nonmonotone(self):
        fn = cut_utility(7, rng=0)
        assert check_submodular(fn)

    def test_full_set_cut_is_zero(self):
        fn = cut_utility(10, rng=1)
        assert fn(fn.ground_set) == 0.0

    def test_edge_probability_extremes(self):
        empty = cut_utility(8, edge_probability=0.0, rng=2)
        assert empty({"s0"}) == 0.0
        dense = cut_utility(8, edge_probability=1.0, rng=3)
        assert dense({"s0"}) > 0.0

    def test_bad_parameters(self):
        with pytest.raises(InvalidInstanceError):
            cut_utility(5, edge_probability=2.0)


class TestKnapsackWeights:
    @staticmethod
    def loop_weights(elements, n_knapsacks, gen, low=0.05, high=0.5):
        """The per-element, per-knapsack ``gen.random()`` loop it replaced."""
        span = high - low
        return {
            e: [float(low + span * gen.random()) for _ in range(n_knapsacks)]
            for e in sorted(elements, key=repr)
        }

    @pytest.mark.parametrize("n_knapsacks", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", range(20))
    def test_one_draw_equals_the_loop(self, seed, n_knapsacks):
        elements = {f"s{i}" for i in range(37)} | {3, (1, "x")}
        ref, gen = np.random.default_rng(seed), np.random.default_rng(seed)
        want = self.loop_weights(elements, n_knapsacks, ref)
        got = knapsack_weights(elements, n_knapsacks, rng=gen)
        assert list(got.items()) == list(want.items())
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_bad_parameters(self):
        with pytest.raises(InvalidInstanceError):
            knapsack_weights({"a"}, 0)
        with pytest.raises(InvalidInstanceError):
            knapsack_weights({"a"}, 2, low=0.5, high=0.5)


class TestStreamUtilityParams:
    """``stream_utility`` refuses a param it does not read, for every family."""

    def test_a_misspelt_param_is_refused(self):
        with pytest.raises(InvalidInstanceError, match="skills_per_secretry"):
            stream_utility("coverage", 20, rng=0, skills_per_secretry=9)

    def test_the_removed_backend_param_is_refused(self):
        with pytest.raises(InvalidInstanceError, match="backend"):
            stream_utility("coverage", 20, rng=0, backend="sparse")

    @pytest.mark.parametrize("family", ["additive", "coverage", "facility", "cut"])
    def test_every_read_param_is_accepted_by_every_family(self, family):
        stream_utility(family, 12, rng=0, distribution="uniform",
                       skills_per_secretary=3, edge_probability=0.5)

    def test_a_sweep_cell_with_a_misspelt_param_fails(self):
        sweep = SweepSpec(task="secretary", families=("coverage",),
                          grid=((20, 2, 0),), methods=("monotone",), trials=1,
                          params=(("skills_per_secretry", 9),))
        with pytest.raises(InvalidInstanceError, match="skills_per_secretry"):
            run_one(sweep.expand()[0])
