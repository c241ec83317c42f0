"""Energy-cost models."""

import math

import numpy as np
import pytest

from repro.errors import InvalidInstanceError
from repro.scheduling.intervals import AwakeInterval
from repro.scheduling.power import (
    AffineCost,
    PerProcessorRateCost,
    SuperlinearCost,
    TableCost,
    TimeOfUseCost,
    UnavailabilityCost,
)


IV = AwakeInterval("p", 2, 5)  # length 4


class TestAffine:
    def test_formula(self):
        assert AffineCost(3.0)(IV) == 3.0 + 4.0
        assert AffineCost(3.0, rate=2.0)(IV) == 3.0 + 8.0

    def test_zero_restart(self):
        assert AffineCost(0.0)(AwakeInterval("p", 0, 0)) == 1.0

    def test_negative_params_rejected(self):
        with pytest.raises(InvalidInstanceError):
            AffineCost(-1.0)
        with pytest.raises(InvalidInstanceError):
            AffineCost(1.0, rate=-1.0)


class TestPerProcessorRate:
    def test_different_processors_differ(self):
        model = PerProcessorRateCost(
            rates={"p": 1.0, "q": 3.0}, restart_costs={"p": 2.0, "q": 0.5}
        )
        assert model(AwakeInterval("p", 0, 1)) == 2.0 + 2.0
        assert model(AwakeInterval("q", 0, 1)) == 0.5 + 6.0

    def test_unknown_processor_rejected(self):
        model = PerProcessorRateCost(rates={"p": 1.0}, restart_costs={"p": 0.0})
        with pytest.raises(InvalidInstanceError):
            model(AwakeInterval("zz", 0, 1))

    def test_negative_rejected(self):
        with pytest.raises(InvalidInstanceError):
            PerProcessorRateCost(rates={"p": -1.0}, restart_costs={"p": 0.0})


class TestTimeOfUse:
    def test_price_mass(self):
        model = TimeOfUseCost(prices=[1, 2, 3, 4, 5, 6], restart_cost=10.0)
        assert model(IV) == 10.0 + (3 + 4 + 5 + 6)

    def test_per_processor_prices(self):
        model = TimeOfUseCost(
            prices=[1, 1, 1],
            per_processor_prices={"q": [5, 5, 5]},
        )
        assert model(AwakeInterval("p", 0, 2)) == 3.0
        assert model(AwakeInterval("q", 0, 2)) == 15.0

    def test_interval_past_horizon_rejected(self):
        model = TimeOfUseCost(prices=[1, 1])
        with pytest.raises(InvalidInstanceError):
            model(AwakeInterval("p", 0, 5))

    def test_negative_prices_rejected(self):
        with pytest.raises(InvalidInstanceError):
            TimeOfUseCost(prices=[1, -1])

    def test_cumsum_matches_direct_sum(self):
        prices = np.arange(20, dtype=float)
        model = TimeOfUseCost(prices=prices)
        for s, e in [(0, 0), (3, 9), (0, 19), (18, 19)]:
            assert model(AwakeInterval("p", s, e)) == pytest.approx(prices[s : e + 1].sum())

    def test_an_infinite_price_blocks_only_the_intervals_covering_it(self):
        # A running sum through the infinite slot would price every
        # later interval inf - inf = NaN.
        model = TimeOfUseCost(prices=[1, math.inf, 2, 3], restart_cost=0.5,
                              per_processor_prices={"q": [math.inf, 4]})
        assert model(AwakeInterval("p", 0, 0)) == 1.5
        assert model(AwakeInterval("p", 0, 2)) == math.inf
        assert model(AwakeInterval("p", 1, 1)) == math.inf
        assert model(AwakeInterval("p", 2, 3)) == 5.5
        assert model(AwakeInterval("q", 1, 1)) == 4.5


class TestSuperlinear:
    def test_formula(self):
        model = SuperlinearCost(restart_cost=1.0, exponent=2.0)
        assert model(IV) == 1.0 + 16.0

    def test_splitting_becomes_attractive(self):
        # With exponent 2, two length-2 intervals (2*(a+4)) are cheaper
        # than one length-4 interval (a+16) once a < 8.
        model = SuperlinearCost(restart_cost=1.0, exponent=2.0)
        one = model(AwakeInterval("p", 0, 3))
        two = model(AwakeInterval("p", 0, 1)) + model(AwakeInterval("p", 2, 3))
        assert two < one

    def test_sublinear_rewards_merging(self):
        model = SuperlinearCost(restart_cost=1.0, exponent=0.5)
        one = model(AwakeInterval("p", 0, 3))
        two = model(AwakeInterval("p", 0, 1)) + model(AwakeInterval("p", 2, 3))
        assert one < two

    @pytest.mark.parametrize("scale", [0.0, 1.0])
    def test_an_infinite_exponent_is_refused(self, scale):
        # With scale 0 it used to price one slot at 1.0 and any longer
        # interval at 0 * inf = NaN.
        with pytest.raises(InvalidInstanceError, match="finite"):
            SuperlinearCost(1.0, math.inf, scale=scale)

    def test_a_power_beyond_a_float_prices_at_infinity(self):
        # 3 ** 800 raised OverflowError out of every solver.
        model = SuperlinearCost(restart_cost=1.0, exponent=800.0)
        assert model(AwakeInterval("p", 0, 0)) == 2.0
        assert model(AwakeInterval("p", 0, 2)) == math.inf

    def test_a_zero_scale_keeps_an_overflowing_power_out_of_the_price(self):
        model = SuperlinearCost(restart_cost=1.0, exponent=800.0, scale=0.0)
        assert model(AwakeInterval("p", 0, 2)) == 1.0


class TestUnavailability:
    def test_blocked_interval_is_infinite(self):
        model = UnavailabilityCost(AffineCost(1.0), blocked=[("p", 3)])
        assert math.isinf(model(IV))

    def test_unblocked_passthrough(self):
        model = UnavailabilityCost(AffineCost(1.0), blocked=[("p", 9)])
        assert model(IV) == 5.0

    def test_other_processor_unaffected(self):
        model = UnavailabilityCost(AffineCost(1.0), blocked=[("q", 3)])
        assert model(IV) == 5.0


class TestTableCost:
    def test_listed_interval(self):
        model = TableCost({IV: 7.0})
        assert model(IV) == 7.0

    def test_unlisted_defaults_to_infinity(self):
        model = TableCost({IV: 7.0})
        assert math.isinf(model(AwakeInterval("p", 0, 0)))

    def test_custom_default(self):
        model = TableCost({}, default=2.5)
        assert model(IV) == 2.5

    def test_negative_cost_rejected(self):
        with pytest.raises(InvalidInstanceError):
            TableCost({IV: -1.0})


class TestCostModelContract:
    def test_negative_cost_model_caught_at_call(self):
        class Bad(AffineCost):
            def cost(self, interval):
                return -1.0

        with pytest.raises(InvalidInstanceError):
            Bad(0.0)(IV)

    def test_nan_cost_model_caught_at_call(self):
        class Bad(AffineCost):
            def cost(self, interval):
                return math.nan

        with pytest.raises(InvalidInstanceError, match="nan"):
            Bad(0.0)(IV)

    @pytest.mark.parametrize("build", [
        lambda: AffineCost(math.nan),
        lambda: AffineCost(1.0, rate=math.nan),
        lambda: PerProcessorRateCost({"p": math.nan}, {"p": 1.0}),
        lambda: PerProcessorRateCost({"p": 1.0}, {"p": math.nan}),
        lambda: TimeOfUseCost([1.0, math.nan]),
        lambda: TimeOfUseCost([1.0], restart_cost=math.nan),
        lambda: TimeOfUseCost([1.0], per_processor_prices={"p": [math.nan]}),
        lambda: SuperlinearCost(math.nan, 2.0),
        lambda: SuperlinearCost(1.0, math.nan),
        lambda: SuperlinearCost(1.0, 2.0, scale=math.nan),
        lambda: TableCost({IV: math.nan}),
        lambda: TableCost({}, default=math.nan),
    ], ids=[
        "affine-restart", "affine-rate", "per-proc-rate", "per-proc-restart",
        "tou-price", "tou-restart", "tou-per-proc", "superlinear-restart",
        "superlinear-exponent", "superlinear-scale", "table-price", "table-default",
    ])
    def test_nan_parameters_and_prices_rejected(self, build):
        with pytest.raises(InvalidInstanceError):
            build()
