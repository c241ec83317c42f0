"""Failure injection: misbehaving oracles, poisoned costs, corrupted state.

Production code meets broken inputs; these tests pin down *how* the
library fails — loudly, early, and with the library's own exception
types — instead of silently producing wrong schedules.
"""

import math

import pytest

from repro.core.budgeted import BudgetedInstance, budgeted_greedy
from repro.core.functions import CoverageFunction
from repro.core.lazy import lazy_budgeted_greedy
from repro.core.submodular import LambdaSetFunction
from repro.errors import InfeasibleError, InvalidInstanceError, OracleError
from repro.online.driver import ArrivalOracle
from repro.scheduling.instance import Job, ScheduleInstance
from repro.scheduling.intervals import AwakeInterval
from repro.scheduling.power import AffineCost, CostModel, TableCost
from repro.scheduling.solver import schedule_all_jobs
from repro.secretary.stream import SecretaryStream
from repro.secretary.submodular_secretary import monotone_submodular_secretary


class ExplodingOracle(LambdaSetFunction):
    """Oracle that works for a while, then raises (flaky backend)."""

    def __init__(self, ground, fn, explode_after):
        super().__init__(ground, fn)
        self.remaining = explode_after

    def value(self, subset):
        self.remaining -= 1
        if self.remaining < 0:
            raise RuntimeError("backend oracle disappeared")
        return super().value(subset)


class TestOracleFailures:
    def test_exploding_oracle_propagates(self):
        covers = {f"s{i}": {i} for i in range(6)}
        base = CoverageFunction(covers)
        oracle = ExplodingOracle(base.ground_set, base.value, explode_after=3)
        inst = BudgetedInstance(
            oracle, {k: frozenset({k}) for k in covers}, {k: 1.0 for k in covers}
        )
        with pytest.raises(RuntimeError, match="backend oracle disappeared"):
            budgeted_greedy(inst, target=6.0, epsilon=0.1)

    def test_exploding_oracle_propagates_through_lazy(self):
        covers = {f"s{i}": {i} for i in range(6)}
        base = CoverageFunction(covers)
        oracle = ExplodingOracle(base.ground_set, base.value, explode_after=3)
        inst = BudgetedInstance(
            oracle, {k: frozenset({k}) for k in covers}, {k: 1.0 for k in covers}
        )
        with pytest.raises(RuntimeError):
            lazy_budgeted_greedy(inst, target=6.0, epsilon=0.1)

    def test_negative_empty_utility_rejected(self):
        fn = LambdaSetFunction({1}, lambda s: -1.0 if not s else 1.0)
        inst = BudgetedInstance(fn, {1: frozenset({1})}, {1: 1.0})
        with pytest.raises(InvalidInstanceError):
            budgeted_greedy(inst, target=1.0, epsilon=0.5)

    def test_peeking_algorithm_caught_by_stream(self):
        # An "algorithm" that queries the whole ground set up front is
        # rejected by the ArrivalOracle before it can cheat.
        fn = CoverageFunction({f"s{i}": {i} for i in range(5)})
        with pytest.raises(OracleError):
            ArrivalOracle(fn).value(fn.ground_set)


class TestPoisonedCosts:
    def test_negative_cost_model_rejected_at_solve(self):
        class Negative(CostModel):
            def cost(self, interval):
                return -5.0

        jobs = [Job("a", {("p", 0)})]
        inst = ScheduleInstance(["p"], jobs, 2, Negative())
        with pytest.raises(InvalidInstanceError):
            schedule_all_jobs(inst)

    def test_nan_costs_do_not_produce_a_schedule_silently(self):
        class NaN(CostModel):
            def cost(self, interval):
                return math.nan

        jobs = [Job("a", {("p", 0)})]
        inst = ScheduleInstance(["p"], jobs, 2, NaN())
        # NaN ratios never compare greater, so the greedy finds no
        # usable interval and reports infeasibility rather than a bogus
        # schedule.
        with pytest.raises(InfeasibleError):
            schedule_all_jobs(inst)

    def test_all_infinite_costs_infeasible(self):
        jobs = [Job("a", {("p", 0)})]
        inst = ScheduleInstance(
            ["p"], jobs, 2, TableCost({}),
            candidate_intervals=[AwakeInterval("p", 0, 0)],
        )
        with pytest.raises(InfeasibleError):
            schedule_all_jobs(inst)


class TestCorruptedArtifacts:
    def test_tampered_schedule_rejected(self):
        jobs = [Job("a", {("p", 0)}), Job("b", {("p", 1)})]
        inst = ScheduleInstance(["p"], jobs, 3, AffineCost(1.0))
        result = schedule_all_jobs(inst)
        # Corrupt the assignment post-hoc.
        result.schedule.assignment["a"] = ("p", 2)
        with pytest.raises(InvalidInstanceError):
            result.schedule.validate(inst)

    def test_dropped_interval_rejected(self):
        jobs = [Job("a", {("p", 0)})]
        inst = ScheduleInstance(["p"], jobs, 2, AffineCost(1.0))
        result = schedule_all_jobs(inst)
        result.schedule.intervals.clear()
        with pytest.raises(InvalidInstanceError):
            result.schedule.validate(inst)


class TestSecretaryEdgeCases:
    def test_singleton_stream(self):
        fn = CoverageFunction({"only": {1}})
        stream = SecretaryStream(fn, rng=0)
        result = monotone_submodular_secretary(stream, 1)
        # With no observation window (length 1), the single element is
        # hired — the clamped threshold equals the current value.
        assert result.selected == frozenset({"only"})

    def test_k_exceeding_n(self):
        fn = CoverageFunction({f"s{i}": {i} for i in range(3)})
        stream = SecretaryStream(fn, rng=1)
        result = monotone_submodular_secretary(stream, 10)
        assert result.hires <= 3
