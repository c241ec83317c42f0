"""Theorem 2.2.1 solver: feasibility, method agreement, ratio bound."""

import math

import pytest

from repro.errors import InfeasibleError
from repro.scheduling.exact import optimal_schedule_bruteforce
from repro.scheduling.instance import Job, ScheduleInstance
from repro.scheduling.intervals import AwakeInterval
from repro.scheduling.power import AffineCost, TableCost
from repro.scheduling.solver import schedule_all_jobs
from repro.workloads.jobs import small_certifiable_instance

METHODS = ["incremental", "plain", "lazy"]


def two_job_instance():
    jobs = [Job("a", {("p", 0), ("p", 3)}), Job("b", {("p", 1)})]
    return ScheduleInstance(["p"], jobs, 5, AffineCost(2.0))


class TestBasics:
    @pytest.mark.parametrize("method", METHODS)
    def test_schedules_all_jobs(self, method):
        inst = two_job_instance()
        result = schedule_all_jobs(inst, method=method)
        result.schedule.validate(inst, require_all=True)
        assert result.greedy.utility == 2.0

    @pytest.mark.parametrize("method", METHODS)
    def test_methods_agree_on_cost(self, method):
        inst = two_job_instance()
        baseline = schedule_all_jobs(inst, method="incremental").cost
        assert schedule_all_jobs(inst, method=method).cost == pytest.approx(baseline)

    def test_empty_instance(self):
        inst = ScheduleInstance(["p"], [], 4, AffineCost(1.0))
        result = schedule_all_jobs(inst)
        assert result.cost == 0.0
        assert result.schedule.intervals == []

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            schedule_all_jobs(two_job_instance(), method="zzz")

    def test_infeasible_raises(self):
        # Two jobs competing for the single same slot.
        jobs = [Job("a", {("p", 0)}), Job("b", {("p", 0)})]
        inst = ScheduleInstance(["p"], jobs, 2, AffineCost(1.0))
        with pytest.raises(InfeasibleError):
            schedule_all_jobs(inst)

    def test_feasibility_check_survives_a_long_augmenting_path(self):
        # Job 0 may run at 1000 or 2200, job k at 1000+k-1 or 1000+k, job
        # 1200 only at 2199: the feasibility check's Hopcroft–Karp has to
        # re-route all 1,201 jobs along one augmenting path, deeper than
        # the interpreter's recursion limit.
        jobs = [Job("j0000", {("p", 1000), ("p", 2200)})]
        jobs += [Job(f"j{k:04d}", {("p", 999 + k), ("p", 1000 + k)}) for k in range(1, 1200)]
        jobs.append(Job("j1200", {("p", 2199)}))
        inst = ScheduleInstance(
            ["p"], jobs, 2201, AffineCost(2.0),
            candidate_intervals=[AwakeInterval("p", 1000, 2200)],
        )
        result = schedule_all_jobs(inst)
        result.schedule.validate(inst, require_all=True)
        assert result.cost == 2.0 + 1201.0

    def test_no_candidates_raises(self):
        jobs = [Job("a", {("p", 0)})]
        inst = ScheduleInstance(
            ["p"], jobs, 2, TableCost({}),  # empty table: everything infinite
            candidate_intervals=[AwakeInterval("p", 0, 0)],
        )
        with pytest.raises(InfeasibleError):
            schedule_all_jobs(inst)


class TestSharingBehaviour:
    def test_one_interval_shared_by_clustered_jobs(self):
        # Three jobs in adjacent slots; restart cost makes one interval win.
        jobs = [Job(f"j{t}", {("p", t)}) for t in range(3)]
        inst = ScheduleInstance(["p"], jobs, 3, AffineCost(5.0))
        result = schedule_all_jobs(inst)
        assert len(result.schedule.awake_pattern()) == 1
        assert result.cost == 5.0 + 3.0

    def test_distant_jobs_split_when_cheap(self):
        # Restart alpha=1 but 10 idle slots between jobs: two intervals
        # (cost 2*(1+1)=4) beat one spanning interval (1+12=13).
        jobs = [Job("a", {("p", 0)}), Job("b", {("p", 11)})]
        inst = ScheduleInstance(["p"], jobs, 12, AffineCost(1.0))
        result = schedule_all_jobs(inst)
        assert result.cost == 4.0
        assert len(result.schedule.awake_pattern()) == 2

    def test_bridging_when_restart_expensive(self):
        # alpha=20: one interval (20+12=32) beats two restarts (2*21=42).
        jobs = [Job("a", {("p", 0)}), Job("b", {("p", 11)})]
        inst = ScheduleInstance(["p"], jobs, 12, AffineCost(20.0))
        result = schedule_all_jobs(inst)
        assert result.cost == 32.0
        assert len(result.schedule.awake_pattern()) == 1

    def test_multi_processor_distribution(self):
        jobs = [
            Job("a", {("p", 0)}),
            Job("b", {("p", 0), ("q", 0)}),
        ]
        inst = ScheduleInstance(["p", "q"], jobs, 1, AffineCost(1.0))
        result = schedule_all_jobs(inst)
        result.schedule.validate(inst, require_all=True)
        assert result.greedy.utility == 2.0


class TestApproximationGuarantee:
    @pytest.mark.parametrize("seed", range(10))
    def test_cost_within_proven_bound_of_certified_optimum(self, seed):
        inst = small_certifiable_instance(
            n_jobs=6, n_processors=2, horizon=14, n_candidate_intervals=12, rng=seed
        )
        exact = optimal_schedule_bruteforce(inst)
        result = schedule_all_jobs(inst)
        n = inst.n_jobs
        bound = 2.0 * math.log2(n + 1)
        assert result.cost <= bound * exact.cost + 1e-9
        assert result.approximation_bound() == pytest.approx(bound)

    @pytest.mark.parametrize("seed", range(5))
    def test_all_methods_within_bound(self, seed):
        inst = small_certifiable_instance(
            n_jobs=5, n_processors=2, horizon=12, n_candidate_intervals=10, rng=seed + 100
        )
        exact = optimal_schedule_bruteforce(inst)
        bound = 2.0 * math.log2(inst.n_jobs + 1)
        for method in METHODS:
            result = schedule_all_jobs(inst, method=method)
            assert result.cost <= bound * exact.cost + 1e-9
            result.schedule.validate(inst, require_all=True)


class TestDiagnostics:
    def test_oracle_work_reported(self):
        inst = two_job_instance()
        result = schedule_all_jobs(inst, method="plain")
        assert result.oracle_work > 0

    def test_greedy_trace_consistent(self):
        inst = two_job_instance()
        result = schedule_all_jobs(inst)
        assert [s.index for s in result.greedy.steps] == result.greedy.chosen
        assert result.greedy.steps[-1].cost_after == pytest.approx(result.cost)
