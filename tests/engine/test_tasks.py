"""Task adapters: registry, dispatch, determinism, and parity."""

import numpy as np
import pytest

from repro.engine import (
    SweepSpec,
    RunSpec,
    TASKS,
    build_instance,
    get_task,
    run_one,
    run_sweep,
    task_names,
)
from repro.errors import InvalidInstanceError
from repro.scheduling.prize_collecting import prize_collecting_schedule
from repro.secretary.stream import SecretaryStream
from repro.secretary.submodular_secretary import monotone_submodular_secretary

MASTER = 20100612


def spec_for(task, family, method, n=20, p=2, h=16, params=()):
    sweep = SweepSpec(
        task=task, families=(family,), grid=((n, p, h),), methods=(method,),
        trials=1, master_seed=MASTER, params=params,
    )
    return sweep.expand()[0]


class TestRegistry:
    def test_all_four_tasks_registered(self):
        assert {"schedule_all", "prize_collecting", "secretary",
                "knapsack_secretary"} <= set(TASKS)
        assert task_names() == tuple(sorted(TASKS))

    def test_unknown_task_rejected(self):
        with pytest.raises(InvalidInstanceError):
            get_task("nope")
        with pytest.raises(InvalidInstanceError):
            SweepSpec(task="nope", families=("multi",), grid=((4, 2, 8),))

    def test_every_adapter_validates_families_and_methods(self):
        for name, adapter in TASKS.items():
            family = adapter.families()[0]
            with pytest.raises(InvalidInstanceError):
                SweepSpec(task=name, families=("no-such-family",),
                          grid=((8, 2, 12),), methods=(adapter.methods[0],))
            with pytest.raises(InvalidInstanceError):
                SweepSpec(task=name, families=(family,),
                          grid=((8, 2, 12),), methods=("no-such-method",))


class TestEveryTaskRuns:
    """Each registered task produces a complete record via run_one."""

    CELLS = [
        ("schedule_all", "multi", "incremental", (10, 2, 16), ()),
        ("prize_collecting", "certifiable", "lazy", (6, 2, 12),
         (("n_candidate_intervals", 10),)),
        ("prize_collecting", "certifiable", "exact", (6, 2, 12),
         (("n_candidate_intervals", 10),)),
        ("secretary", "additive", "monotone", (30, 3, 0), ()),
        ("secretary", "additive", "classical", (30, 3, 0), ()),
        ("secretary", "additive", "robust", (30, 3, 0), ()),
        ("secretary", "coverage", "monotone", (24, 3, 0), ()),
        ("secretary", "cut", "nonmonotone", (20, 3, 0), ()),
        ("secretary", "facility", "monotone", (20, 3, 0), ()),
        ("knapsack_secretary", "additive", "online", (20, 2, 0), ()),
    ]

    @pytest.mark.parametrize("task,family,method,grid,params", CELLS)
    def test_record_is_complete(self, task, family, method, grid, params):
        spec = spec_for(task, family, method, *grid, params=params)
        record = run_one(spec)
        assert record.task == task
        assert record.fingerprint and len(record.fingerprint) == 64
        assert record.cost >= 0.0
        assert record.utility >= 0.0
        assert record.oracle_work >= 0
        assert record.n_chosen >= 0
        assert record.wall_time >= 0.0

    @pytest.mark.parametrize("task,family,method,grid,params", CELLS)
    def test_solve_is_deterministic(self, task, family, method, grid, params):
        spec = spec_for(task, family, method, *grid, params=params)
        a, b = run_one(spec), run_one(spec)
        assert (a.fingerprint, a.cost, a.utility, a.oracle_work, a.n_chosen) == (
            b.fingerprint, b.cost, b.utility, b.oracle_work, b.n_chosen
        )


class TestReshardHopForMapCarryingMethods:
    """``#S>S'`` hops for the methods whose policy reads an element map.

    Manifests never carry the robust rule's singleton values or the
    knapsack rule's reduced weights, so the engine's mid-stream reshard
    must re-inject them on resume.  Records are pinned exactly.
    """

    CELLS = [
        ("secretary", "additive#2>4", "robust", (30, 3, 0),
         (2.4511288723904556, 2.779495263136268, 19, 3)),
        ("secretary", "coverage@bursty#4>2", "robust", (40, 3, 0),
         (8.0, 10.0, 13, 3)),
        ("knapsack_secretary", "additive#2>4", "online", (40, 2, 0),
         (2.646025210912737, 3.755586730478579, 86, 4)),
        ("knapsack_secretary", "additive@bursty#4>2", "online", (40, 2, 0),
         (2.047819751404436, 3.3399809371661826, 31, 3)),
    ]

    @pytest.mark.parametrize("task,family,method,grid,want", CELLS)
    def test_record_pinned(self, task, family, method, grid, want):
        record = run_one(spec_for(task, family, method, *grid))
        got = (record.utility, record.cost, record.oracle_work, record.n_chosen)
        assert got == want


class TestReshardHopForMapFreeMethods:
    """``#S>S'`` hops for the methods whose policy reads no element map.

    Their hop resumes with no deps at all: a map handed to a rule that
    does not read it reaches its constructor and fails the resume.
    Records are pinned exactly.
    """

    CELLS = [
        ("coverage#2>4", "monotone", (40, 4, 0), (12.0, 13.0, 84, 4)),
        ("cut#4>2", "nonmonotone", (40, 4, 0),
         (28.433988325664128, 32.67284692648706, 39, 4)),
        ("additive#2>4", "classical", (30, 3, 0),
         (0.6036453449804696, 0.9385009151941373, 29, 1)),
    ]

    @pytest.mark.parametrize("family,method,grid,want", CELLS)
    def test_record_pinned(self, family, method, grid, want):
        record = run_one(spec_for("secretary", family, method, *grid))
        got = (record.utility, record.cost, record.oracle_work, record.n_chosen)
        assert got == want


def _record(task, family, method, grid, seed):
    spec = RunSpec(family=family, n_jobs=grid[0], n_processors=grid[1],
                   horizon=grid[2], method=method, trial=0, seed=seed,
                   task=task)
    record = run_one(spec)
    return (record.utility, record.cost, record.oracle_work, record.n_chosen)


class TestOneShardIsTheUnshardedCell:
    """``base#1`` and the identity hop ``base#1>1`` record what ``base`` does.

    One lane flips the unsharded cell's coin, before a hop and after it,
    so S = 1 is the plain run for every method.  Uniform arrivals only:
    a hop at ``n // 2`` can cut inside a bursty minibatch, where a
    resume bills fewer calls than the straight run.
    """

    CELLS = [
        ("secretary", family, method, (40, 4, 0))
        for family in ("additive", "coverage", "facility", "cut")
        for method in ("monotone", "nonmonotone", "classical", "robust")
    ] + [("knapsack_secretary", "additive", "online", (40, 2, 0))]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("task,family,method,grid", CELLS)
    def test_one_shard_and_identity_hop_match(self, task, family, method,
                                              grid, seed):
        want = _record(task, family, method, grid, seed)
        assert _record(task, family + "#1", method, grid, seed) == want
        assert _record(task, family + "#1>1", method, grid, seed) == want


class TestAdapterParity:
    """Engine records must match direct solver calls on the same instance."""

    def test_prize_collecting_matches_direct(self):
        spec = spec_for(
            "prize_collecting", "certifiable", "lazy", 6, 2, 12,
            params=(("n_candidate_intervals", 10), ("epsilon", 0.25),
                    ("target_fraction", 0.6)),
        )
        record = run_one(spec)
        inst = build_instance(spec)
        direct = prize_collecting_schedule(inst, 0.6 * inst.total_value(), 0.25)
        assert record.cost == pytest.approx(direct.cost)
        assert record.utility == pytest.approx(direct.value)
        assert record.n_chosen == len(direct.greedy.chosen)

    def test_secretary_matches_direct(self):
        spec = spec_for("secretary", "additive", "monotone", 40, 4, 0)
        record = run_one(spec)
        instance = get_task("secretary").build(spec)
        stream = SecretaryStream(
            instance.fn, rng=np.random.default_rng(instance.stream_seed)
        )
        direct = monotone_submodular_secretary(stream, 4)
        assert record.utility == pytest.approx(
            instance.fn.value(frozenset(direct.selected))
        )
        assert record.n_chosen == len(direct.selected)

    def test_secretary_ratio_is_sane(self):
        # utility/cost is the competitive ratio; it can never exceed 1
        # for additive streams (cost is the exact offline optimum).
        sweep = SweepSpec(
            task="secretary", families=("additive",), grid=((40, 4, 0),),
            methods=("monotone", "classical", "robust"), trials=3,
            master_seed=MASTER,
        )
        for record in run_sweep(sweep).records:
            assert record.cost > 0
            assert record.utility <= record.cost + 1e-9

    def test_knapsack_methods_share_instance(self):
        # Same cell => same fingerprint regardless of how often we build.
        spec = spec_for("knapsack_secretary", "additive", "online", 20, 3, 0)
        adapter = get_task("knapsack_secretary")
        fp1 = adapter.fingerprint(adapter.build(spec))
        fp2 = adapter.fingerprint(adapter.build(spec))
        assert fp1 == fp2


class TestCrossTaskIsolation:
    def test_same_coordinates_different_tasks_do_not_collide_in_cache(self):
        from repro.engine import ResultCache

        cache = ResultCache()
        # additive secretary and knapsack share the family name
        # "additive"; records must still cache under distinct keys.
        s1 = spec_for("secretary", "additive", "monotone", 20, 2, 0)
        s2 = spec_for("knapsack_secretary", "additive", "online", 20, 2, 0)
        r1, r2 = run_one(s1, cache), run_one(s2, cache)
        assert len(cache) == 2
        again1, again2 = run_one(s1, cache), run_one(s2, cache)
        assert again1.cache_hit and again2.cache_hit
        assert again1.cost == r1.cost and again2.cost == r2.cost

    def test_build_instance_dispatches_on_task(self):
        sched = build_instance(spec_for("schedule_all", "multi", "incremental"))
        secr = build_instance(spec_for("secretary", "additive", "monotone", 20, 2, 0))
        assert hasattr(sched, "jobs")
        assert hasattr(secr, "fn")

    def test_run_spec_default_task_is_schedule_all(self):
        spec = RunSpec(family="multi", n_jobs=5, n_processors=2, horizon=10,
                       method="incremental", trial=0, seed=1)
        assert spec.task == "schedule_all"
        assert build_instance(spec).n_jobs == 5
