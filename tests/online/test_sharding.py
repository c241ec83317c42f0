"""The sharded online runtime: partition, merge, checkpoints, sessions.

The PR's pinned contract: ``ShardedRun`` at S=1 reproduces the
unsharded ``OnlineRun`` hires *and* oracle-call counts bit-identically,
and at S>1 the merged hires always satisfy the task's feasibility
constraint.  Plus: the hash partition is stable and structure-
preserving, manifests resume with any subset of shards mid-stream, and
the spawn-pool parallel path equals the inline one.
"""

import json

import numpy as np
import pytest

from repro.core.functions import AdditiveFunction, CutFunction
from repro.core.oracle import CountingOracle
from repro.errors import InvalidInstanceError
from repro.online.arrivals import arrival_process_names, build_arrival_schedule
from repro.online.sharding import (
    ShardedRun,
    ShardView,
    knapsack_constraint,
    make_sharded_checkpoint,
    merge_hires,
    resume_sharded_run,
    shard_of,
    shard_schedule,
)
from repro.online.session import (
    SESSION_POLICIES,
    resume_any_session,
    resume_sharded_session,
    start_session,
    start_sharded_session,
)
from repro.workloads.secretary_streams import coverage_utility

from tests.online.procutil import process_params

ALL_PROCESSES = arrival_process_names()
N, K, SEED = 18, 3, 20100612


def _session_process_params(process, family="additive", n=N, seed=SEED):
    if process != "replay":
        return {}
    from repro.online.session import build_workload

    fn, _ = build_workload({"family": family, "n": n, "seed": seed})
    return process_params(process, fn)


def _roundtrip(payload):
    return json.loads(json.dumps(payload, sort_keys=True, allow_nan=False))


class TestShardPartition:
    def test_assignment_is_stable_and_in_range(self):
        for element in ("s0", "s11", 7, "x"):
            idx = shard_of(element, 4)
            assert 0 <= idx < 4
            assert shard_of(element, 4) == idx  # pure function
        assert shard_of("s0", 4, salt=1) in range(4)

    def test_single_shard_is_the_identity(self):
        fn = coverage_utility(N, 6, rng=np.random.default_rng(1))
        schedule = build_arrival_schedule("bursty", fn, 3)
        (only,) = shard_schedule(schedule, 1)
        assert only is schedule

    @pytest.mark.parametrize("process", ["uniform", "bursty", "poisson"])
    @pytest.mark.parametrize("num_shards", [2, 3, 5])
    def test_partition_preserves_order_batches_timestamps(
        self, process, num_shards
    ):
        fn = coverage_utility(N, 6, rng=np.random.default_rng(1))
        schedule = build_arrival_schedule(process, fn, 3)
        shards = shard_schedule(schedule, num_shards)
        assert len(shards) == num_shards
        # Every element lands on exactly its hash shard, orders are
        # subsequences, and the union covers the stream.
        seen = []
        for s, shard in enumerate(shards):
            assert all(shard_of(e, num_shards) == s for e in shard.order)
            pos = [schedule.order.index(e) for e in shard.order]
            assert pos == sorted(pos)  # relative order preserved
            if schedule.timestamps is not None:
                assert shard.timestamps == [
                    schedule.timestamps[i] for i in pos
                ]
            seen.extend(shard.order)
        assert sorted(seen, key=repr) == sorted(schedule.order, key=repr)
        # Batch structure: a shard batch never straddles a global batch
        # boundary (revealed-together stays revealed-together).
        bounds = []
        pos = 0
        for size in schedule.batch_sizes:
            bounds.append((pos, pos + size))
            pos += size

        def global_batch(i):
            return next(j for j, (lo, hi) in enumerate(bounds) if lo <= i < hi)

        for shard in shards:
            cursor = 0
            for size in shard.batch_sizes:
                batch = shard.order[cursor:cursor + size]
                owners = {global_batch(schedule.order.index(e)) for e in batch}
                assert len(owners) == 1
                cursor += size

    def test_bad_shard_counts_rejected(self):
        fn = coverage_utility(8, 4, rng=np.random.default_rng(1))
        schedule = build_arrival_schedule("uniform", fn, 3)
        with pytest.raises(InvalidInstanceError, match="num_shards"):
            shard_schedule(schedule, 0)
        with pytest.raises(InvalidInstanceError, match="num_shards"):
            shard_of("s0", -1)

    def test_shard_view_restricts_ground_set_only(self):
        fn = coverage_utility(8, 4, rng=np.random.default_rng(1))
        elems = sorted(fn.ground_set, key=repr)[:3]
        view = ShardView(fn, elems)
        assert view.ground_set == frozenset(elems)
        subset = frozenset(elems[:2])
        assert view.value(subset) == fn.value(subset)
        with pytest.raises(InvalidInstanceError, match="outside"):
            ShardView(fn, ["nope"])


class TestMergeHires:
    def test_ranks_by_marginal_gain_with_limit(self):
        fn = AdditiveFunction({f"s{i}": float(i) for i in range(6)})
        merged = merge_hires(fn, [f"s{i}" for i in range(6)], limit=2)
        assert sorted(merged) == ["s4", "s5"]

    def test_can_take_respected(self):
        fn = AdditiveFunction({"a": 5.0, "b": 4.0, "c": 1.0})
        weights = {"a": 0.9, "b": 0.9, "c": 0.1}
        merged = merge_hires(
            fn, ["a", "b", "c"], can_take=knapsack_constraint(weights)
        )
        # "a" first (best gain), "b" no longer fits, "c" does.
        assert sorted(merged) == ["a", "c"]

    def test_stops_when_nothing_improves(self):
        # Cut utility: taking both endpoints of the only edge is worth 0.
        fn = CutFunction(["a", "b"], [("a", "b", 1.0)])
        merged = merge_hires(fn, ["a", "b"])
        assert len(merged) == 1  # second endpoint has negative gain

    def test_empty_candidates(self):
        fn = AdditiveFunction({"a": 1.0})
        assert merge_hires(fn, []) == []

    def test_deterministic_tie_break(self):
        fn = AdditiveFunction({"a": 1.0, "b": 1.0, "c": 1.0})
        assert merge_hires(fn, ["c", "b", "a"], limit=2) == ["a", "b"]


class TestBitIdentityAtOneShard:
    """The pinned S=1 contract: sharded == unsharded, bit for bit."""

    @pytest.mark.parametrize("process", ["uniform", "bursty", "poisson"])
    @pytest.mark.parametrize("policy", SESSION_POLICIES)
    def test_selected_and_oracle_calls_identical(self, policy, process):
        kwargs = dict(policy=policy, family="additive", n=N, k=K, seed=SEED,
                      process=process)
        plain = start_session(**kwargs).advance()
        sharded = start_sharded_session(shards=1, **kwargs).advance()
        a, b = plain.summary(), sharded.summary()
        assert b["selected"] == a["selected"]
        assert b["value"] == a["value"]
        assert b["oracle_calls"] == a["oracle_calls"]
        assert sharded.run.merge_calls == 0  # no merge stage at S=1


class TestMergedFeasibility:
    """S>1 merged hires always satisfy the task's constraint."""

    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("policy", SESSION_POLICIES)
    def test_cardinality_and_knapsack_feasible(self, policy, shards):
        session = start_sharded_session(
            policy=policy, family="additive", n=N, k=K, seed=SEED,
            process="bursty", shards=shards,
        ).advance()
        summary = session.summary()
        assert summary["finished"]
        if policy == "knapsack":
            from repro.online.session import build_workload

            _, weights = build_workload(session.recipe)
            load = sum(weights[e] for e in summary["selected"])
            assert load <= 1.0 + 1e-9
        elif policy == "classical":
            assert summary["n_chosen"] <= 1
        else:
            assert summary["n_chosen"] <= K

    def test_nonmonotone_merge_never_hurts_best_shard(self):
        session = start_sharded_session(
            policy="nonmonotone", family="cut", n=20, k=3, seed=2, shards=2,
        ).advance()
        merged_value = session.summary()["value"]
        best_shard = max(
            float(session.base.value(frozenset(r.selected)))
            for r in session.run.shard_results()
        )
        assert merged_value >= best_shard - 1e-9

    def test_empty_shards_are_fine(self):
        session = start_sharded_session(
            policy="monotone", family="additive", n=4, k=2, seed=1, shards=9,
        ).advance()
        summary = session.summary()
        assert summary["finished"]
        assert summary["n_chosen"] <= 2
        assert len(summary["cursors"]) == 9


class TestShardedCheckpointResume:
    @pytest.mark.parametrize("process", ALL_PROCESSES)
    @pytest.mark.parametrize("policy", ["monotone", "knapsack", "robust"])
    def test_suspend_everywhere_resume_exact(self, policy, process):
        kwargs = dict(policy=policy, family="additive", n=N, k=K, seed=SEED,
                      process=process, shards=2,
                      process_params=_session_process_params(process))
        want = start_sharded_session(**kwargs).advance().summary()["selected"]
        for cut in range(0, N + 1, 3):
            session = start_sharded_session(**kwargs).advance(cut)
            resumed = resume_any_session(_roundtrip(session.checkpoint()))
            got = resumed.advance().summary()["selected"]
            assert got == want, (policy, process, cut)

    def test_subset_of_shards_mid_stream(self):
        """One shard drained, one mid-stream, one untouched — resumable."""
        kwargs = dict(policy="monotone", family="coverage", n=24, k=3,
                      seed=7, process="bursty", shards=3)
        want = start_sharded_session(**kwargs).advance().summary()["selected"]
        session = start_sharded_session(**kwargs)
        session.advance_shard(0)  # drain shard 0
        session.advance_shard(1, 2)  # leave shard 1 mid-stream
        assert not session.finished
        ck = _roundtrip(session.checkpoint())
        resumed = resume_sharded_session(ck)
        assert resumed.run.cursors == session.run.cursors
        assert resumed.advance().summary()["selected"] == want

    def test_oracle_calls_accumulate_across_hops(self):
        kwargs = dict(policy="robust", family="additive", n=20, k=3, seed=4,
                      shards=2)
        oneshot = start_sharded_session(**kwargs).advance()
        want = oneshot.summary()["oracle_calls"]
        hop1 = start_sharded_session(**kwargs).advance(7)
        hop2 = resume_sharded_session(_roundtrip(hop1.checkpoint())).advance(6)
        hop3 = resume_sharded_session(_roundtrip(hop2.checkpoint())).advance()
        # The robust policy restores no evaluator state, so the counts
        # must match exactly (like the unsharded accumulation test).
        assert hop3.summary()["oracle_calls"] == want
        assert hop3.summary()["selected"] == oneshot.summary()["selected"]

    def test_manifest_layout(self):
        session = start_sharded_session(
            policy="monotone", family="additive", n=12, k=2, seed=3, shards=2,
        ).advance(5)
        ck = session.checkpoint()
        assert ck["format"] == "repro-online-sharded-checkpoint/1"
        assert ck["schema_version"] == 2
        assert ck["num_shards"] == 2
        assert len(ck["shards"]) == 2
        for shard_ck in ck["shards"]:
            assert shard_ck["format"] == "repro-online-checkpoint/1"
            assert shard_ck["schema_version"] == 2
            assert "schedule" not in shard_ck  # O(selected), not O(n)
            assert "source" in shard_ck
        assert ck["instance"]["shards"] == 2

    def test_manifest_shard_count_mismatch_rejected(self):
        session = start_sharded_session(n=12, k=2, seed=3, shards=2).advance(4)
        ck = _roundtrip(session.checkpoint())
        ck["shards"] = ck["shards"][:1]
        with pytest.raises(InvalidInstanceError, match="declares 2"):
            resume_sharded_session(ck)

    def test_lower_level_resume_with_explicit_utility(self):
        fn = coverage_utility(N, 6, rng=np.random.default_rng(1))
        schedule = build_arrival_schedule("bursty", fn, 5)
        from repro.online.policies import SegmentedSubmodularPolicy

        def factory(index, shard):
            return SegmentedSubmodularPolicy(2)

        def fresh():
            return ShardedRun.from_schedule(
                fn, schedule, 2, factory,
                oracle_factory=lambda i, v: CountingOracle(v), limit=2,
            )

        want = fresh().run().result().selected
        run = fresh().run(7)
        ck = _roundtrip(make_sharded_checkpoint(run))
        resumed = resume_sharded_run(
            ck, fn, oracle_factory=lambda i, v: CountingOracle(v)
        )
        assert resumed.run().result().selected == want


class TestSchemaVersioning:
    def test_unknown_checkpoint_version_rejected(self):
        session = start_session(n=10, k=2, seed=1).advance(3)
        ck = _roundtrip(session.checkpoint())
        ck["schema_version"] = 99
        with pytest.raises(InvalidInstanceError, match="schema version 99"):
            resume_any_session(ck)

    def test_missing_version_means_version_one(self):
        """Pre-versioning (v1-layout) checkpoints with no marker are refused.

        A version-less payload is read as schema v1 — embedded schedule,
        no source spec or decision log — which is no longer supported.
        """
        session = start_session(n=10, k=2, seed=1).advance(3)
        run = session.run
        v1 = {
            "format": "repro-online-checkpoint/1",
            "cursor": run.cursor,
            "schedule": run.source.materialize().payload(),
            "policy": {
                "name": run.policy.name,
                "config": run.policy.config_dict(),
                "state": run.policy.state_dict(),
            },
            "instance": {
                k: v for k, v in session.recipe.items()
                if k != "recipe_version"
            },
        }
        with pytest.raises(InvalidInstanceError,
                           match="schema version 1 .* no longer supported"):
            resume_any_session(_roundtrip(v1))

    def test_unknown_recipe_version_rejected(self):
        session = start_session(n=10, k=2, seed=1).advance(3)
        ck = _roundtrip(session.checkpoint())
        ck["instance"]["recipe_version"] = 7
        with pytest.raises(InvalidInstanceError, match="recipe schema version 7"):
            resume_any_session(ck)

    def test_unknown_sharded_version_rejected(self):
        session = start_sharded_session(n=12, k=2, seed=1, shards=2).advance(4)
        ck = _roundtrip(session.checkpoint())
        ck["schema_version"] = 99
        with pytest.raises(InvalidInstanceError, match="schema version 99"):
            resume_any_session(ck)


class TestShardByShard:
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
    def test_finishing_shards_one_by_one_equals_inline(self, order):
        kwargs = dict(policy="monotone", family="coverage", n=24, k=3,
                      seed=5, process="bursty", shards=3)
        inline = start_sharded_session(**kwargs).advance()
        stepwise = start_sharded_session(**kwargs).advance(6)
        for index in order:
            stepwise.advance_shard(index)
        assert stepwise.finished
        # Shards are independent lanes: any finishing order hires the
        # inline set and bills exactly the inline oracle calls.
        assert stepwise.summary() == inline.summary()

    def test_advance_shard_on_finished_session_is_noop(self):
        session = start_sharded_session(n=12, k=2, seed=1, shards=2).advance()
        before = session.summary()
        for index in range(2):
            session.advance_shard(index)
        assert session.finished
        assert session.summary() == before


class TestShardedAdapters:
    def test_split_family_parses_all_forms(self):
        from repro.engine.tasks.secretary import split_family

        assert split_family("coverage") == ("coverage", "uniform", 1, None)
        assert split_family("coverage@bursty") == (
            "coverage", "bursty", 1, None
        )
        assert split_family("coverage@bursty#4") == (
            "coverage", "bursty", 4, None
        )
        assert split_family("additive#3") == ("additive", "uniform", 3, None)
        assert split_family("additive#2>4") == ("additive", "uniform", 2, 4)
        assert split_family("coverage@bursty#4>2") == (
            "coverage", "bursty", 4, 2
        )
        with pytest.raises(InvalidInstanceError, match="shard qualifier"):
            split_family("coverage@bursty#0")
        with pytest.raises(InvalidInstanceError, match="shard qualifier"):
            split_family("coverage#x")
        with pytest.raises(InvalidInstanceError, match="reshard qualifier"):
            split_family("coverage#2>0")
        with pytest.raises(InvalidInstanceError, match="reshard qualifier"):
            split_family("coverage#2>x")

    def test_secretary_sharded_cell_runs_and_is_feasible(self):
        from repro.engine import SweepSpec, run_sweep

        result = run_sweep(SweepSpec(
            task="secretary", families=("coverage@bursty#2",),
            grid=((24, 3, 0),), methods=("monotone", "nonmonotone"), trials=2,
        ))
        for record in result.records:
            assert record.n_chosen <= 3
            assert record.utility >= 0.0

    def test_knapsack_sharded_cell_runs(self):
        from repro.engine import SweepSpec, run_sweep

        # The adapter itself raises InfeasibleError on a capacity
        # violation, so a clean sweep is the feasibility assertion.
        result = run_sweep(SweepSpec(
            task="knapsack_secretary", families=("additive@bursty#2",),
            grid=((24, 2, 0),), methods=("online",), trials=2,
        ))
        assert all(r.oracle_work > 0 for r in result.records)

    def test_sharded_family_has_distinct_fingerprint(self):
        from repro.engine.spec import RunSpec
        from repro.engine.tasks import get_task

        adapter = get_task("secretary")
        plain = RunSpec(task="secretary", family="coverage@bursty",
                        n_jobs=20, n_processors=3, horizon=0,
                        method="monotone", trial=0, seed=11)
        sharded = RunSpec(task="secretary", family="coverage@bursty#2",
                          n_jobs=20, n_processors=3, horizon=0,
                          method="monotone", trial=0, seed=11)
        fp_plain = adapter.fingerprint(adapter.build(plain))
        fp_sharded = adapter.fingerprint(adapter.build(sharded))
        assert fp_plain != fp_sharded

    def test_sweep_validation_rejects_bad_qualifiers(self):
        from repro.engine import SweepSpec, run_sweep

        with pytest.raises(InvalidInstanceError, match="unknown secretary"):
            run_sweep(SweepSpec(
                task="secretary", families=("coverage@warp#2",),
                grid=((10, 2, 0),), methods=("monotone",), trials=1,
            ))
