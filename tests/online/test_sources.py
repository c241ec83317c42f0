"""Arrival sources: streaming ≡ materialized, pinned end to end.

The tentpole equivalence suite: for every registered arrival process,
the lazily-yielding :class:`ArrivalSource` view must be indistinguishable
from the eager :class:`ArrivalSchedule` path — same orders, same
incremental content fingerprint (including across mid-stream suspend
points round-tripped through JSON), same hires and oracle-call counts
for every session policy at S ∈ {1, 2} — and its suspend state must
stay O(selected), not O(stream).
"""

import json

import numpy as np
import pytest

from repro.core.functions import AdditiveFunction
from repro.core.oracle import CountingOracle
from repro.engine.hashing import derive_seed
from repro.errors import InvalidInstanceError
from repro.online.arrivals import (
    ArrivalSource,
    ScheduleSource,
    arrival_process_names,
    build_arrival_schedule,
    build_arrival_source,
    source_from_spec,
)
from repro.online.checkpoint import make_checkpoint
from repro.online.driver import OnlineRun
from repro.online.policies import SegmentedSubmodularPolicy, build_policy
from repro.online.session import (
    SESSION_POLICIES,
    _merge_rule,
    _policy_deps,
    build_workload,
    start_session,
    start_sharded_session,
)
from repro.online.sharding import (
    ShardCounters,
    ShardSource,
    ShardedRun,
    lane_algo_seed,
    shard_schedule,
)
from repro.workloads.secretary_streams import coverage_utility

from tests.online.procutil import process_params

ALL_PROCESSES = arrival_process_names()
N, K, SEED = 18, 3, 20100612


@pytest.fixture(scope="module")
def fn():
    return coverage_utility(30, 12, rng=np.random.default_rng(3))


class TestSourceContract:
    @pytest.mark.parametrize("process", ALL_PROCESSES)
    def test_take_walks_the_materialized_schedule(self, fn, process):
        params = process_params(process, fn)
        source = build_arrival_source(process, fn, 13, **params)
        schedule = build_arrival_schedule(process, fn, 13, **params)
        walked, sizes = [], []
        while True:
            step = source.take(None)
            if step is None:
                break
            pos0, batch, stamps = step
            assert pos0 == len(walked)
            walked.extend(batch)
            sizes.append(len(batch))
            if schedule.timestamps is None:
                assert stamps is None
        assert walked == schedule.order
        assert sizes == schedule.batch_sizes
        assert source.exhausted
        assert source.materialize().order == schedule.order

    @pytest.mark.parametrize("process", ALL_PROCESSES)
    def test_limited_take_never_crosses_a_batch(self, fn, process):
        params = process_params(process, fn)
        source = build_arrival_source(process, fn, 13, **params)
        schedule = build_arrival_schedule(process, fn, 13, **params)
        bounds, pos = set(), 0
        for size in schedule.batch_sizes:
            pos += size
            bounds.add(pos)
        while True:
            step = source.take(2)
            if step is None:
                break
            pos0, batch, _ = step
            end = pos0 + len(batch)
            # A slice ends at a batch boundary or because the limit bit.
            assert end in bounds or len(batch) == 2
        assert source.cursor == schedule.n

    def test_unknown_source_spec_rejected(self, fn):
        with pytest.raises(InvalidInstanceError, match="source spec"):
            source_from_spec({"no": "process"}, fn)

    def test_schedule_source_wraps_any_schedule(self, fn):
        schedule = build_arrival_schedule("poisson", fn, 3, rate=4.0)
        source = ScheduleSource(schedule)
        _, _, stamps = source.take(None)
        assert stamps == schedule.timestamps[: len(stamps)]


class TestFingerprintEquivalence:
    """Satellite: incremental fingerprint == materialized fingerprint."""

    @pytest.mark.parametrize("process", ALL_PROCESSES)
    def test_drained_source_equals_schedule_fingerprint(self, fn, process):
        params = process_params(process, fn)
        source = build_arrival_source(process, fn, 13, **params)
        schedule = build_arrival_schedule(process, fn, 13, **params)
        while source.take(None) is not None:
            pass
        assert source.fingerprint() == schedule.fingerprint()

    @pytest.mark.parametrize("process", ALL_PROCESSES)
    def test_fingerprint_survives_every_suspend_point(self, fn, process):
        """Suspend at every cursor, JSON-hop the state, rebuild from the
        spec, drain — the chain digest must equal the eager schedule's
        fingerprint no matter where the stream was cut."""
        params = process_params(process, fn)
        schedule = build_arrival_schedule(process, fn, 13, **params)
        want = schedule.fingerprint()
        for cut in range(schedule.n + 1):
            source = build_arrival_source(process, fn, 13, **params)
            consumed = 0
            while consumed < cut:
                step = source.take(cut - consumed)
                assert step is not None
                consumed += len(step[1])
            assert source.cursor == cut
            hop = json.loads(json.dumps(
                {**source.spec(), "state": source.state_dict()},
                sort_keys=True, allow_nan=False,
            ))
            resumed = source_from_spec(hop, fn)
            resumed.restore(hop["state"])
            assert resumed.cursor == cut
            while resumed.take(None) is not None:
                pass
            assert resumed.fingerprint() == want, (process, cut)

    @pytest.mark.parametrize("process", ALL_PROCESSES)
    @pytest.mark.parametrize("index", [0, 1])
    def test_shard_source_fingerprint_matches_shard_schedule(
        self, fn, process, index
    ):
        params = process_params(process, fn)
        parent = build_arrival_source(process, fn, 13, **params)
        shard_src = ShardSource(parent, index, 2)
        sharded = shard_schedule(
            build_arrival_schedule(process, fn, 13, **params), 2
        )[index]
        assert shard_src.order == sharded.order
        while shard_src.take(None) is not None:
            pass
        assert shard_src.fingerprint() == sharded.fingerprint()

    @pytest.mark.parametrize("process", ALL_PROCESSES)
    @pytest.mark.parametrize("index", [0, 1])
    def test_shard_source_survives_every_suspend_point(self, fn, process,
                                                       index):
        """Mid-batch cuts included: a lane restored from its cursor and
        fingerprint chain alone finishes the shard schedule's stream."""
        params = process_params(process, fn)
        want = shard_schedule(
            build_arrival_schedule(process, fn, 13, **params), 2
        )[index]

        def lane():
            return ShardSource(build_arrival_source(process, fn, 13, **params),
                               index, 2)

        for cut in range(want.n + 1):
            source = lane()
            while source.cursor < cut:
                assert source.take(cut - source.cursor) is not None
            state = json.loads(json.dumps(source.state_dict(),
                                          allow_nan=False))
            resumed = lane()
            resumed.restore(state)
            while resumed.take(None) is not None:
                pass
            assert resumed.fingerprint() == want.fingerprint(), (process, cut)

    def test_restore_validates_cursor_bounds(self, fn):
        """The satellite bugfix: a bad cursor is a clean error, not a
        reference to an undefined ``schedule.n``."""
        source = build_arrival_source("bursty", fn, 13)
        state = source.state_dict()
        state["cursor"] = 999
        with pytest.raises(InvalidInstanceError, match="cursor 999"):
            source.restore(state)
        state["cursor"] = -1
        with pytest.raises(InvalidInstanceError, match="cursor -1"):
            source.restore(state)


def _recipe(policy, process, shards=1):
    return {
        "kind": "secretary-workload",
        "policy": policy,
        "family": "additive",
        "n": N,
        "k": K,
        "aux": 0,
        "n_knapsacks": 2,
        "distribution": "uniform",
        "seed": SEED,
        "process": process,
        "shards": shards,
    }


def _materialized_run(policy, process, shards, params):
    """The legacy eager path: schedule built up front, pre-split shards."""
    recipe = _recipe(policy, process, shards)
    fn, weights = build_workload(recipe)
    schedule = build_arrival_schedule(
        process, fn, derive_seed(SEED, "online-stream"), **params
    )
    algo_seed = derive_seed(SEED, "online-algo")
    deps = _policy_deps(recipe, fn, weights)
    if shards == 1:
        counting = CountingOracle(fn)
        run = OnlineRun(counting, schedule, build_policy(policy, N, K, algo_seed, deps))
        selected = run.run().result().selected
        return frozenset(selected), counting.calls
    counters = ShardCounters()

    def policy_factory(index, shard):
        seed = lane_algo_seed(algo_seed, index, shards)
        return build_policy(policy, shard.n, K, seed, deps)

    can_take, limit = _merge_rule(recipe, weights)
    run = ShardedRun.from_schedule(
        fn, schedule, shards, policy_factory,
        oracle_factory=counters, can_take=can_take, limit=limit,
    )
    selected = run.run().result().selected
    return frozenset(selected), counters.calls + run.merge_calls


class TestBuildPolicy:
    @pytest.mark.parametrize("name,key", [
        ("robust", "values"), ("bottleneck", "values"), ("knapsack", "weights"),
    ])
    def test_a_missing_map_is_refused_naming_it(self, name, key):
        with pytest.raises(InvalidInstanceError, match=f"'{key}' map"):
            build_policy(name, N, K, 0)

    def test_an_unknown_name_is_refused(self):
        with pytest.raises(InvalidInstanceError, match="unknown online policy"):
            build_policy("nope", N, K, 0)


class TestStreamingEqualsMaterialized:
    """The tentpole pin: sources end-to-end == schedules end-to-end."""

    @pytest.mark.parametrize("process", ALL_PROCESSES)
    @pytest.mark.parametrize("policy", SESSION_POLICIES)
    def test_unsharded_hires_and_calls_identical(self, policy, process):
        recipe = _recipe(policy, process)
        fn, _ = build_workload(recipe)
        params = process_params(process, fn, seed=derive_seed(SEED, "online-stream"))
        streaming = start_session(
            policy=policy, family="additive", n=N, k=K, seed=SEED,
            process=process, process_params=params,
        ).advance()
        selected, calls = _materialized_run(policy, process, 1, params)
        assert frozenset(streaming.summary()["selected"]) == selected
        assert streaming.summary()["oracle_calls"] == calls

    @pytest.mark.parametrize("process", ALL_PROCESSES)
    @pytest.mark.parametrize("policy", SESSION_POLICIES)
    def test_two_shard_hires_and_calls_identical(self, policy, process):
        recipe = _recipe(policy, process, 2)
        fn, _ = build_workload(recipe)
        params = process_params(process, fn, seed=derive_seed(SEED, "online-stream"))
        streaming = start_sharded_session(
            policy=policy, family="additive", n=N, k=K, seed=SEED,
            process=process, process_params=params, shards=2,
        ).advance()
        selected, calls = _materialized_run(policy, process, 2, params)
        assert frozenset(streaming.summary()["selected"]) == selected
        assert streaming.summary()["oracle_calls"] == calls


class TestCheckpointStaysSmall:
    """v2 checkpoints are O(selected): no embedded stream, flat size."""

    @staticmethod
    def _checkpoint_bytes(n):
        values = {i: float((7 * i) % 101 + 1) for i in range(n)}
        fn = AdditiveFunction(values)
        source = build_arrival_source("bursty", fn, 5, mean_batch=4.0)
        run = OnlineRun(fn, source, SegmentedSubmodularPolicy(3))
        run.run(n // 2)
        ck = make_checkpoint(run)
        assert "schedule" not in ck
        assert "schedule" not in ck["source"]
        return len(json.dumps(ck, sort_keys=True))

    def test_size_flat_in_stream_length(self):
        small = self._checkpoint_bytes(500)
        big = self._checkpoint_bytes(5000)
        # 10x the stream must not show up in the payload (policy state
        # carries a few thresholds; allow slack, forbid O(n)).
        assert big < 2 * small

    @staticmethod
    def _session_checkpoint(policy, n):
        # Seed 3 flips the knapsack rule's coin to tails (the density
        # branch, whose state once kept the whole observation half).
        return start_session(
            policy=policy, family="additive", n=n, k=K, seed=3
        ).advance(3 * n // 4).checkpoint()

    @pytest.mark.parametrize("policy", SESSION_POLICIES)
    def test_every_session_policy_flat_in_stream_length(self, policy):
        # Suspended at 3n/4, so the knapsack rule is past its collect
        # phase; no policy may carry an O(n) map in its config or state.
        small, big = (self._session_checkpoint(policy, n) for n in (500, 5000))
        if policy == "knapsack":
            assert big["policy"]["state"]["phase"] == "filter"
        small_bytes = len(json.dumps(small, sort_keys=True))
        big_bytes = len(json.dumps(big, sort_keys=True))
        assert big_bytes < 2 * small_bytes, (policy, small_bytes, big_bytes)

    def test_decision_log_is_the_selected_set(self, fn):
        source = build_arrival_source("bursty", fn, 13)
        run = OnlineRun(fn, source, SegmentedSubmodularPolicy(3)).run()
        ck = make_checkpoint(run)
        assert sorted(e for _, e in ck["decisions"]) == sorted(
            run.result().selected, key=repr
        )
        order = run.source.materialize().order
        for pos, element in ck["decisions"]:
            assert order[pos] == element
