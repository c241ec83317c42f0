"""Driver semantics: minibatch reveals, early stop, batch == sequential."""

import numpy as np
import pytest

from repro.core.oracle import CountingOracle
from repro.errors import InvalidInstanceError, OracleError
from repro.online.arrivals import (
    ArrivalSchedule,
    arrival_process_names,
    build_arrival_schedule,
)
from repro.online.driver import OnlineRun, run_online
from repro.online.policies import BestSingletonPolicy, SegmentedSubmodularPolicy
from repro.workloads.secretary_streams import (
    additive_values,
    coverage_utility,
    facility_utility,
)

ALL_PROCESSES = arrival_process_names()


@pytest.fixture(scope="module")
def fn():
    return coverage_utility(36, 15, rng=np.random.default_rng(2))


class TestOnlineRun:
    def test_ground_set_mismatch_rejected(self, fn):
        other, _ = additive_values(5, rng=np.random.default_rng(0))
        schedule = build_arrival_schedule("uniform", other, 0)
        with pytest.raises(InvalidInstanceError, match="ground set"):
            OnlineRun(fn, schedule, SegmentedSubmodularPolicy(3))

    def test_incremental_consumption_tracks_cursor(self, fn):
        schedule = build_arrival_schedule("uniform", fn, 1)
        run = OnlineRun(fn, schedule, SegmentedSubmodularPolicy(3))
        run.run(10)
        assert run.cursor == 10
        run.run(5)
        assert run.cursor == 15
        run.run()
        assert run.cursor == run.n and run.finished

    def test_early_stop_hides_the_future(self, fn):
        """A done policy stops the reveals — later elements stay unseen."""
        schedule = build_arrival_schedule("uniform", fn, 1)
        run = OnlineRun(fn, schedule, BestSingletonPolicy())
        run.run()
        assert run.finished
        unseen = [e for e in schedule.order if e not in run.oracle.arrived]
        assert unseen  # the single-hire rule fires before the stream ends
        with pytest.raises(OracleError):
            run.oracle.value(frozenset({unseen[0]}))

    def test_batch_reveal_is_per_batch_no_peeking(self, fn):
        """Everything in a revealed burst is queryable; beyond it is not."""
        schedule = build_arrival_schedule("bursty", fn, 3, mean_batch=6.0)
        run = OnlineRun(fn, schedule, SegmentedSubmodularPolicy(3))
        first_size = schedule.batch_sizes[0]
        run.run(first_size)
        assert run.oracle.arrived == frozenset(schedule.order[:first_size])

    def test_result_cached(self, fn):
        schedule = build_arrival_schedule("uniform", fn, 1)
        run = OnlineRun(fn, schedule, SegmentedSubmodularPolicy(3)).run()
        assert run.result() is run.result()

    def test_run_online_one_shot(self, fn):
        schedule = build_arrival_schedule("uniform", fn, 1)
        result = run_online(fn, schedule, SegmentedSubmodularPolicy(3))
        assert 1 <= len(result.selected) <= 3


class TestBatchSequentialEquivalence:
    """Vectorized minibatch driving decides exactly like per-arrival."""

    @pytest.mark.parametrize("family_rng", [("coverage", 5), ("facility", 6)])
    @pytest.mark.parametrize("process", ["bursty", "poisson"])
    def test_segmented_policy(self, family_rng, process):
        family, seed = family_rng
        if family == "coverage":
            fn = coverage_utility(40, 16, rng=np.random.default_rng(seed))
        else:
            fn = facility_utility(30, 8, rng=np.random.default_rng(seed))
        batched = build_arrival_schedule(process, fn, 9)
        assert max(batched.batch_sizes) > 1
        sequential = ArrivalSchedule(
            process="seq", seed=None, order=list(batched.order),
            batch_sizes=[1] * batched.n,
        )
        counting_b = CountingOracle(fn)
        res_b = OnlineRun(
            counting_b, batched, SegmentedSubmodularPolicy(4)
        ).run().result()
        counting_s = CountingOracle(fn)
        res_s = OnlineRun(
            counting_s, sequential, SegmentedSubmodularPolicy(4)
        ).run().result()
        assert res_b.selected == res_s.selected
        assert res_b.traces == res_s.traces

    def test_batch_path_bills_only_needed_queries(self):
        """Batched scoring skips arrivals the sequential pass never queries.

        The only billing overhead allowed over the per-arrival path is
        the pre-hire tail of a speculative batch (at most one partial
        batch per hire); skip-region, past-window, and already-hired
        segment arrivals must not be scored.
        """
        fn = coverage_utility(50, 20, rng=np.random.default_rng(8))
        batched = build_arrival_schedule("bursty", fn, 12, mean_batch=8.0)
        sequential = ArrivalSchedule(
            process="seq", seed=None, order=list(batched.order),
            batch_sizes=[1] * batched.n,
        )
        counting_b = CountingOracle(fn)
        res_b = OnlineRun(
            counting_b, batched, SegmentedSubmodularPolicy(5)
        ).run().result()
        counting_s = CountingOracle(fn)
        res_s = OnlineRun(
            counting_s, sequential, SegmentedSubmodularPolicy(5)
        ).run().result()
        assert res_b.selected == res_s.selected
        overhead = counting_b.calls - counting_s.calls
        max_batch = max(batched.batch_sizes)
        assert 0 <= overhead <= len(res_b.selected) * max_batch

    def test_batch_skip_region_never_scored(self):
        """The nonmonotone second-half policy must not bill first-half
        arrivals delivered in batches (they are skipped, not queried)."""
        from repro.online.policies import nonmonotone_half_policy

        fn = coverage_utility(40, 16, rng=np.random.default_rng(4))
        batched = build_arrival_schedule("bursty", fn, 6, mean_batch=7.0)
        counting = CountingOracle(fn)
        OnlineRun(
            counting, batched, nonmonotone_half_policy(batched.n, 3, False)
        ).run().result()
        # Strictly fewer counted queries than arrivals in the window —
        # impossible if the ~n/2 skip region were scored too.
        assert counting.calls <= batched.n - batched.n // 2 + 3 * max(
            batched.batch_sizes
        )


class TestSecretaryStreamDriving:
    def test_run_online_stops_at_done(self):
        from repro.secretary.stream import SecretaryStream

        fn, _ = additive_values(25, rng=np.random.default_rng(3))
        stream = SecretaryStream(fn, rng=np.random.default_rng(6))
        policy = BestSingletonPolicy()
        result = run_online(fn, stream, policy)
        assert policy.done
        assert stream.cursor < stream.n  # stopped mid-stream
        assert len(result.selected) <= 1
