"""Arrival processes: registry, schedules, determinism, fingerprints."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidInstanceError
from repro.online.arrivals import (
    ARRIVAL_PROCESSES,
    FINGERPRINT_FORMAT,
    ArrivalFingerprint,
    ArrivalSchedule,
    arrival_process_names,
    build_arrival_schedule,
    register_arrival_process,
)
from repro.secretary.stream import SecretaryStream
from repro.workloads.secretary_streams import additive_values, coverage_utility

from tests.online.procutil import process_params

ALL_PROCESSES = arrival_process_names()


@pytest.fixture(scope="module")
def fn():
    return coverage_utility(30, 12, rng=np.random.default_rng(3))


class TestRegistry:
    def test_builtin_processes_registered(self):
        assert {"uniform", "sorted_desc", "sorted_asc", "bursty", "poisson",
                "sliding_window", "replay"} <= set(ALL_PROCESSES)

    def test_names_sorted(self):
        assert list(ALL_PROCESSES) == sorted(ALL_PROCESSES)

    def test_unknown_process_rejected(self, fn):
        with pytest.raises(InvalidInstanceError, match="unknown arrival process"):
            build_arrival_schedule("no-such-process", fn, 0)

    def test_register_requires_name(self):
        with pytest.raises(InvalidInstanceError):
            register_arrival_process("", lambda fn, seed: None)

    def test_register_and_build_custom(self, fn):
        def reverse_sorted(utility, seed):
            order = sorted(utility.ground_set, key=repr, reverse=True)
            return ArrivalSchedule(
                process="rev", seed=None, order=order, batch_sizes=[1] * len(order)
            )

        register_arrival_process("rev", reverse_sorted)
        try:
            schedule = build_arrival_schedule("rev", fn, 0)
            assert schedule.order == sorted(fn.ground_set, key=repr, reverse=True)
        finally:
            del ARRIVAL_PROCESSES["rev"]


class TestScheduleInvariants:
    @pytest.mark.parametrize("process", ALL_PROCESSES)
    def test_order_is_a_permutation(self, fn, process):
        schedule = build_arrival_schedule(
            process, fn, 11, **process_params(process, fn)
        )
        assert frozenset(schedule.order) == fn.ground_set
        assert len(schedule.order) == len(fn.ground_set)

    @pytest.mark.parametrize("process", ALL_PROCESSES)
    def test_batches_partition_the_order(self, fn, process):
        schedule = build_arrival_schedule(
            process, fn, 11, **process_params(process, fn)
        )
        assert sum(schedule.batch_sizes) == schedule.n
        assert all(b >= 1 for b in schedule.batch_sizes)
        walked = [a for _, batch in schedule.batches() for a in batch]
        assert walked == schedule.order

    @pytest.mark.parametrize("process", ALL_PROCESSES)
    def test_deterministic_in_seed(self, fn, process):
        params = process_params(process, fn)
        a = build_arrival_schedule(process, fn, 21, **params)
        b = build_arrival_schedule(process, fn, 21, **params)
        c = build_arrival_schedule(process, fn, 22, **params)
        assert a.order == b.order and a.batch_sizes == b.batch_sizes
        assert a.fingerprint() == b.fingerprint()
        # Value-sorted orders ignore the seed; replay reproduces its
        # recorded payload no matter the seed.
        if process not in ("sorted_desc", "sorted_asc", "replay"):
            assert a.order != c.order or a.batch_sizes != c.batch_sizes

    def test_batches_resume_mid_batch(self, fn):
        schedule = build_arrival_schedule("bursty", fn, 4, mean_batch=5.0)
        # Pick a start strictly inside some batch.
        first_size = schedule.batch_sizes[0]
        start = max(1, first_size - 1)
        walked = [a for _, batch in schedule.batches(start) for a in batch]
        assert walked == schedule.order[start:]
        pos0, first_batch = next(schedule.batches(start))
        assert pos0 == start

    def test_validation(self, fn):
        order = sorted(fn.ground_set, key=repr)
        with pytest.raises(InvalidInstanceError, match="batch sizes sum"):
            ArrivalSchedule(process="x", seed=0, order=order, batch_sizes=[1])
        with pytest.raises(InvalidInstanceError, match="positive"):
            ArrivalSchedule(
                process="x", seed=0, order=order,
                batch_sizes=[0, len(order)],
            )
        with pytest.raises(InvalidInstanceError, match="timestamp"):
            ArrivalSchedule(
                process="x", seed=0, order=order,
                batch_sizes=[1] * len(order), timestamps=[0.0],
            )


class TestUniform:
    def test_matches_secretary_stream_exactly(self, fn):
        for seed in (0, 7, 123):
            schedule = build_arrival_schedule("uniform", fn, seed)
            stream = SecretaryStream(fn, rng=np.random.default_rng(seed))
            assert schedule.order == stream.order

    def test_per_arrival_batches(self, fn):
        schedule = build_arrival_schedule("uniform", fn, 0)
        assert schedule.batch_sizes == [1] * schedule.n

    def test_accepts_live_generator(self, fn):
        gen = np.random.default_rng(9)
        schedule = build_arrival_schedule("uniform", fn, gen)
        expected = SecretaryStream(fn, rng=np.random.default_rng(9))
        assert schedule.order == expected.order
        assert schedule.seed is None  # opaque provenance


class TestSortedOrders:
    def test_descending_by_singleton_value(self):
        fn, values = additive_values(20, rng=np.random.default_rng(4))
        schedule = build_arrival_schedule("sorted_desc", fn, 0)
        vals = [values[e] for e in schedule.order]
        assert vals == sorted(vals, reverse=True)

    def test_ascending_is_reverse_of_descending(self):
        fn, _ = additive_values(20, rng=np.random.default_rng(4))
        desc = build_arrival_schedule("sorted_desc", fn, 0)
        asc = build_arrival_schedule("sorted_asc", fn, 0)
        assert asc.order == list(reversed(desc.order))

    def test_seed_independent(self, fn):
        a = build_arrival_schedule("sorted_desc", fn, 1)
        b = build_arrival_schedule("sorted_desc", fn, 999)
        assert a.order == b.order


class TestBursty:
    def test_reuses_uniform_permutation(self, fn):
        uniform = build_arrival_schedule("uniform", fn, 31)
        bursty = build_arrival_schedule("bursty", fn, 31)
        assert bursty.order == uniform.order

    def test_has_multi_arrival_batches(self, fn):
        schedule = build_arrival_schedule("bursty", fn, 0, mean_batch=6.0)
        assert max(schedule.batch_sizes) > 1

    def test_mean_batch_validated(self, fn):
        with pytest.raises(InvalidInstanceError, match="mean_batch"):
            build_arrival_schedule("bursty", fn, 0, mean_batch=0.5)


class TestPoisson:
    def test_timestamps_strictly_ordered(self, fn):
        schedule = build_arrival_schedule("poisson", fn, 0, rate=3.0)
        ts = schedule.timestamps
        assert ts is not None and len(ts) == schedule.n
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_batches_group_by_integer_tick(self, fn):
        schedule = build_arrival_schedule("poisson", fn, 0, rate=5.0)
        pos = 0
        for size in schedule.batch_sizes:
            ticks = {math.floor(t) for t in schedule.timestamps[pos:pos + size]}
            assert len(ticks) == 1
            pos += size

    def test_rate_validated(self, fn):
        with pytest.raises(InvalidInstanceError, match="rate"):
            build_arrival_schedule("poisson", fn, 0, rate=0.0)


class TestSlidingWindow:
    def test_window_one_is_exactly_sorted(self):
        fn, _ = additive_values(15, rng=np.random.default_rng(4))
        sw = build_arrival_schedule("sliding_window", fn, 7, window=1)
        desc = build_arrival_schedule("sorted_desc", fn, 0)
        assert sw.order == desc.order

    def test_bounded_displacement(self):
        fn, _ = additive_values(40, rng=np.random.default_rng(4))
        window = 6
        sw = build_arrival_schedule("sliding_window", fn, 7, window=window)
        desc = build_arrival_schedule("sorted_desc", fn, 0)
        sorted_pos = {e: i for i, e in enumerate(desc.order)}
        for i, e in enumerate(sw.order):
            # An element can only leave the buffer after it entered it.
            assert i >= sorted_pos[e] - (window - 1)

    def test_window_validated(self, fn):
        with pytest.raises(InvalidInstanceError, match="window"):
            build_arrival_schedule("sliding_window", fn, 0, window=0)


class TestReplay:
    """The ``replay`` process: a recorded schedule, consumed verbatim."""

    def test_replays_order_batches_timestamps(self, fn):
        recorded = build_arrival_schedule("poisson", fn, 17, rate=4.0)
        replayed = build_arrival_schedule(
            "replay", fn, 0, payload=recorded.payload()
        )
        assert replayed.order == recorded.order
        assert replayed.batch_sizes == recorded.batch_sizes
        assert replayed.timestamps == recorded.timestamps
        assert replayed.process == "replay"

    def test_seed_is_irrelevant(self, fn):
        payload = build_arrival_schedule("bursty", fn, 3).payload()
        a = build_arrival_schedule("replay", fn, 1, payload=payload)
        b = build_arrival_schedule("replay", fn, 2, payload=payload)
        assert a.order == b.order and a.batch_sizes == b.batch_sizes

    def test_ground_set_mismatch_rejected(self, fn):
        other = coverage_utility(10, 5, rng=np.random.default_rng(8))
        payload = build_arrival_schedule("uniform", other, 3).payload()
        with pytest.raises(InvalidInstanceError, match="ground set"):
            build_arrival_schedule("replay", fn, 0, payload=payload)

    def test_corrupt_payload_rejected(self, fn):
        with pytest.raises(InvalidInstanceError, match="payload"):
            build_arrival_schedule(
                "replay", fn, 0, payload={"format": "something-else"}
            )


class TestPaperApiOverAnyProcess:
    """A process's order, passed to SecretaryStream, runs the paper API."""

    def test_sorted_desc_order_through_the_paper_api(self):
        from repro.secretary.submodular_secretary import (
            monotone_submodular_secretary,
        )

        fn, values = additive_values(20, rng=np.random.default_rng(4))
        schedule = build_arrival_schedule("sorted_desc", fn, 0)
        stream = SecretaryStream(fn, order=schedule.order)
        vals = [values[e] for e in stream.order]
        assert vals == sorted(vals, reverse=True)
        result = monotone_submodular_secretary(stream, 3)
        assert len(result.selected) <= 3
        assert stream.cursor == stream.n


class TestPayloadRoundTrip:
    @pytest.mark.parametrize("process", ALL_PROCESSES)
    def test_json_round_trip(self, fn, process):
        import json

        schedule = build_arrival_schedule(
            process, fn, 13, **process_params(process, fn)
        )
        payload = json.loads(json.dumps(schedule.payload()))
        back = ArrivalSchedule.from_payload(payload)
        assert back.order == schedule.order
        assert back.batch_sizes == schedule.batch_sizes
        assert back.timestamps == schedule.timestamps
        assert back.fingerprint() == schedule.fingerprint()

    def test_bad_format_rejected(self):
        with pytest.raises(InvalidInstanceError, match="payload"):
            ArrivalSchedule.from_payload({"format": "something-else"})

    def test_fingerprints_distinguish_processes(self, fn):
        prints = {
            build_arrival_schedule(
                p, fn, 5, **process_params(p, fn)
            ).fingerprint()
            for p in ALL_PROCESSES
        }
        assert len(prints) == len(ALL_PROCESSES)

    def test_timestamped_fingerprint_stable_through_checkpoint_hop(self, fn):
        """A Poisson schedule's fingerprint survives the checkpoint codec.

        Checkpoints serialise with ``sort_keys`` + strict JSON; float
        timestamps must round-trip exactly (Python floats do through
        ``json``), or a resumed shard would look like a different
        instance to provenance checks.
        """
        import json

        schedule = build_arrival_schedule("poisson", fn, 13, rate=5.0)
        assert schedule.timestamps is not None
        text = json.dumps(schedule.payload(), sort_keys=True, allow_nan=False)
        back = ArrivalSchedule.from_payload(json.loads(text))
        assert back.timestamps == schedule.timestamps
        assert back.fingerprint() == schedule.fingerprint()
        # And again through a second hop (resume → suspend → resume).
        text2 = json.dumps(back.payload(), sort_keys=True, allow_nan=False)
        assert ArrivalSchedule.from_payload(
            json.loads(text2)
        ).fingerprint() == schedule.fingerprint()


def _reference_record(element, new_batch, timestamp) -> str:
    """The fingerprint record as canonical ``json.dumps`` writes it."""
    return json.dumps([repr(element), bool(new_batch), timestamp],
                      sort_keys=True, separators=(",", ":"), allow_nan=False)


def _reference_chain(header, arrivals) -> str:
    chain = hashlib.sha256(
        json.dumps(header, sort_keys=True, separators=(",", ":"),
                   allow_nan=False).encode("utf-8")
    ).hexdigest()
    for arrival in arrivals:
        chain = hashlib.sha256(
            (chain + _reference_record(*arrival)).encode("utf-8")
        ).hexdigest()
    return chain


#: Text that leans on what JSON escapes: quotes, backslashes, control
#: and non-ASCII characters (astral ones included).
_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from('"\\\'/\x00\x1f\x7f\n\t\u2028\xe9\U0001f600'),
    st.characters(),
))

_ELEMENTS = st.one_of(
    _TEXT, st.integers(), st.tuples(st.integers(), _TEXT),
)

_FINITE = st.floats(allow_nan=False, allow_infinity=False)

_TIMESTAMPS = st.one_of(
    st.none(),
    _FINITE,
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
    st.integers(),
    _FINITE.map(np.float64),
)


class TestFingerprintRecord:
    """``update``'s hand-built record is the ``json.dumps`` one, byte for byte."""

    HEADER = {"format": FINGERPRINT_FORMAT, "process": "uniform", "seed": 0,
              "params": {}}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_ELEMENTS, st.booleans(), _TIMESTAMPS),
                    max_size=6))
    def test_chain_equals_the_reference_chain(self, arrivals):
        fp = ArrivalFingerprint(self.HEADER)
        for arrival in arrivals:
            fp.update(*arrival)
        assert fp.digest == _reference_chain(self.HEADER, arrivals)
        assert fp.count == len(arrivals)

    @pytest.mark.parametrize("timestamp", [
        math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"),
    ])
    def test_non_finite_timestamps_raise_on_both_paths(self, timestamp):
        with pytest.raises(ValueError):
            _reference_record("s1", True, timestamp)
        fp = ArrivalFingerprint(self.HEADER)
        with pytest.raises(ValueError):
            fp.update("s1", True, timestamp)
        assert fp.count == 0
