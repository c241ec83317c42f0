"""SecretaryStream and the no-peeking arrival oracle."""

import numpy as np
import pytest

from repro.core.functions import AdditiveFunction
from repro.errors import OracleError
from repro.online.arrivals import build_arrival_schedule
from repro.online.driver import OnlineRun
from repro.online.policies import BestSingletonPolicy
from repro.secretary import ArrivalOracle, SecretaryStream


def utility():
    return AdditiveFunction({f"s{i}": float(i) for i in range(6)})


class TestArrivalOracle:
    def test_unseen_query_raises(self):
        oracle = ArrivalOracle(utility())
        with pytest.raises(OracleError):
            oracle({"s0"})

    def test_revealed_query_allowed(self):
        oracle = ArrivalOracle(utility())
        oracle.reveal("s3")
        assert oracle({"s3"}) == 3.0

    def test_partial_reveal_still_blocks_hidden(self):
        oracle = ArrivalOracle(utility())
        oracle.reveal("s3")
        with pytest.raises(OracleError):
            oracle({"s3", "s4"})

    def test_empty_set_always_allowed(self):
        oracle = ArrivalOracle(utility())
        assert oracle(frozenset()) == 0.0

    def test_arrived_property(self):
        oracle = ArrivalOracle(utility())
        oracle.reveal("s0")
        assert oracle.arrived == frozenset({"s0"})


class TestSecretaryStream:
    def test_stream_covers_ground_set(self):
        stream = SecretaryStream(utility(), rng=0)
        seen = stream.order
        assert frozenset(seen) == utility().ground_set
        assert len(seen) == 6

    def test_oracle_reveals_in_order(self):
        stream = SecretaryStream(utility(), rng=1)
        run = OnlineRun(stream.utility, stream, BestSingletonPolicy()).run(1)
        first = stream.order[0]
        assert run.oracle({first}) >= 0.0  # allowed
        # Second element has not arrived yet.
        with pytest.raises(OracleError):
            run.oracle({stream.order[1]})

    def test_explicit_order(self):
        order = [f"s{i}" for i in range(6)]
        stream = SecretaryStream(utility(), order=order)
        assert stream.order == order
        assert stream.process == "explicit"
        assert stream.materialize().batch_sizes == [1] * 6

    def test_explicit_order_must_match_ground(self):
        with pytest.raises(OracleError):
            SecretaryStream(utility(), order=["s0", "s1"])

    def test_seed_determinism(self):
        s1 = SecretaryStream(utility(), rng=42)
        s2 = SecretaryStream(utility(), rng=42)
        assert s1.order == s2.order

    def test_orders_vary_across_seeds(self):
        orders = {tuple(SecretaryStream(utility(), rng=s).order) for s in range(20)}
        assert len(orders) > 1

    def test_permutation_is_roughly_uniform(self):
        # Each element should land in position 0 about 1/6 of the time.
        counts = {e: 0 for e in utility().ground_set}
        trials = 1200
        for s in range(trials):
            stream = SecretaryStream(utility(), rng=s)
            counts[stream.order[0]] += 1
        expected = trials / 6
        for c in counts.values():
            assert abs(c - expected) < 5 * np.sqrt(expected)

    def test_length_and_cursor(self):
        stream = SecretaryStream(utility(), rng=3)
        assert (stream.n, stream.cursor) == (6, 0)
        OnlineRun(stream.utility, stream, BestSingletonPolicy(window=6)).run(1)
        assert (stream.n, stream.cursor) == (6, 1)

    def test_drained_fingerprint_is_the_uniform_schedules(self):
        fn = utility()
        for seed in (0, 5, 91):
            stream = SecretaryStream(fn, rng=seed)
            OnlineRun(fn, stream, BestSingletonPolicy(window=6)).run()
            assert stream.exhausted
            assert stream.fingerprint() == build_arrival_schedule(
                "uniform", fn, seed
            ).fingerprint()
