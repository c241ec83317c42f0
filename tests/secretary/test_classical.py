"""Classical 1/e stopping rule."""

import math

import pytest

from repro.core.functions import AdditiveFunction
from repro.online.driver import run_online
from repro.online.policies import BestSingletonPolicy
from repro.rng import as_generator, random_permutation
from repro.secretary.classical import classical_secretary, dynkin_threshold
from repro.secretary.stream import SecretaryStream


class TestThreshold:
    def test_small_n(self):
        assert dynkin_threshold(0) == 0
        assert dynkin_threshold(1) == 0

    def test_approaches_n_over_e(self):
        assert dynkin_threshold(100) == int(math.floor(100 / math.e))
        assert dynkin_threshold(1000) == 367


class TestClassicalSecretary:
    def test_empty(self):
        assert classical_secretary([]) is None

    def test_picks_first_record_after_window(self):
        arrivals = [("a", 5.0), ("b", 1.0), ("c", 7.0), ("d", 9.0)]
        # window = floor(4/e) = 1; best in window = 5; first later > 5 is c.
        assert classical_secretary(arrivals) == "c"

    def test_none_when_best_in_window(self):
        arrivals = [("best", 10.0), ("a", 1.0), ("b", 2.0)]
        assert classical_secretary(arrivals, observe=1) is None

    def test_observe_override(self):
        arrivals = [("a", 5.0), ("b", 9.0), ("c", 7.0)]
        assert classical_secretary(arrivals, observe=0) == "a"
        assert classical_secretary(arrivals, observe=2) is None

    def test_observe_clamped(self):
        arrivals = [("a", 5.0)]
        assert classical_secretary(arrivals, observe=99) is None

    def test_success_probability_near_one_over_e(self):
        # Empirically the rule hires the best with probability ~ 1/e.
        gen = as_generator(0)
        n, trials, hits = 30, 2000, 0
        values = [float(i) for i in range(n)]
        for _ in range(trials):
            perm = random_permutation(values, gen)
            arrivals = [(v, v) for v in perm]
            if classical_secretary(arrivals) == float(n - 1):
                hits += 1
        rate = hits / trials
        assert abs(rate - 1 / math.e) < 0.05


class TestStreamingRule:
    """The rule scored on arrival: ``BestSingletonPolicy(strict=True)``."""

    def _hire(self, scores):
        fn = AdditiveFunction(scores)
        stream = SecretaryStream(fn, order=list(scores))
        return run_online(fn, stream, BestSingletonPolicy(strict=True)).selected

    def test_first_record_after_the_window(self):
        # Window = floor(4/e) = 1: observes only "a" (1.0); "b" (2.0)
        # is the first record after the window.
        assert self._hire({"a": 1.0, "b": 2.0, "c": 9.0, "d": 3.0}) == {"b"}

    def test_no_pick_when_the_window_holds_the_best(self):
        assert self._hire({"best": 9.0, "a": 1.0, "b": 2.0}) == frozenset()
