"""Oracle wrappers: counting and caching semantics."""

from repro.core.functions import CoverageFunction
from repro.core.oracle import CachedOracle, CountingOracle


def fn():
    return CoverageFunction({"a": {1, 2}, "b": {2, 3}})


class TestCountingOracle:
    def test_counts_calls(self):
        oracle = CountingOracle(fn())
        oracle(frozenset())
        oracle({"a"})
        oracle({"a", "b"})
        assert oracle.calls == 3

    def test_reset(self):
        oracle = CountingOracle(fn())
        oracle({"a"})
        oracle.reset()
        assert oracle.calls == 0

    def test_value_passthrough(self):
        oracle = CountingOracle(fn())
        assert oracle({"a"}) == 2.0

    def test_ground_set_passthrough(self):
        oracle = CountingOracle(fn())
        assert oracle.ground_set == frozenset({"a", "b"})

    def test_composes_with_cache(self):
        counting = CountingOracle(fn())
        cached = CachedOracle(counting)
        cached({"a"})
        cached({"a"})
        assert counting.calls == 1


class TestCachedOracle:
    def test_hit_miss_accounting(self):
        oracle = CachedOracle(fn())
        oracle({"a"})
        oracle({"a"})
        oracle({"b"})
        assert oracle.misses == 2
        assert oracle.hits == 1

    def test_cache_keyed_on_set_not_order(self):
        oracle = CachedOracle(fn())
        oracle(["a", "b"])
        oracle(["b", "a"])
        assert oracle.hits == 1

    def test_clear(self):
        oracle = CachedOracle(fn())
        oracle({"a"})
        oracle.clear()
        oracle({"a"})
        assert oracle.misses == 1
        assert oracle.hits == 0


class TestMarginalGainFastPath:
    def test_gain_matches_value_difference(self):
        oracle = CachedOracle(fn())
        sel, items = frozenset({"a"}), frozenset({"b"})
        expected = oracle.value(sel | items) - oracle.value(sel)
        assert oracle.marginal_gain(sel, items) == expected

    def test_repeat_probe_hits_fingerprint_cache(self):
        oracle = CachedOracle(fn())
        sel, items = frozenset({"a"}), frozenset({"b"})
        oracle.marginal_gain(sel, items)
        hits = oracle.hits
        oracle.marginal_gain(sel, items)
        assert oracle.hits == hits + 1
        assert oracle.misses == 2  # only the two values of the first probe

    def test_distinct_selections_do_not_collide(self):
        oracle = CachedOracle(fn())
        items = frozenset({"b"})
        g1 = oracle.marginal_gain(frozenset(), items)  # |{2, 3}| = 2
        g2 = oracle.marginal_gain(frozenset({"a"}), items)  # adds only {3}
        assert (g1, g2) == (2.0, 1.0)

    def test_clear_drops_marginal_cache(self):
        oracle = CachedOracle(fn())
        oracle.marginal_gain(frozenset({"a"}), frozenset({"b"}))
        oracle.clear()
        oracle.marginal_gain(frozenset({"a"}), frozenset({"b"}))
        assert oracle.misses == 2
