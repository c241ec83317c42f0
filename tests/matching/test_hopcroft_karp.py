"""Hopcroft–Karp correctness, cross-checked against networkx."""

import sys

import networkx as nx
import pytest

from repro.matching.fastgraph import hk_solve, indexed_view
from repro.matching.graph import BipartiteGraph, Matching
from repro.matching.hopcroft_karp import augment_from_left, hopcroft_karp, max_matching_size
from repro.rng import as_generator


def random_bipartite(seed: int, nl: int = 12, nr: int = 10, p: float = 0.3):
    gen = as_generator(seed)
    left = [f"x{i}" for i in range(nl)]
    right = [f"y{j}" for j in range(nr)]
    edges = [
        (x, y) for x in left for y in right if gen.random() < p
    ]
    return BipartiteGraph(left, right, edges)


def networkx_max_matching(graph: BipartiteGraph, allowed_left=None) -> int:
    allowed = graph.left if allowed_left is None else frozenset(allowed_left)
    g = nx.Graph()
    g.add_nodes_from([("L", x) for x in allowed], bipartite=0)
    g.add_nodes_from([("R", y) for y in graph.right], bipartite=1)
    for x, y in graph.edges():
        if x in allowed:
            g.add_edge(("L", x), ("R", y))
    matching = nx.bipartite.maximum_matching(g, top_nodes=[("L", x) for x in allowed])
    return len(matching) // 2


class TestHopcroftKarp:
    def test_trivial_cases(self):
        g = BipartiteGraph(["x"], ["y"], [("x", "y")])
        assert max_matching_size(g) == 1
        g2 = BipartiteGraph(["x"], ["y"], [])
        assert max_matching_size(g2) == 0

    def test_perfect_matching(self):
        g = BipartiteGraph(
            ["x1", "x2", "x3"],
            ["y1", "y2", "y3"],
            [("x1", "y1"), ("x2", "y2"), ("x3", "y3"), ("x1", "y2")],
        )
        assert max_matching_size(g) == 3

    def test_augmenting_path_needed(self):
        # Classic case forcing an augmenting path through a matched edge.
        g = BipartiteGraph(
            ["x1", "x2"],
            ["y1", "y2"],
            [("x1", "y1"), ("x1", "y2"), ("x2", "y1")],
        )
        assert max_matching_size(g) == 2

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_networkx_on_random_graphs(self, seed):
        g = random_bipartite(seed)
        assert max_matching_size(g) == networkx_max_matching(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_restricted_left_subsets(self, seed):
        g = random_bipartite(seed)
        gen = as_generator(seed + 1000)
        lefts = sorted(g.left, key=repr)
        mask = gen.random(len(lefts)) < 0.5
        allowed = frozenset(x for x, m in zip(lefts, mask) if m)
        ours = max_matching_size(g, allowed)
        ref = networkx_max_matching(g, allowed)
        assert ours == ref

    def test_result_is_valid_matching(self):
        g = random_bipartite(3)
        m = hopcroft_karp(g)
        m.validate(g)
        # Saturates only left vertices that exist.
        assert set(m.left_to_right) <= set(g.left)

    def test_restricted_saturates_only_allowed(self):
        g = random_bipartite(4)
        allowed = frozenset(sorted(g.left, key=repr)[:5])
        m = hopcroft_karp(g, allowed)
        assert set(m.left_to_right) <= allowed

    def test_seed_matching_warm_start(self):
        g = random_bipartite(5)
        half = frozenset(sorted(g.left, key=repr)[:6])
        m_half = hopcroft_karp(g, half)
        m_full = hopcroft_karp(g, seed_matching=m_half)
        assert len(m_full) == max_matching_size(g)
        m_full.validate(g)


def chain_graph(n: int) -> BipartiteGraph:
    """A path on ``2n`` vertices whose perfect matching needs one long augmentation.

    ``x_i`` is adjacent to ``y_i`` and ``y_{i+1}`` for ``i < n - 1``, and
    ``x_{n-1}`` only to ``y_0``.  Hopcroft–Karp's first phase matches
    ``x_i`` to ``y_i`` (adjacency is visited in index order), leaving
    ``x_{n-1}`` free with its only neighbour taken; the second phase must
    then augment along the whole path, ``2n - 1`` edges long.  Names are
    zero-padded so the indexed view's repr order is the numeric order.
    """
    left = [f"x{i:04d}" for i in range(n)]
    right = [f"y{i:04d}" for i in range(n)]
    edges = [(left[i], right[i]) for i in range(n - 1)]
    edges += [(left[i], right[i + 1]) for i in range(n - 1)]
    edges.append((left[n - 1], right[0]))
    return BipartiteGraph(left, right, edges)


class TestDeepAugmentingPath:
    """Augmenting paths longer than the interpreter's recursion limit."""

    N = 1500  # a chain of 3,000 vertices

    def test_hk_solve(self):
        assert self.N > sys.getrecursionlimit()
        match_l, match_r, size = hk_solve(indexed_view(chain_graph(self.N)))
        assert size == self.N
        # The unique perfect matching: x_i -> y_{i+1}, x_{n-1} -> y_0.
        assert match_l == list(range(1, self.N)) + [0]
        assert match_r == [self.N - 1] + list(range(self.N - 1))

    def test_hopcroft_karp(self):
        g = chain_graph(self.N)
        m = hopcroft_karp(g)
        m.validate(g)
        assert len(m) == self.N == max_matching_size(g)
        assert m.left_to_right["x1499"] == "y0000"
        assert m.left_to_right["x0000"] == "y0001"


class TestAugmentFromLeft:
    def test_direct_augment(self):
        g = BipartiteGraph(["x1"], ["y1"], [("x1", "y1")])
        m = Matching()
        assert augment_from_left(g, m, "x1", frozenset({"x1"}))
        assert m.left_to_right == {"x1": "y1"}

    def test_alternating_augment(self):
        g = BipartiteGraph(
            ["x1", "x2"],
            ["y1", "y2"],
            [("x1", "y1"), ("x1", "y2"), ("x2", "y1")],
        )
        m = Matching()
        m.match("x1", "y1")
        assert augment_from_left(g, m, "x2", frozenset({"x1", "x2"}))
        assert len(m) == 2
        m.validate(g)

    def test_failed_augment_leaves_matching_unchanged(self):
        g = BipartiteGraph(["x1", "x2"], ["y1"], [("x1", "y1"), ("x2", "y1")])
        m = Matching()
        m.match("x1", "y1")
        before = m.copy()
        assert not augment_from_left(g, m, "x2", frozenset({"x1", "x2"}))
        assert m.left_to_right == before.left_to_right

    def test_matched_start_refused(self):
        g = BipartiteGraph(["x1"], ["y1"], [("x1", "y1")])
        m = Matching()
        m.match("x1", "y1")
        assert not augment_from_left(g, m, "x1", frozenset({"x1"}))

    def test_disallowed_start_refused(self):
        g = BipartiteGraph(["x1"], ["y1"], [("x1", "y1")])
        m = Matching()
        assert not augment_from_left(g, m, "x1", frozenset())
