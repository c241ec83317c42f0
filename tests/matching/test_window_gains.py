"""``IncrementalMatchingOracle.window_gains``: every window of a slot list.

The schedule-all greedy scores its whole event-point pool with one
``window_gains`` pass per processor.  Entry ``G[i][j]`` must equal the
``gain_indices`` probe of ``slots[i..j]`` and the difference of fresh
Hopcroft–Karp sizes, at any commit version, after failed probes, in any
slot order, and with committed slots mixed into the list.  The pass must
leave the oracle's matching, committed mask and version as it found
them.
"""

from hypothesis import given, settings, strategies as st

from repro.matching.graph import BipartiteGraph
from repro.matching.hopcroft_karp import max_matching_size
from repro.matching.incremental import IncrementalMatchingOracle
from tests.matching.test_extension_gains import graphs


@st.composite
def window_scenarios(draw):
    """A graph and rounds of (commit batch, warm-up probes, slot list).

    Each round commits a batch of fresh slots (possibly none, which still
    bumps the commit version), runs a few ``gain_indices`` probes over the
    remaining fresh slots, and then draws a slot list from *all* slots,
    committed ones included, in a random order.
    """
    graph = draw(graphs(max_left=10))
    every = sorted(graph.left, key=repr)
    order = draw(st.permutations(every))
    rounds = []
    pos = 0
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        batch = draw(st.integers(min_value=0, max_value=len(order) - pos))
        commit = list(order[pos : pos + batch])
        pos += batch
        fresh = list(order[pos:])
        probes = []
        if fresh:
            probes = draw(st.lists(
                st.lists(st.sampled_from(fresh), unique=True, max_size=4), max_size=4
            ))
        slots = draw(st.permutations(every))
        slots = slots[: draw(st.integers(min_value=0, max_value=len(slots)))]
        rounds.append((commit, probes, slots))
    return graph, rounds


@given(window_scenarios())
@settings(max_examples=200, deadline=None)
def test_window_gains_match_probes_and_fresh_solves(scenario):
    graph, rounds = scenario
    oracle = IncrementalMatchingOracle(graph)
    index = oracle.view.left_index
    committed = []
    for commit, probes, slots in rounds:
        oracle.commit(commit)
        committed += commit
        base = max_matching_size(graph, committed)
        for probe in probes:
            oracle.gain_indices([index[v] for v in probe])
        before = (
            dict(oracle.matching.left_to_right), bytes(oracle.committed_mask),
            oracle.commit_version, oracle.matching_size,
        )
        work = oracle.probe_augmentations
        ids = [index[v] for v in slots]
        table = oracle.window_gains(ids)
        after = (
            dict(oracle.matching.left_to_right), bytes(oracle.committed_mask),
            oracle.commit_version, oracle.matching_size,
        )
        assert after == before
        fresh = [v for v in slots if v not in set(committed)]
        assert oracle.probe_augmentations == work + len(fresh)
        k = len(ids)
        assert table.shape == (k, k)
        for i in range(k):
            for j in range(i, k):
                window = list(slots[i : j + 1])
                expected = max_matching_size(graph, committed + window) - base
                assert table[i][j] == expected, (i, j)
                assert oracle.gain_indices(ids[i : j + 1]) == expected


def test_committed_slots_are_never_taken_over():
    # x1 is committed and holds y1, x2's only neighbour.  x2's search
    # reaches x1 through y1; displacing x1 would "gain" y1 for x2 while
    # losing it for x1, so the window [x2] must still gain nothing.
    g = BipartiteGraph(["x1", "x2"], ["y1"], [("x1", "y1"), ("x2", "y1")])
    oracle = IncrementalMatchingOracle(g, committed=["x1"])
    index = oracle.view.left_index
    table = oracle.window_gains([index["x1"], index["x2"]])
    assert table.tolist() == [[0, 0], [0, 0]]


def test_takeover_keeps_the_later_slot():
    # x1 and x2 compete for y1 alone.  The window pass keeps the later
    # slot in its basis, so x1's window [x1] gains 1, [x2] gains 1 and
    # [x1, x2] gains 1 — and the oracle itself stays empty.
    g = BipartiteGraph(["x1", "x2"], ["y1"], [("x1", "y1"), ("x2", "y1")])
    oracle = IncrementalMatchingOracle(g)
    index = oracle.view.left_index
    assert oracle.window_gains([index["x1"], index["x2"]]).tolist() == [[1, 1], [0, 1]]
    assert oracle.matching_size == 0 and len(oracle.matching) == 0


def test_empty_slot_list():
    g = BipartiteGraph(["x1"], ["y1"], [("x1", "y1")])
    assert IncrementalMatchingOracle(g).window_gains([]).shape == (0, 0)
