"""``IncrementalMatchingOracle.extension_gains`` at any commit version.

The schedule-all greedy re-scores a row of nested candidate intervals
with one ``extension_gains`` chain over the row's gain steps in every
lazy re-score after later commits.  A chain's ``j``-th gain must equal a
``gain_indices`` probe of the union of the first ``j + 1`` steps and the
difference of fresh Hopcroft–Karp sizes — also after failed probes at
the current commit version, and for slots the oracle's reach sets skip.
Sweeping only a row's old gain steps must give its full-window gain at
every position.
"""

from hypothesis import given, settings, strategies as st

from repro.matching.graph import BipartiteGraph
from repro.matching.hopcroft_karp import max_matching_size
from repro.matching.incremental import IncrementalMatchingOracle


@st.composite
def graphs(draw, max_left=9, max_right=6):
    """Random bipartite graphs, each edge present with probability 1/2."""
    nl = draw(st.integers(min_value=1, max_value=max_left))
    nr = draw(st.integers(min_value=1, max_value=max_right))
    left = [f"x{i}" for i in range(nl)]
    right = [f"y{j}" for j in range(nr)]
    edges = [(x, y) for x in left for y in right if draw(st.booleans())]
    return BipartiteGraph(left, right, edges)


@st.composite
def chain_scenarios(draw):
    """A graph and rounds of (commit batch, warm-up probes, nested chain).

    Each round commits a batch of fresh slots (possibly none, which still
    bumps the commit version), runs a few ``gain_indices`` probes over the
    remaining fresh slots, and then splits a random selection of fresh
    slots into consecutive, possibly empty chain steps.
    """
    graph = draw(graphs())
    order = draw(st.permutations(sorted(graph.left, key=repr)))
    rounds = []
    pos = 0
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        batch = draw(st.integers(min_value=0, max_value=len(order) - pos))
        commit = list(order[pos : pos + batch])
        pos += batch
        fresh = list(order[pos:])
        probes = []
        if fresh:
            probes = draw(st.lists(
                st.lists(st.sampled_from(fresh), unique=True, max_size=4), max_size=4
            ))
        picked = draw(st.permutations(fresh))
        picked = picked[: draw(st.integers(min_value=0, max_value=len(picked)))]
        cuts = sorted(draw(st.lists(
            st.integers(min_value=0, max_value=len(picked)), max_size=4
        )))
        bounds = [0, *cuts, len(picked)]
        steps = [picked[a:b] for a, b in zip(bounds, bounds[1:])]
        rounds.append((commit, probes, steps))
    return graph, rounds


@given(chain_scenarios())
@settings(max_examples=200, deadline=None)
def test_extension_gains_match_probes_and_fresh_solves(scenario):
    graph, rounds = scenario
    oracle = IncrementalMatchingOracle(graph)
    index = oracle.view.left_index
    committed = []
    for commit, probes, steps in rounds:
        oracle.commit(commit)
        committed += commit
        base = max_matching_size(graph, committed)
        assert oracle.matching_size == base
        for probe in probes:
            gain = oracle.gain_indices([index[v] for v in probe])
            assert gain == max_matching_size(graph, committed + probe) - base
        cums = oracle.extension_gains([[index[v] for v in step] for step in steps])
        assert len(cums) == len(steps)
        prefix = []
        for step, cum in zip(steps, cums):
            prefix += step
            assert cum == oracle.gain_indices([index[v] for v in prefix])
            assert cum == max_matching_size(graph, committed + prefix) - base
        assert oracle.matching_size == base  # probes never commit


def test_chain_skips_a_dead_region_exactly():
    # x1 holds y1, the only neighbour of x2: after the commit y1 has no
    # alternating path to a free job, so it is not alive, and x2 (no
    # alive neighbour) is not live.  The chain must still find x3's free
    # neighbour y2 behind the dead y1.
    g = BipartiteGraph(
        ["x1", "x2", "x3"], ["y1", "y2"],
        [("x1", "y1"), ("x2", "y1"), ("x3", "y1"), ("x3", "y2")],
    )
    oracle = IncrementalMatchingOracle(g, committed=["x1"])
    view = oracle.view
    x2, x3 = view.left_index["x2"], view.left_index["x3"]
    assert not oracle._alive[view.right_index["y1"]]
    assert not oracle._live[x2] and oracle._live[x3]
    assert oracle.gain_indices([x2]) == 0
    assert oracle.extension_gains([[x2], [x3]]) == [0, 1]
    assert oracle.gain_indices([x2, x3]) == 1
    assert max_matching_size(g, ["x1", "x2", "x3"]) - max_matching_size(g, ["x1"]) == 1


@st.composite
def step_rounds(draw):
    """A graph, a row of its slots, and rounds of commits.

    A round may first commit a prefix of the row itself (the window of a
    picked candidate), then commits a batch of any slots, and then may
    or may not re-score the row, so the steps a re-score sweeps can be
    several commits old.
    """
    graph = draw(graphs())
    order = draw(st.permutations(sorted(graph.left, key=repr)))
    row = order[: draw(st.integers(min_value=1, max_value=len(order)))]
    rounds = [
        (
            draw(st.integers(min_value=0, max_value=len(row))),
            draw(st.lists(st.sampled_from(order), unique=True, max_size=3)),
            draw(st.booleans()),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    return graph, row, rounds


@given(step_rounds())
@settings(max_examples=300, deadline=None)
def test_sweeping_only_the_old_gain_steps_is_exact(scenario):
    # The schedule-all engine keeps a row as its gain steps, the
    # positions where F(C ∪ row[..j]) − F(C) rises, and re-scores it by
    # sweeping only those.  At every position, the steps swept so far
    # must give the full-window probe's gain, and the steps only shrink.
    graph, row, rounds = scenario
    oracle = IncrementalMatchingOracle(graph)
    ids = [oracle.view.left_index[v] for v in row]

    def rises(cumulative):
        return [j for j, (was, now) in enumerate(zip([0, *cumulative], cumulative))
                if now > was]

    def rescore(steps):
        swept = oracle.extension_gains([[ids[j]] for j in steps])
        full = [oracle.gain_indices(ids[: j + 1]) for j in range(len(ids))]
        gains, k = [], 0
        for j in range(len(ids)):
            while k < len(steps) and steps[k] <= j:
                k += 1
            gains.append(swept[k - 1] if k else 0)
        assert gains == full
        fresh = [s for s, was, now in zip(steps, [0, *swept], swept) if now > was]
        assert fresh == rises(full)
        assert set(fresh) <= set(steps)
        return fresh

    steps = rises([oracle.gain_indices(ids[: j + 1]) for j in range(len(ids))])
    for prefix, batch, again in rounds:
        if prefix:
            # As after a pick in the row: the steps inside the committed
            # window are dropped, and the rest stay a valid bound.
            steps = rescore(steps)
            oracle.commit(row[:prefix])
            steps = [s for s in steps if s >= prefix]
        oracle.commit(batch)
        if again:
            steps = rescore(steps)
    rescore(steps)
