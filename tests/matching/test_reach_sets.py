"""The reach sets ``IncrementalMatchingOracle`` keeps per commit.

After every commit (and before the first), against fresh
Hopcroft–Karp solves of the committed set C:

* ``live[x]`` holds for a fresh slot exactly when
  ``F(C ∪ {x}) − F(C) = 1``;
* ``alive[y]`` holds exactly when some maximum matching of C leaves
  job ``y`` free;
* the committed matching equals a reference that commits the same
  slots in the same order with plain ``kuhn_search`` calls: no skip
  set, a fresh stamp per search.  Skipping dead jobs and slots must
  never change which augmenting path a search finds, which is what
  keeps the greedy's job→slot assignments bit-identical.

Warm-up probes (``gain_indices``, ``extension_gains`` and
``window_gains``) run between commits, so the searches' shared stamps
are in whatever state the probes left them.
"""

from hypothesis import given, settings, strategies as st

from repro.matching.fastgraph import apply_augmenting_path, kuhn_search
from repro.matching.graph import BipartiteGraph
from repro.matching.hopcroft_karp import max_matching_size
from repro.matching.incremental import IncrementalMatchingOracle
from tests.matching.test_extension_gains import graphs


@st.composite
def commit_scenarios(draw):
    """A graph and rounds of (warm-up probes, commit batch).

    Each probe is a random list of slots, committed ones included; it is
    run as a ``gain_indices`` probe, a two-step ``extension_gains`` chain
    and a ``window_gains`` pass.  Each batch commits fresh slots
    (possibly none).
    """
    graph = draw(graphs(max_left=10, max_right=7))
    every = sorted(graph.left, key=repr)
    order = draw(st.permutations(every))
    rounds = []
    pos = 0
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        probes = draw(st.lists(
            st.lists(st.sampled_from(every), unique=True, max_size=5), max_size=3
        ))
        batch = draw(st.integers(min_value=0, max_value=len(order) - pos))
        rounds.append((probes, list(order[pos : pos + batch])))
        pos += batch
    return graph, rounds


def _reference_commit(view, match_l, match_r, new_ids):
    """Commit *new_ids* in order with plain, unskipped Kuhn searches."""
    for i in new_ids:
        if match_l[i] >= 0:
            continue
        parent = [-1] * view.n_right
        free_right = kuhn_search(view, match_r, i, [0] * view.n_right, 1, parent)
        if free_right >= 0:
            apply_augmenting_path(match_l, match_r, free_right, parent)


def _check_reach_sets(oracle, graph, committed):
    view = oracle.view
    base = max_matching_size(graph, committed)
    for x in view.left_ids:
        if x in committed:
            continue
        gain = max_matching_size(graph, committed + [x]) - base
        assert bool(oracle._live[view.left_index[x]]) == (gain == 1), x
    for y in view.right_ids:
        # Some maximum matching of C leaves y free exactly when C
        # matches as many jobs with y deleted as with it.
        without_y = BipartiteGraph(
            graph.left, graph.right - {y},
            [(x, z) for x, z in graph.edges() if z != y],
        )
        free_somewhere = max_matching_size(without_y, committed) == base
        assert bool(oracle._alive[view.right_index[y]]) == free_somewhere, y


@given(commit_scenarios())
@settings(max_examples=200, deadline=None)
def test_reach_sets_and_committed_matching_after_every_commit(scenario):
    graph, rounds = scenario
    oracle = IncrementalMatchingOracle(graph)
    view = oracle.view
    index = view.left_index
    ref_l, ref_r = [-1] * view.n_left, [-1] * view.n_right
    committed = []
    _check_reach_sets(oracle, graph, committed)
    for probes, batch in rounds:
        for probe in probes:
            ids = [index[v] for v in probe]
            oracle.gain_indices(ids)
            oracle.extension_gains([ids[: len(ids) // 2], ids[len(ids) // 2 :]])
            oracle.window_gains(ids)
        oracle.commit(batch)
        committed += batch
        _reference_commit(view, ref_l, ref_r, sorted(index[v] for v in batch))
        _check_reach_sets(oracle, graph, committed)
        assert oracle._match_l == ref_l
        assert oracle.matching_size == max_matching_size(graph, committed)
