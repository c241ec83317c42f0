"""Hopcroft–Karp maximum-cardinality bipartite matching.

Implemented from scratch (no networkx dependency in library code) with
one extension the scheduling reduction needs: the matching may be
restricted to saturate only an *allowed subset* of left vertices, which
is exactly the ``F(S)`` of Lemma 2.2.2 — "the maximum cardinality
matching that saturates only vertices of S in part X".

The algorithm alternates BFS phases (building a layered graph of
shortest alternating paths from free left vertices) with DFS phases
(extracting a maximal set of vertex-disjoint shortest augmenting
paths); O(E sqrt(V)) overall.  The actual search runs on the graph's
int-indexed view (:mod:`repro.matching.fastgraph`); this module
translates between hashable vertices and dense indices at the API
boundary only.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional

from repro.matching.fastgraph import hk_solve, indexed_view, kuhn_augment
from repro.matching.graph import BipartiteGraph, Matching, Vertex

__all__ = ["hopcroft_karp", "max_matching_size"]


def hopcroft_karp(
    graph: BipartiteGraph,
    allowed_left: Optional[Iterable[Vertex]] = None,
    *,
    seed_matching: Optional[Matching] = None,
) -> Matching:
    """Return a maximum matching saturating only *allowed_left* slots.

    Parameters
    ----------
    graph:
        The bipartite graph.
    allowed_left:
        Left vertices the matching may use.  ``None`` means all of them.
    seed_matching:
        Optional valid partial matching (already confined to
        *allowed_left*) to warm-start from; augmenting paths only ever
        grow a matching, so seeding with the matching of a smaller slot
        set is both correct and the source of the incremental oracle's
        speed.
    """
    view = indexed_view(graph)
    mask = None if allowed_left is None else view.mask_of(allowed_left)
    if seed_matching is not None:
        match_l, match_r, _ = view.matching_to_arrays(seed_matching)
    else:
        match_l = match_r = None
    match_l, match_r, _ = hk_solve(view, mask, match_l, match_r)
    return view.arrays_to_matching(match_l)


def max_matching_size(
    graph: BipartiteGraph, allowed_left: Optional[Iterable[Vertex]] = None
) -> int:
    """``F(S)`` of Lemma 2.2.2: maximum matching cardinality using slots S."""
    view = indexed_view(graph)
    mask = None if allowed_left is None else view.mask_of(allowed_left)
    _, _, size = hk_solve(view, mask)
    return size


def augment_from_left(
    graph: BipartiteGraph,
    matching: Matching,
    start: Vertex,
    allowed: FrozenSet[Vertex],
) -> bool:
    """Try one Kuhn augmentation from free left vertex *start*; in-place.

    Iterative alternating-path DFS (explicit stack, so deep paths cannot
    hit the recursion limit).  All intermediate left vertices on the path
    are matched already and therefore inside *allowed*; *start* itself
    must be in *allowed*, which this wrapper checks.

    Returns ``True`` and applies the augmentation if a path to a free
    right vertex exists; otherwise leaves *matching* untouched.
    """
    if start in matching.left_to_right or start not in allowed:
        return False
    view = indexed_view(graph)
    start_idx = view.left_index.get(start)
    if start_idx is None:
        return False
    match_l, match_r, _ = view.matching_to_arrays(matching)
    visited = [0] * view.n_right
    parent = [-1] * view.n_right
    if not kuhn_augment(view, match_l, match_r, start_idx, visited, 1, parent):
        return False
    view.arrays_to_matching(match_l, out=matching)
    return True
