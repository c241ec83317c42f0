"""Array-index bipartite matching kernels.

The public matching API (:mod:`repro.matching.hopcroft_karp`,
:mod:`repro.matching.incremental`) speaks arbitrary hashable vertices —
slots are ``(processor, time)`` tuples, jobs are string ids.  Hashing
those objects and churning dict/frozenset copies dominated the
``schedule_all_jobs`` hot path, so the kernels here work on a one-time
*indexed view* of the graph instead:

* every left/right vertex is assigned a dense ``int`` id (in sorted-repr
  order, which also makes the returned matchings independent of hash
  randomisation);
* adjacency is a contiguous ``list[list[int]]``;
* matchings are flat ``list[int]`` arrays with ``-1`` for unmatched;
* allowed-subset restrictions are byte masks;
* DFS "visited" sets are version-stamped int arrays, so probes reuse one
  buffer instead of allocating a set per augmentation.

The view is built once per :class:`~repro.matching.graph.BipartiteGraph`
(see :func:`indexed_view`) and shared by every solver touching the graph.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.matching.graph import BipartiteGraph, Matching, Vertex

__all__ = [
    "IndexedView",
    "indexed_view",
    "hk_solve",
    "kuhn_augment",
    "kuhn_search",
    "apply_augmenting_path",
]

_INF = float("inf")


class IndexedView:
    """Immutable int-indexed mirror of a :class:`BipartiteGraph`."""

    __slots__ = (
        "graph",
        "left_ids",
        "right_ids",
        "left_index",
        "right_index",
        "adj",
        "n_left",
        "n_right",
    )

    def __init__(self, graph: BipartiteGraph):
        self.graph = graph
        self.left_ids: List[Vertex] = sorted(graph.left, key=repr)
        self.right_ids: List[Vertex] = sorted(graph.right, key=repr)
        self.left_index: Dict[Vertex, int] = {v: i for i, v in enumerate(self.left_ids)}
        self.right_index: Dict[Vertex, int] = {v: i for i, v in enumerate(self.right_ids)}
        raw = graph.adj_left()
        self.adj: List[List[int]] = [
            sorted(self.right_index[v] for v in raw[u]) for u in self.left_ids
        ]
        self.n_left = len(self.left_ids)
        self.n_right = len(self.right_ids)

    # -- conversions ---------------------------------------------------

    def mask_of(self, vertices) -> bytearray:
        """Byte mask over left indices for an iterable of left vertices."""
        mask = bytearray(self.n_left)
        index = self.left_index
        for v in vertices:
            i = index.get(v)
            if i is not None:
                mask[i] = 1
        return mask

    def matching_to_arrays(self, matching: Matching) -> Tuple[List[int], List[int], int]:
        match_l = [-1] * self.n_left
        match_r = [-1] * self.n_right
        for u, v in matching.left_to_right.items():
            i, j = self.left_index[u], self.right_index[v]
            match_l[i] = j
            match_r[j] = i
        return match_l, match_r, len(matching)

    def arrays_to_matching(self, match_l: List[int], out: Optional[Matching] = None) -> Matching:
        matching = out if out is not None else Matching()
        l2r, r2l = matching.left_to_right, matching.right_to_left
        l2r.clear()
        r2l.clear()
        left_ids, right_ids = self.left_ids, self.right_ids
        for i, j in enumerate(match_l):
            if j >= 0:
                u, v = left_ids[i], right_ids[j]
                l2r[u] = v
                r2l[v] = u
        return matching


def indexed_view(graph: BipartiteGraph) -> IndexedView:
    """The (cached) indexed view of *graph*.

    The view is memoised on the graph object: every matcher touching the
    same graph shares one index, so the translation cost is paid once per
    instance rather than once per oracle probe.
    """
    view = getattr(graph, "_indexed_view", None)
    if view is None or view.graph is not graph:
        view = IndexedView(graph)
        graph._indexed_view = view  # type: ignore[attr-defined]
    return view


def hk_solve(
    view: IndexedView,
    allowed: Optional[bytearray] = None,
    match_l: Optional[List[int]] = None,
    match_r: Optional[List[int]] = None,
) -> Tuple[List[int], List[int], int]:
    """Hopcroft–Karp on the indexed view; returns ``(match_l, match_r, size)``.

    ``allowed`` restricts the left side (``None`` = all).  ``match_l`` /
    ``match_r`` warm-start from an existing valid matching confined to
    ``allowed`` (mutated in place).  O(E sqrt(V)) phases of BFS layering
    plus shortest-augmenting-path DFS, all on flat int arrays.
    """
    n_left = view.n_left
    adj = view.adj
    if match_l is None:
        match_l = [-1] * n_left
        match_r = [-1] * view.n_right
    assert match_r is not None

    if allowed is None:
        active = range(n_left)
    else:
        active = [i for i in range(n_left) if allowed[i]]

    dist: List[float] = [_INF] * n_left
    queue: deque = deque()

    def bfs() -> bool:
        queue.clear()
        for u in active:
            if match_l[u] < 0:
                dist[u] = 0.0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            du = dist[u]
            for v in adj[u]:
                w = match_r[v]
                if w < 0:
                    found = True
                elif dist[w] == _INF and (allowed is None or allowed[w]):
                    dist[w] = du + 1.0
                    queue.append(w)
        return found

    # The layered augmenting-path DFS, without recursion: path length is
    # not bounded by the interpreter's recursion limit.  Neighbours are
    # tried in adjacency order and a dead end leaves dist = inf, exactly
    # as in the textbook recursion, so the matching found is the same.
    # The root's own level runs inline (most searches end there, and a
    # stack per root would cost more than the search); ``descend`` walks
    # the deeper levels on an explicit stack.
    def dfs(root: int) -> bool:
        du1 = dist[root] + 1.0
        for v in adj[root]:
            w = match_r[v]
            if w < 0 or (
                dist[w] == du1 and (allowed is None or allowed[w]) and descend(w)
            ):
                match_l[root] = v
                match_r[v] = root
                return True
        dist[root] = _INF
        return False

    def descend(top: int) -> bool:
        path = [top]  # left vertices of the alternating path below the root
        scans = [iter(adj[top])]  # each one's remaining neighbours
        while path:
            u = path[-1]
            du1 = dist[u] + 1.0
            for v in scans[-1]:
                w = match_r[v]
                if w < 0:
                    # Flip the path bottom-up: each vertex takes the edge
                    # below it and hands its old mate, the edge it was
                    # reached by, to the vertex above.
                    for u in reversed(path):
                        prev = match_l[u]
                        match_l[u] = v
                        match_r[v] = u
                        v = prev
                    return True
                if dist[w] == du1 and (allowed is None or allowed[w]):
                    path.append(w)
                    scans.append(iter(adj[w]))
                    break
            else:
                dist[u] = _INF
                path.pop()
                scans.pop()
        return False

    size = sum(1 for u in active if match_l[u] >= 0)
    while bfs():
        for u in active:
            if match_l[u] < 0 and dist[u] == 0.0:
                if dfs(u):
                    size += 1
    return match_l, match_r, size


def kuhn_search(
    view: IndexedView,
    match_r: List[int],
    start: int,
    visited: List[int],
    stamp: int,
    parent: List[int],
    alive: Optional[bytearray] = None,
    trail: Optional[List[int]] = None,
) -> int:
    """Find an augmenting path from free left vertex *start* (no mutation).

    Returns the free right endpoint's index (with ``parent`` holding the
    back-trail for :func:`apply_augmenting_path`) or ``-1``.  ``visited``
    is a right-side int buffer stamped with *stamp*.

    The split from the apply step buys two probe-level optimizations in
    :class:`~repro.matching.incremental.IncrementalMatchingOracle`:

    * a *failed* search leaves the matching untouched, so its stamped
      vertices remain valid dead ends for every later start under the
      same matching — callers reuse the stamp across consecutive
      failures instead of re-exploring the same alternating component
      per start (the classical Kuhn phase trick);
    * probes only pay for matching copies when a search actually
      succeeds (copy-on-success), so gain-0 probes are allocation-free.

    ``alive``, when given, marks the right vertices that have an
    alternating path to a free one under a base matching, and the search
    skips the others.  Those form a closed region without a free vertex,
    which no augmenting path enters; while the caller's matching differs
    from the base only by paths found this way, skipping the region
    never changes the path a search finds.  ``trail``, when given,
    collects the vertices stamped by this search.
    """
    adj = view.adj
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if visited[v] == stamp or (alive is not None and not alive[v]):
                continue
            visited[v] = stamp
            if trail is not None:
                trail.append(v)
            parent[v] = u
            w = match_r[v]
            if w < 0:
                return v
            stack.append(w)
    return -1


def apply_augmenting_path(
    match_l: List[int], match_r: List[int], free_right: int, parent: List[int]
) -> None:
    """Flip the alternating path ending at *free_right* into the matching."""
    v = free_right
    while True:
        u = parent[v]
        prev_v = match_l[u]
        match_l[u] = v
        match_r[v] = u
        if prev_v < 0:
            break
        v = prev_v


def kuhn_augment(
    view: IndexedView,
    match_l: List[int],
    match_r: List[int],
    start: int,
    visited: List[int],
    stamp: int,
    parent: List[int],
) -> bool:
    """One iterative Kuhn augmentation from free left vertex *start*.

    ``visited`` is a right-side int buffer stamped with *stamp* (callers
    bump the stamp instead of clearing the buffer), ``parent`` a right-side
    scratch array recording the left vertex each right vertex was reached
    from.  Intermediate left vertices on alternating paths are matched
    already, hence inside any allowed set the matching is confined to —
    so no allowed mask is needed here; callers restrict *start* instead.

    Returns ``True`` and applies the augmentation in place if a path to a
    free right vertex exists; otherwise leaves the matching untouched.
    """
    free_right = kuhn_search(view, match_r, start, visited, stamp, parent)
    if free_right < 0:
        return False
    apply_augmenting_path(match_l, match_r, free_right, parent)
    return True
