"""Matching utilities as :class:`SetFunction`s, plus the incremental oracle.

Two layers:

* :class:`MatchingUtility` / :class:`WeightedMatchingUtility` — the
  submodular functions of Lemmas 2.2.2 and 2.3.2 packaged as plain
  value oracles over slot subsets.  These are what the budgeted greedy
  optimises in Theorems 2.2.1 / 2.3.1.

* :class:`IncrementalMatchingOracle` — the performance-critical version
  for the cardinality case.  The greedy asks for ``F(S ∪ I) - F(S)``
  for *every* candidate interval ``I`` each round; recomputing a maximum
  matching from scratch per probe is ``O(m · E·sqrt(V))`` per round.
  Instead we keep the maximum matching ``M`` of the committed slot set
  and evaluate a probe by augmenting a *copy* of ``M`` from the probe's
  new slots only.  Correct because a maximum matching of ``S`` extends
  to a maximum matching of ``S ∪ I`` through augmenting paths (the
  matroid-rank update rule), which is also the engine of the paper's
  Lemma 2.1.1 accounting.  :meth:`~IncrementalMatchingOracle.window_gains`
  goes further: one sweep over a slot list scores *every* window of it,
  by keeping a greedy matroid basis that prefers later slots.

All state lives on the graph's int-indexed view
(:mod:`repro.matching.fastgraph`): the matching is a pair of flat int
arrays, the committed set a byte mask, and a probe costs two
``list.copy()`` calls plus one stamped DFS per new slot — no dict or
frozenset churn on the hot path.  Each commit that gains also
recomputes two exact reach sets of the committed matching (jobs with
an alternating path to a free job, and slots next to one), so every
probe skips a slot that cannot augment in O(1) and every search skips
the jobs that cannot reach a free one.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Mapping

import numpy as np

from repro.core.submodular import SetFunction
from repro.matching.fastgraph import (
    apply_augmenting_path,
    hk_solve,
    indexed_view,
    kuhn_search,
)
from repro.matching.graph import BipartiteGraph, Matching, Vertex
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.weighted import max_weight_matching, weighted_matching_value

__all__ = ["MatchingUtility", "WeightedMatchingUtility", "IncrementalMatchingOracle"]


class MatchingUtility(SetFunction):
    """``F(S) = max-cardinality matching saturating only slots in S``.

    Ground set is the graph's left side.  Stateless; each evaluation
    runs Hopcroft–Karp on the restriction.  Use the incremental oracle
    when evaluating many overlapping subsets.
    """

    def __init__(self, graph: BipartiteGraph):
        self.graph = graph

    @property
    def ground_set(self) -> FrozenSet[Vertex]:
        return self.graph.left

    def value(self, subset: FrozenSet[Vertex]) -> float:
        view = indexed_view(self.graph)
        _, _, size = hk_solve(view, view.mask_of(subset))
        return float(size)


class WeightedMatchingUtility(SetFunction):
    """``F(S) = max job-value matching saturating only slots in S``.

    The prize-collecting utility of Lemma 2.3.2.
    """

    def __init__(self, graph: BipartiteGraph, job_values: Mapping[Vertex, float]):
        self.graph = graph
        self.job_values = {k: float(v) for k, v in job_values.items()}

    @property
    def ground_set(self) -> FrozenSet[Vertex]:
        return self.graph.left

    def value(self, subset: FrozenSet[Vertex]) -> float:
        return weighted_matching_value(self.graph, self.job_values, subset)

    def best_matching(self, subset: Iterable[Vertex]) -> Matching:
        """The optimal matching itself (used to extract the schedule)."""
        return max_weight_matching(self.graph, self.job_values, frozenset(subset))


class IncrementalMatchingOracle(SetFunction):
    """Stateful cardinality-matching oracle with cheap marginal probes.

    The :meth:`value` method satisfies the plain ``SetFunction``
    contract for *any* subset (falling back to a fresh solve when the
    query is not a superset of the committed slots), so this object can
    be dropped anywhere a :class:`MatchingUtility` is expected.  The
    fast path is:

    ``gain(extra)``   marginal cardinality of ``committed | extra``
    ``commit(extra)`` grow the committed set, reusing the matching

    Both run augmentations only from the new slots.  ``commit_version``
    counts commits — it is the selection fingerprint solvers use to
    memoise gains (a gain probed at version ``k`` is stale the moment
    the version changes, and by submodularity only an *upper bound*
    afterwards).

    Between commits the oracle keeps two reach sets of its committed
    matching (see :meth:`_reach`): ``alive``, the jobs with an
    alternating path to a free job, and ``live``, the slots with an
    alive neighbour.  A fresh slot gains exactly when it is live, and
    by submodularity a slot that is not gains nothing over any superset
    either, so every probe skips it after billing its attempt; searches
    skip the jobs that are not alive (see
    :func:`~repro.matching.fastgraph.kuhn_search`).
    """

    def __init__(self, graph: BipartiteGraph, committed: Iterable[Vertex] = ()):  # noqa: D401
        self.graph = graph
        self._view = indexed_view(graph)
        self._committed_mask = bytearray(self._view.n_left)
        self._match_l: List[int] = [-1] * self._view.n_left
        self._match_r: List[int] = [-1] * self._view.n_right
        self._size = 0
        # Right-side scratch buffers shared by every probe: stamped
        # visited array + parent trail (see fastgraph.kuhn_augment).
        self._visited = [0] * self._view.n_right
        self._parent = [-1] * self._view.n_right
        self._stamp = 0
        # Job -> slot adjacency for the reach pass.
        self._slots_of: List[List[int]] = [[] for _ in range(self._view.n_right)]
        for x, jobs in enumerate(self._view.adj):
            for y in jobs:
                self._slots_of[y].append(x)
        self._reach()
        self.probe_augmentations = 0  # instrumentation for E12
        self.commit_version = 0
        if committed:
            self.commit(committed)

    # -- SetFunction interface ---------------------------------------

    @property
    def ground_set(self) -> FrozenSet[Vertex]:
        return self.graph.left

    def value(self, subset: FrozenSet[Vertex]) -> float:
        index = self._view.left_index
        mask = self._committed_mask
        ids = {i for i in (index.get(v) for v in subset) if i is not None}
        covered = sum(1 for i in ids if mask[i])
        if covered == sum(mask):  # subset ⊇ committed: reuse the matching
            return float(self._size + self._sweep((ids,))[0])
        return float(len(hopcroft_karp(self.graph, subset)))

    # -- incremental API ----------------------------------------------

    @property
    def committed(self) -> FrozenSet[Vertex]:
        ids = self._view.left_ids
        mask = self._committed_mask
        return frozenset(ids[i] for i in range(len(mask)) if mask[i])

    @property
    def matching(self) -> Matching:
        """The committed maximum matching, materialised on demand."""
        return self._view.arrays_to_matching(self._match_l)

    @property
    def matching_size(self) -> int:
        """``F(committed)`` without materialising the matching."""
        return self._size

    def _reach(self) -> None:
        """Recompute ``alive`` and ``live`` for the committed matching.

        A job is alive when it is free or its slot has an alive
        neighbour; a slot is live when it has an alive neighbour.  One
        reverse alternating BFS from the free jobs, O(E + jobs): the
        reachability half of the Dulmage–Mendelsohn decomposition.
        """
        match_l, slots_of = self._match_l, self._slots_of
        alive = bytearray(self._view.n_right)
        live = bytearray(self._view.n_left)
        queue = [y for y, x in enumerate(self._match_r) if x < 0]
        for y in queue:
            alive[y] = 1
        for y in queue:  # grows while it is walked
            for x in slots_of[y]:
                live[x] = 1
                mate = match_l[x]
                if mate >= 0 and not alive[mate]:
                    alive[mate] = 1
                    queue.append(mate)
        self._alive, self._live = alive, live

    def _sweep(self, steps) -> List[int]:
        """Cumulative gains along a chain of slot lists (no commit).

        Augments a scratch copy of the matching from each fresh slot of
        ``steps[0]``, then ``steps[1]``, …, recording the running gain
        after each step.  Committed slots are skipped (they add nothing
        and are not counted as attempts), so callers may pass plain
        slices of a slot list.  A fresh slot that is not live counts as
        an attempt and is then skipped without a search.  Three
        probe-level optimizations, all result-preserving:

        * *copy-on-success* — the scratch matching copies are made only
          when the first augmentation succeeds, so gain-0 probes (the
          bulk of end-game CELF re-scores) are allocation-free;
        * *shared failure stamps* — a failed search leaves the matching
          unchanged, so its visited marks stay valid for the next start
          (if a vertex could not reach a free job, it still cannot); the
          stamp is bumped only after a successful augmentation mutates
          the matching.  This caps a k-slot probe's failure cost at one
          exploration of the alternating component instead of k;
        * *free-job early exit* — the gain can never exceed the number
          of unmatched jobs, so the slot loop stops once they are all
          saturated (every later search is a guaranteed failure).
        """
        match_l = self._match_l
        match_r = self._match_r
        mask, live, alive = self._committed_mask, self._live, self._alive
        view = self._view
        visited, parent = self._visited, self._parent
        free_jobs = view.n_right - self._size
        gained = 0
        out: List[int] = []
        self._stamp += 1
        for ids in steps:
            for i in ids:
                if gained >= free_jobs:
                    break
                if mask[i]:
                    continue
                self.probe_augmentations += 1
                if match_l[i] >= 0 or not live[i]:
                    continue
                free_right = kuhn_search(
                    view, match_r, i, visited, self._stamp, parent, alive
                )
                if free_right < 0:
                    continue
                if match_l is self._match_l:  # first success: copy
                    match_l = match_l.copy()
                    match_r = match_r.copy()
                apply_augmenting_path(match_l, match_r, free_right, parent)
                gained += 1
                self._stamp += 1
            out.append(gained)
        return out

    def window_gains(self, slots: List[int]) -> np.ndarray:
        """Gains of every window of one slot list, in one matching pass.

        *slots* holds one processor's job-usable slot ids in time order;
        committed ones may appear and are skipped.  Returns the ``k × k``
        table ``G[i][j] = F(committed ∪ slots[i..j]) − F(committed)``
        (0 below the diagonal).

        Above the committed set ``F`` is the rank function of a
        contracted transversal matroid (Lemma 2.2.2), so Edmonds' greedy
        applies: a scratch copy of the committed matching keeps a basis
        of ``slots[0..j]`` that prefers later slots (its matched fresh
        slots).  Adding ``x_j`` runs one
        :func:`~repro.matching.fastgraph.kuhn_search`.  If it reaches a
        free job, augment (``lo[j] = -1``).  Else, if it reached fresh
        slots of this list (``x_j``'s circuit), take over the earliest,
        ``p``: flip the path to its mate and unmatch it (``lo[j] = p``);
        committed slots belong to the contracted set and are never taken
        over.  Else ``x_j`` is spanned (``lo[j] = j``).  The basis
        restricted to ``slots[i..j]`` then spans that window, so
        ``G[i][j] = #{j' ∈ [i, j] : lo[j'] < i}``, one ``cumsum``.
        Stamps are shared across consecutive rejects (no free job, no
        fresh slot, no change).  A slot that is not live is rejected
        without a search, and searches skip the jobs that are not alive:
        those hold committed slots only, so they never change the
        earliest fresh slot reached.  One ``probe_augmentations`` per
        fresh slot; the oracle's own matching is untouched.
        """
        k = len(slots)
        mask, live, alive = self._committed_mask, self._live, self._alive
        match_l = self._match_l.copy()
        match_r = self._match_r.copy()
        view = self._view
        visited, parent = self._visited, self._parent
        position = {x: p for p, x in enumerate(slots) if not mask[x]}
        lo = list(range(k))  # committed and rejected slots: lo[j] = j
        trail: List[int] = []
        self._stamp += 1
        for j, x in enumerate(slots):
            if mask[x]:
                continue
            self.probe_augmentations += 1
            if not live[x]:
                continue  # rejected: no alive neighbour
            trail.clear()
            free_right = kuhn_search(
                view, match_r, x, visited, self._stamp, parent, alive, trail
            )
            if free_right >= 0:
                apply_augmenting_path(match_l, match_r, free_right, parent)
                lo[j] = -1
            else:
                earliest = j  # the earliest fresh slot the search reached
                for v in trail:
                    p = position.get(match_r[v])
                    if p is not None and p < earliest:
                        earliest = p
                if earliest == j:
                    continue  # rejected: the matching is unchanged
                taken = slots[earliest]
                apply_augmenting_path(match_l, match_r, match_l[taken], parent)
                match_l[taken] = -1
                lo[j] = earliest
            self._stamp += 1
        at = np.arange(k)
        counts = (np.array(lo)[None, :] < at[:, None]) & (at[None, :] >= at[:, None])
        return np.cumsum(counts, axis=1)

    def gain_indices(self, new_ids: List[int]) -> int:
        """Fast-path probe for solvers that pre-translated slots to indices.

        ``F(committed ∪ new_ids) - F(committed)``; committed entries of
        *new_ids* are skipped, so a slice of a slot list will do.
        """
        return self._sweep((new_ids,))[0]

    def extension_gains(self, steps: List[List[int]]) -> List[int]:
        """Cumulative gains along a *nested* chain of slot sets.

        ``steps[j]`` holds the slot indices added at extension ``j``
        (disjoint from earlier steps; committed ones are skipped, so the
        steps may be consecutive slices of one slot list); the return
        value's ``j``-th entry is
        ``F(committed ∪ steps[0..j]) - F(committed)``.

        This is the batched scoring path for candidate pools with
        prefix structure — all awake intervals sharing a processor and
        a start time are nested, so one scratch matching (and one
        shared failure stamp) sweeps the entire row with one
        augmentation attempt per slot, instead of re-augmenting every
        interval from scratch (``O(T)`` attempts per row instead of
        ``O(T)`` per *interval*).  The reported numbers are identical
        to per-interval :meth:`gain_indices` probes: augmenting from
        each new free slot in any order reaches a maximum matching of
        the union (the Lemma 2.1.1 matroid-rank update), so the
        cumulative count is order-independent.

        It serves at any commit version.  The schedule-all greedy scores
        its whole pool once with :meth:`window_gains` (every window of a
        processor's slots in one pass), then, in each lazy (CELF)
        re-score after later commits, sweeps a row's previous gain
        steps through this method, one slot per step; slots that are
        not live (no alive neighbour under the committed matching) cost
        one billed attempt and no search.
        """
        return self._sweep(steps)

    @property
    def committed_mask(self) -> bytearray:
        """Read-only byte mask of committed left indices (do not mutate)."""
        return self._committed_mask

    @property
    def view(self):
        """The shared :class:`~repro.matching.fastgraph.IndexedView`."""
        return self._view

    def gain(self, extra: Iterable[Vertex]) -> int:
        """``F(committed | extra) - F(committed)`` without committing."""
        index = self._view.left_index
        # Index order == sorted-repr order (the view sorts left_ids), so
        # probes stay independent of the caller's set-iteration order.
        new_ids = sorted({i for i in map(index.get, extra) if i is not None})
        return self._sweep((new_ids,))[0]

    def commit(self, extra: Iterable[Vertex]) -> int:
        """Grow the committed slot set; returns the cardinality gained."""
        index = self._view.left_index
        new_ids = []
        mask = self._committed_mask
        for v in extra:
            i = index.get(v)
            if i is not None and not mask[i]:
                mask[i] = 1
                new_ids.append(i)
        # Sorted (== sorted-repr) order keeps the committed matching
        # assignment identical across processes for set-typed callers.
        new_ids.sort()
        return self.commit_indices(new_ids, already_masked=True)

    def commit_indices(self, new_ids: List[int], *, already_masked: bool = False) -> int:
        """Index-level :meth:`commit`; *new_ids* must be fresh indices.

        Uses the same shared-failure-stamp, free-job-exhaustion and
        live-slot shortcuts as the probes (see :meth:`_sweep`); the
        committed matching stays maximum on the committed slot set, and
        a commit that gains recomputes the reach sets.
        """
        mask, live, alive = self._committed_mask, self._live, self._alive
        if not already_masked:
            new_ids = [i for i in new_ids if not mask[i]]
            for i in new_ids:
                mask[i] = 1
        view = self._view
        match_l, match_r = self._match_l, self._match_r
        visited, parent = self._visited, self._parent
        free_jobs = view.n_right - self._size
        gained = 0
        self._stamp += 1
        for i in new_ids:
            if gained >= free_jobs:
                break
            if match_l[i] >= 0 or not live[i]:
                continue
            free_right = kuhn_search(
                view, match_r, i, visited, self._stamp, parent, alive
            )
            if free_right < 0:
                continue
            apply_augmenting_path(match_l, match_r, free_right, parent)
            gained += 1
            self._stamp += 1
        if gained:
            self._size += gained
            self._reach()
        self.commit_version += 1
        return gained

    def reset(self) -> None:
        self._committed_mask = bytearray(self._view.n_left)
        self._match_l = [-1] * self._view.n_left
        self._match_r = [-1] * self._view.n_right
        self._reach()
        self._size = 0
        self.probe_augmentations = 0
        self.commit_version = 0
