"""Theorem 2.2.1 — schedule all jobs at cost O(OPT · log n).

Pipeline (Section 2.2):

1. Build the bipartite reduction graph: slots ``(processor, time)`` on
   the left, jobs on the right, edges given by the jobs' valid sets.
2. The utility ``F(S)`` = maximum matching saturating only slots of S is
   monotone submodular (Lemma 2.2.2).
3. Run the budgeted greedy (Lemma 2.1.2) over the candidate intervals
   with target ``x = n`` and ``eps = 1/(n+1)``; since ``F`` is integer
   valued, utility ``> n - 1`` means all ``n`` jobs are schedulable.
4. Recover the assignment with one final maximum-matching run.

Three interchangeable engines:

``plain``        generic greedy, fresh Hopcroft–Karp per probe;
``lazy``         generic lazy greedy (heap of stale bounds);
``incremental``  specialised loop probing marginal gains by augmenting
                 the committed matching from each interval's new slots —
                 the fastest, and the default.

The incremental engine scores its whole pool first with one *window
pass* per processor: every candidate is a window of the processor's
job-usable slots, and one matching sweep over those slots (Edmonds'
greedy basis of the transversal matroid) gives the gain of every
window at once.  After that it works on *rows*: the candidate intervals
sharing a processor and a start time, nested by end time.  A row is
kept as its *gain steps*, the slots at which its cumulative gain rises,
so a candidate's gain is the number of steps before its end.  Its lazy
heap holds one stale bound per row, and a stale row is re-scored by one
augmentation sweep over its previous steps only: by submodularity the
steps only shrink, and the old ones span the rest of the row.  Its
picks are exactly those of a greedy that re-probes every candidate
every round.

All three realise the same approximation guarantee; E12 measures their
oracle-work difference.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from operator import sub
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.core.budgeted import BudgetedInstance, budgeted_greedy
from repro.core.lazy import lazy_budgeted_greedy
from repro.core.oracle import CachedOracle, CountingOracle
from repro.core.trace import GreedyResult, GreedyStep
from repro.errors import InfeasibleError
from repro.matching.fastgraph import hk_solve, indexed_view
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.incremental import IncrementalMatchingOracle, MatchingUtility
from repro.scheduling.instance import ScheduleInstance
from repro.scheduling.intervals import AwakeInterval
from repro.scheduling.schedule import Schedule

__all__ = ["ScheduleAllResult", "schedule_all_jobs"]


@dataclass
class ScheduleAllResult:
    """Outcome of :func:`schedule_all_jobs` with approximation diagnostics."""

    schedule: Schedule
    greedy: GreedyResult
    oracle_work: int
    method: str

    @property
    def cost(self) -> float:
        return self.greedy.cost

    def approximation_bound(self) -> float:
        """The proven multiplicative bound O(log(n+1)) for this n.

        The constant is 2 (each of the ``log`` phases costs at most 2B).
        Measured ratios are checked against it in
        ``tests/integration/test_guarantees.py`` and printed beside it by
        ``benchmarks/test_e2_schedule_all.py``.
        """
        n_plus_1 = max(2.0, self.greedy.target + 1.0)
        return 2.0 * math.log2(n_plus_1)


def _prepare(
    instance: ScheduleInstance,
    candidates: Optional[Sequence[AwakeInterval]],
):
    """Shared front half: graph, candidate pool, slot map, feasibility."""
    graph = instance.bipartite_graph()
    pool = list(candidates) if candidates is not None else instance.candidates()
    if not pool:
        raise InfeasibleError("no candidate awake intervals available")
    slot_map = instance.interval_slot_map(pool)
    slot_map = {iv: slots for iv, slots in slot_map.items() if slots}
    if not slot_map:
        raise InfeasibleError("no candidate interval covers any job-usable slot")
    costs = {iv: instance.cost_of(iv) for iv in slot_map}
    infinite = [iv for iv, c in costs.items() if math.isinf(c)]
    for iv in infinite:
        del slot_map[iv]
        del costs[iv]
    all_useful: set = set()
    for slots in slot_map.values():
        all_useful |= slots
    n = instance.n_jobs
    if len(hopcroft_karp(graph, all_useful)) < n:
        raise InfeasibleError(
            "no feasible schedule: even with every candidate interval awake, "
            f"only {len(hopcroft_karp(graph, all_useful))} of {n} jobs fit"
        )
    return graph, slot_map, costs


def _extract_schedule(graph, chosen: List[AwakeInterval], selection) -> Schedule:
    matching = hopcroft_karp(graph, selection)
    assignment = {job: slot for slot, job in matching.left_to_right.items()}
    return Schedule(intervals=list(chosen), assignment=assignment)


class _CandidatePool:
    """Index-level candidate pool for the incremental engine.

    Every candidate is a *window* of one processor's job-usable slot
    list: ``procs[p]`` is ``(processor, times, slot ids)``, time-sorted,
    and a candidate owns ``slots[lo:hi]`` of it.  Candidates sharing a
    processor and a start form a *row* — ``rows[r]`` is a ``range`` of
    candidate indices, nested by end — so bisecting ``cand_hi`` over a
    row finds the first candidate that ends past a slot position.
    ``windows[p]`` repeats processor ``p``'s candidates as arrays
    ``(candidate indices, lo, hi - 1)`` for the initial window pass, and
    ``falling`` holds the rows whose price falls somewhere with their
    end.  Everything else is parallel flat lists keyed by a dense
    candidate index; no :class:`AwakeInterval` exists until a candidate
    is picked (:meth:`interval`).
    """

    __slots__ = (
        "procs", "windows", "rows", "row_proc", "row_lo",
        "costs", "cost_array", "cand_row", "cand_hi", "falling", "given",
    )

    def __init__(self):
        self.procs: List[tuple] = []            # p -> (processor, times, slot ids)
        self.windows: List[tuple] = []          # p -> (candidates, lo, hi - 1) arrays
        self.rows: List[range] = []             # row -> candidate indices
        self.row_proc: List[int] = []           # row -> p
        self.row_lo: List[int] = []             # row -> first slot position
        self.costs: List[float] = []            # candidate -> price
        self.cost_array = np.zeros(0)           # the same prices as one float array
        self.cand_row: List[int] = []           # candidate -> row
        self.cand_hi: List[int] = []            # candidate -> slot position past its end
        self.falling: Set[int] = set()          # rows whose price falls somewhere
        self.given: Optional[List[AwakeInterval]] = None  # explicit pools: row -> interval

    def interval(self, c: int) -> AwakeInterval:
        """Candidate *c* as the interval it prices."""
        r = self.cand_row[c]
        if self.given is not None:
            return self.given[r]
        proc, times, _ = self.procs[self.row_proc[r]]
        return AwakeInterval(proc, times[self.row_lo[r]], times[self.cand_hi[c] - 1])


def _proc_time_ids(view) -> Dict:
    """Processor -> ``(processor, job-usable times, their left indices)``."""
    per_proc: Dict = {}
    for (proc, t), idx in view.left_index.items():
        per_proc.setdefault(proc, []).append((t, idx))
    out: Dict = {}
    for proc, entries in per_proc.items():
        entries.sort()
        out[proc] = (proc, [t for t, _ in entries], [idx for _, idx in entries])
    return out


def _build_pool_event_points(instance: ScheduleInstance, view) -> _CandidatePool:
    """Event-point candidate pool, priced and enumerated as arrays.

    Mirrors :func:`~repro.scheduling.intervals.enumerate_candidate_intervals`
    (same processor-major, start-major, end-minor order, same event-time
    endpoints, same infinite-cost filtering) without constructing any
    interval objects.  Per processor with ``k`` event times, the ``k × k``
    span matrix indexes the cost model's length table (a model without
    one is priced through ``float(cost_of(...))`` on the upper
    triangle, as the interval enumeration would); the non-infinite upper
    triangle, in row-major order, is the processor's candidates, and each
    start with any candidate is a row.  A row is ``falling`` when one of
    its candidates costs less than the one before it.
    """
    pool = _CandidatePool()
    per_proc = _proc_time_ids(view)
    horizon = instance.horizon
    priced = [pool.cost_array]
    for proc in instance.processors:
        entry = per_proc.get(proc)
        if entry is None:
            continue
        _, times, slots = entry
        k = len(times)
        at = np.array(times)
        span = at[None, :] - at[:, None]
        upper = span >= 0
        table = instance.cost_model.length_cost_table(proc, horizon)
        if table is not None:
            prices = np.asarray(table, dtype=float)[span]
        else:
            prices = np.full((k, k), math.inf)
            for i in range(k):
                for j in range(i, k):
                    prices[i, j] = float(
                        instance.cost_of(AwakeInterval(proc, times[i], times[j]))
                    )
        lo, end = np.nonzero(upper & ~np.isinf(prices))
        if not len(lo):
            continue
        p = len(pool.procs)
        pool.procs.append(entry)
        first = len(pool.costs)
        pool.windows.append((slice(first, first + len(lo)), lo, end))
        cost = prices[lo, end]
        priced.append(cost)
        pool.costs.extend(cost.tolist())
        pool.cand_hi.extend((end + 1).tolist())
        per_start = np.bincount(lo, minlength=k)
        starts = np.flatnonzero(per_start)
        falls = lo[1:][(cost[1:] < cost[:-1]) & (lo[1:] == lo[:-1])]
        pool.falling.update((len(pool.rows) + np.searchsorted(starts, falls)).tolist())
        bounds = (first + np.concatenate(([0], np.cumsum(per_start[starts])))).tolist()
        for a, b in zip(bounds, bounds[1:]):
            pool.cand_row.extend([len(pool.rows)] * (b - a))  # one shared int per row
            pool.rows.append(range(a, b))
        pool.row_proc.extend([p] * len(starts))
        pool.row_lo.extend(starts.tolist())
    pool.cost_array = np.concatenate(priced)
    return pool


def _build_pool_explicit(
    instance: ScheduleInstance, view, candidates: Sequence[AwakeInterval]
) -> _CandidatePool:
    """Pool for an explicitly given interval list (pool order preserved).

    Each interval becomes the window of its processor's job-usable
    slots between its endpoints (found by bisection) and its own
    single-candidate row; intervals covering no usable slot, or priced
    infinite, are dropped.  Prices are kept exactly as ``cost_of``
    returns them.
    """
    pool = _CandidatePool()
    pool.given = []
    per_proc = _proc_time_ids(view)
    proc_no: Dict = {}
    picks: List[List[tuple]] = []  # p -> (candidate, lo, hi - 1)
    for iv in candidates:
        entry = per_proc.get(iv.processor)
        if entry is None:
            continue
        _, times, _ = entry
        lo = bisect_left(times, iv.start)
        hi = bisect_right(times, iv.end)
        if lo == hi:
            continue
        cost = instance.cost_of(iv)
        if math.isinf(cost):
            continue
        p = proc_no.get(iv.processor)
        if p is None:
            p = proc_no[iv.processor] = len(pool.procs)
            pool.procs.append(entry)
            picks.append([])
        c = len(pool.costs)
        picks[p].append((c, lo, hi - 1))
        pool.rows.append(range(c, c + 1))
        pool.row_proc.append(p)
        pool.row_lo.append(lo)
        pool.given.append(iv)
        pool.costs.append(cost)
        pool.cand_row.append(c)
        pool.cand_hi.append(hi)
    pool.windows = [tuple(np.array(col) for col in zip(*found)) for found in picks]
    pool.cost_array = np.array(pool.costs, dtype=float)
    return pool


def _prepare_indexed(
    instance: ScheduleInstance,
    candidates: Optional[Sequence[AwakeInterval]],
):
    """Index-level front half for the incremental engine.

    Skips the frozenset slot-map churn of :func:`_prepare` entirely:
    the candidate pool lives in flat index arrays
    (:class:`_CandidatePool`), and the feasibility check runs directly
    on the indexed view.  Pool order equals the legacy slot-map order,
    so heap tie-breaking (and hence the pick sequence) is unchanged.
    """
    graph = instance.bipartite_graph()
    view = indexed_view(graph)
    explicit = list(candidates) if candidates is not None else instance._candidates
    if explicit is not None:
        if not explicit:
            raise InfeasibleError("no candidate awake intervals available")
        pool = _build_pool_explicit(instance, view, explicit)
    else:
        pool = _build_pool_event_points(instance, view)
    if not pool.costs:
        raise InfeasibleError("no candidate interval covers any job-usable slot")

    useful_mask = bytearray(view.n_left)
    for (_, _, slots), (_, lo, end) in zip(pool.procs, pool.windows):
        k = len(slots)
        # Windows open at lo and close after end: covered where depth > 0.
        depth = np.bincount(lo, minlength=k + 1) - np.bincount(end + 1, minlength=k + 1)
        for at in np.flatnonzero(np.cumsum(depth)[:k]).tolist():
            useful_mask[slots[at]] = 1
    n = instance.n_jobs
    _, _, reachable = hk_solve(view, useful_mask)
    if reachable < n:
        raise InfeasibleError(
            "no feasible schedule: even with every candidate interval awake, "
            f"only {reachable} of {n} jobs fit"
        )
    return graph, pool


def _incremental_greedy(instance, graph, pool: _CandidatePool) -> tuple[GreedyResult, int, "IncrementalMatchingOracle"]:
    """The specialised greedy: marginal gains via matching augmentation.

    Each row is held as its *gain steps*: the slot positions ``j`` at
    which its cumulative gain ``F(C ∪ slots[lo..j]) − F(C)`` rises, so a
    candidate's gain is the number of steps before its end.  The initial
    pass is one *window pass* per processor: a single
    :meth:`~repro.matching.incremental.IncrementalMatchingOracle.window_gains`
    matching sweep over the processor's usable slots yields the gain of
    every window of them (Edmonds' greedy basis of the transversal
    matroid); the rises along each row of that table are the row's
    steps, and every row's best candidate is found in one array pass.

    After that, scoring is *lazy* (Minoux/CELF).  Because ``F`` is
    submodular, a gain scored at an earlier commit version is an upper
    bound on the current gain.  The max-heap holds one entry per row:
    the stale ``(ratio, gain)`` bound of its best candidate.  Only the
    top row is re-scored, and only at its old steps: for ``C ⊆ C′`` a
    slot spanned by ``C`` and the row's earlier slots stays spanned by
    ``C′`` and them, so the steps only shrink, and the old ones span the
    rest of the row.  One
    :meth:`~repro.matching.incremental.IncrementalMatchingOracle.extension_gains`
    chain of single-slot steps therefore gives the exact gain at every
    end (a one-step row takes a plain
    :meth:`~repro.matching.incremental.IncrementalMatchingOracle.gain_indices`
    probe), and its rises are the new steps.  A commit drops the row's
    steps inside the committed window, which retires the committed
    candidate and its shorter siblings; the rest bound the row's gains
    until it is re-scored.

    A row's candidates with ``g`` steps before their end form its gain
    level ``g``.  Where a row's prices never fall with its end, a
    level's first candidate is its first best, so a push visits one
    candidate per level; a row whose prices fall somewhere scans its
    levels whole.

    Window, chain and per-candidate gains are all matroid ranks, equal
    whatever computes them, so a row that reaches the heap top freshly
    scored holds the exhaustive re-scan's pick: its key is exact and
    every other key bounds its row's best from above.  The heap's
    ``(-ratio, -gain, candidate index)`` ordering reproduces the scan's
    first-strictly-better tie-breaking (lowest pool index wins), so the
    pick sequence, gains and committed matching are those of the scan.
    """
    n = instance.n_jobs
    oracle = IncrementalMatchingOracle(graph)
    chosen: List[AwakeInterval] = []
    greedy_steps: List[GreedyStep] = []
    total_cost = 0.0
    costs, rows, cand_hi, cand_row = pool.costs, pool.rows, pool.cand_hi, pool.cand_row
    proc_slots = [slots for _, _, slots in pool.procs]
    proc_single = [[[x] for x in slots] for slots in proc_slots]  # one-slot chain steps
    row_proc, row_lo, falling = pool.row_proc, pool.row_lo, pool.falling

    # Row -> its gain steps (slot positions, ascending), as of its last
    # scoring; after a commit in the row, a superset of the exact ones.
    row_steps: List[List[int]] = [[] for _ in rows]
    proc_rows: List[List[int]] = [[] for _ in proc_slots]
    for r, p in enumerate(row_proc):
        proc_rows[p].append(r)
    gains = np.zeros(len(costs), dtype=np.int64)
    for slots, (cands, lo, end), rs in zip(proc_slots, pool.windows, proc_rows):
        table = oracle.window_gains(slots)
        gains[cands] = table[lo, end]
        # Table row i rises table[i, -1] times, in the positions that
        # start at offset[i] of ``rises``; a row keeps those up to its
        # last candidate's end.
        rises = (np.flatnonzero(np.diff(table, axis=1, prepend=0)) % len(slots)).tolist()
        offset = np.concatenate(([0], np.cumsum(table[:, -1])))
        first = [row_lo[r] for r in rs]
        last = [cand_hi[rows[r].stop - 1] - 1 for r in rs]
        for r, a, count in zip(rs, offset[first].tolist(), table[first, last].tolist()):
            row_steps[r] = rises[a : a + count]

    # Every row's best candidate: the highest ratio, then the highest
    # gain, then the lowest index.  Heap entries: (-ratio, -gain,
    # candidate index, version), at most one per row, scored at commit
    # ``version``; the candidate index doubles as the tie-breaker (pool
    # order equals the legacy enumeration order).
    price = pool.cost_array
    ratio = np.full(len(costs), np.inf)
    np.divide(gains, price, out=ratio, where=price != 0)
    ratio[gains <= 0] = -1.0
    firsts = np.array([row.start for row in rows])
    row_of = np.repeat(np.arange(len(rows)), np.diff(firsts, append=len(costs)))
    top = ratio == np.maximum.reduceat(ratio, firsts)[row_of]
    top &= gains == np.maximum.reduceat(np.where(top, gains, 0), firsts)[row_of]
    best = np.flatnonzero(top & (gains > 0))
    best = best[np.diff(row_of[best], prepend=-1) != 0]
    heap: List[tuple] = [
        (-q, -float(g), c, oracle.commit_version)
        for q, g, c in zip(ratio[best].tolist(), gains[best].tolist(), best.tolist())
    ]
    heapq.heapify(heap)

    def push_best(r: int, version: int) -> None:
        """Push row *r*'s best candidate under its steps, as of *version*."""
        at = row_steps[r]
        row = rows[r]
        start, stop = row.start, row.stop
        best_ratio, best_gain, best_c = -1.0, 0, -1
        if r in falling:
            # Scan level g whole: candidates level[g - 1] up to level[g].
            level = [bisect_right(cand_hi, s, start, stop) for s in at]
            level.append(stop)
            for gain in range(1, len(level)):
                for c in range(level[gain - 1], level[gain]):
                    cost = costs[c]
                    ratio = math.inf if cost == 0 else gain / cost
                    if ratio > best_ratio or (ratio == best_ratio and gain > best_gain):
                        best_ratio, best_gain, best_c = ratio, gain, c
        else:
            # Level g's first candidate is the first to end past step g
            # (every step lies inside the row's last candidate).  When
            # level g is empty it is a later level's first, under-scored
            # here, so its own level's entry beats this one.
            for gain, s in enumerate(at, 1):
                c = bisect_right(cand_hi, s, start, stop)
                cost = costs[c]
                ratio = math.inf if cost == 0 else gain / cost
                if ratio >= best_ratio:  # a tie goes to the larger gain
                    best_ratio, best_gain, best_c = ratio, gain, c
        if best_c >= 0:
            heapq.heappush(heap, (-best_ratio, -float(best_gain), best_c, version))

    def rescore(r: int) -> None:
        """Re-score row *r* at its steps now; push its best."""
        at = row_steps[r]
        single = proc_single[row_proc[r]]
        if len(at) == 1:
            if not oracle.gain_indices(single[at[0]]):
                row_steps[r] = []
                return
        else:
            now = oracle.extension_gains(list(map(single.__getitem__, at)))
            if now[-1] < len(at):
                at = row_steps[r] = list(compress(at, map(sub, now, [0, *now])))
                if not at:
                    return
        push_best(r, oracle.commit_version)

    while oracle.matching_size < n:
        if not heap:
            raise InfeasibleError(
                f"greedy stalled at {oracle.matching_size}/{n} jobs schedulable"
            )
        _, neg_gain, best_c, version = heapq.heappop(heap)
        r = cand_row[best_c]
        if version != oracle.commit_version:
            rescore(r)
            continue
        hi = cand_hi[best_c]
        oracle.commit_indices(proc_slots[row_proc[r]][row_lo[r] : hi])
        # The row's steps inside the window are committed now; the rest
        # bound its runners-up, stale from now on.
        at = row_steps[r]
        at = row_steps[r] = at[bisect_left(at, hi) :]
        if at:
            push_best(r, version)
        utility = float(oracle.matching_size)
        total_cost += costs[best_c]
        chosen.append(pool.interval(best_c))
        greedy_steps.append(
            GreedyStep(
                index=chosen[-1],
                cost=costs[best_c],
                gain=-neg_gain,
                utility_after=utility,
                cost_after=total_cost,
            )
        )

    result = GreedyResult(
        chosen=chosen,
        selection=oracle.committed,
        utility=float(oracle.matching_size),
        cost=total_cost,
        target=float(n),
        epsilon=1.0 / (n + 1),
        steps=greedy_steps,
    )
    return result, oracle.probe_augmentations, oracle


def schedule_all_jobs(
    instance: ScheduleInstance,
    *,
    method: str = "incremental",
    candidates: Optional[Sequence[AwakeInterval]] = None,
) -> ScheduleAllResult:
    """Schedule every job, minimising power, within O(log n) of optimal.

    Parameters
    ----------
    instance:
        The problem.  Every job must be schedulable using the candidate
        intervals; otherwise :class:`InfeasibleError` (the paper's
        schedule-all problem presumes feasibility).
    method:
        ``"incremental"`` (default), ``"lazy"``, or ``"plain"`` — see
        module docstring.
    candidates:
        Optional explicit candidate-interval pool (defaults to the
        instance's event-point enumeration).
    """
    if instance.n_jobs == 0:
        return ScheduleAllResult(
            schedule=Schedule(),
            greedy=GreedyResult(
                chosen=[], selection=frozenset(), utility=0.0, cost=0.0,
                target=0.0, epsilon=0.5, steps=[],
            ),
            oracle_work=0,
            method=method,
        )

    n = instance.n_jobs

    if method == "incremental":
        graph, pool = _prepare_indexed(instance, candidates)
        greedy_result, work, m_oracle = _incremental_greedy(instance, graph, pool)
        if greedy_result.utility < n - 1e-9:
            raise InfeasibleError(
                f"greedy terminated with utility {greedy_result.utility} < n = {n}"
            )
        # The oracle's committed matching IS a maximum matching of the
        # selection — reuse it instead of a from-scratch Hopcroft–Karp.
        matching = m_oracle.matching
        assignment = {job: slot for slot, job in matching.left_to_right.items()}
        schedule = Schedule(intervals=list(greedy_result.chosen), assignment=assignment)
        schedule.validate(instance, require_all=True)
        return ScheduleAllResult(
            schedule=schedule, greedy=greedy_result, oracle_work=work, method=method
        )

    graph, slot_map, costs = _prepare(instance, candidates)

    if method in ("plain", "lazy"):
        # CachedOracle outermost: the greedys probe its fingerprint-
        # memoised marginal_gain, and only cache *misses* reach the
        # counting layer — work counts actual Hopcroft–Karp solves.
        counting = CountingOracle(MatchingUtility(graph))
        utility = CachedOracle(counting)
        budgeted = BudgetedInstance(utility=utility, subsets=slot_map, costs=costs)
        runner = budgeted_greedy if method == "plain" else lazy_budgeted_greedy
        # eps = 1/(n+1): integer utility > n-1 implies all n jobs fit.
        greedy_result = runner(budgeted, target=float(n), epsilon=1.0 / (n + 1))
        work = counting.calls
    else:
        raise ValueError(f"unknown method {method!r}; use incremental|lazy|plain")

    if greedy_result.utility < n - 1e-9:
        raise InfeasibleError(
            f"greedy terminated with utility {greedy_result.utility} < n = {n}"
        )

    schedule = _extract_schedule(graph, list(greedy_result.chosen), greedy_result.selection)
    schedule.validate(instance, require_all=True)
    return ScheduleAllResult(
        schedule=schedule, greedy=greedy_result, oracle_work=work, method=method
    )
