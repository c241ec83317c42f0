"""The incremental engine's array-built candidate pools equal the loops.

``_build_pool_event_points`` prices each processor's windows through a
span matrix and takes its non-infinite upper triangle in row-major
order; ``_build_pool_explicit`` turns each given interval into a window
of usable slots by bisection.  The per-interval loops below are what
they replaced.  Both builders must reproduce their candidates exactly:
the same order, the same intervals, the same prices (value and type),
the same rows and the same slot windows.
"""

import math
import random

import numpy as np
import pytest

from repro.engine.spec import RunSpec
from repro.engine.tasks.schedule_all import build_schedule_instance
from repro.matching.fastgraph import indexed_view
from repro.scheduling.instance import ScheduleInstance
from repro.scheduling.intervals import AwakeInterval
from repro.scheduling.power import (
    AffineCost,
    PerProcessorRateCost,
    SuperlinearCost,
    TableCost,
    UnavailabilityCost,
)
from repro.scheduling.solver import _build_pool_event_points, _build_pool_explicit


def _per_proc(view):
    per_proc = {}
    for (proc, t), idx in view.left_index.items():
        per_proc.setdefault(proc, []).append((t, idx))
    for entries in per_proc.values():
        entries.sort()
    return per_proc


def reference_event_points(instance, view):
    """The row-by-row loop: (intervals, prices, rows, slot windows)."""
    intervals, prices, rows, windows = [], [], [], []
    per_proc = _per_proc(view)
    for proc in instance.processors:
        entries = per_proc.get(proc)
        if not entries:
            continue
        times = [t for t, _ in entries]
        pid = [idx for _, idx in entries]
        k = len(times)
        table = instance.cost_model.length_cost_table(proc, instance.horizon)
        times_arr = np.array(times)
        for i in range(k):
            if table is not None:
                row_costs = table[times_arr[i:] - times[i]]
            else:
                row_costs = [
                    instance.cost_of(AwakeInterval(proc, times[i], times[j]))
                    for j in range(i, k)
                ]
            row = []
            for rel in range(k - i):
                cost = float(row_costs[rel])
                if math.isinf(cost):
                    continue
                row.append(len(intervals))
                intervals.append(AwakeInterval(proc, times[i], times[i + rel]))
                prices.append(cost)
                windows.append(pid[i : i + rel + 1])
            if row:
                rows.append(row)
    return intervals, prices, rows, windows


def reference_explicit(instance, view, candidates):
    """The per-interval loop over a horizon-long slot array."""
    intervals, prices, rows, windows = [], [], [], []
    by_proc = {}
    for (proc, t), idx in view.left_index.items():
        arr = by_proc.setdefault(proc, np.full(instance.horizon, -1, dtype=np.int64))
        arr[t] = idx
    for iv in candidates:
        arr = by_proc.get(iv.processor)
        if arr is None:
            continue
        ids = arr[iv.start : iv.end + 1]
        ids = ids[ids >= 0]
        if not len(ids):
            continue
        cost = instance.cost_of(iv)
        if math.isinf(cost):
            continue
        rows.append([len(intervals)])
        intervals.append(iv)
        prices.append(cost)
        windows.append(ids.tolist())
    return intervals, prices, rows, windows


def assert_pool_equals(pool, reference):
    intervals, prices, rows, windows = reference
    n = len(intervals)
    assert [pool.interval(c) for c in range(n)] == intervals
    assert len(pool.costs) == n
    for got, want in zip(pool.costs, prices):
        assert type(got) is type(want)
        assert got == want or (math.isnan(got) and math.isnan(want))
    assert [list(r) for r in pool.rows] == rows
    got_windows = []
    for c in range(n):
        r = pool.cand_row[c]
        assert c in pool.rows[r]
        _, _, slots = pool.procs[pool.row_proc[r]]
        got_windows.append(slots[pool.row_lo[r] : pool.cand_hi[c]])
    assert got_windows == windows
    # The window pass reads the same windows through ``pool.windows``.
    seen = []
    for p, (cands, lo, end) in enumerate(pool.windows):
        ids = np.arange(n)[cands]
        assert len(ids) == len(lo) == len(end)
        for c, a, b in zip(ids.tolist(), lo.tolist(), end.tolist()):
            r = pool.cand_row[c]
            assert (pool.row_proc[r], pool.row_lo[r], pool.cand_hi[c]) == (p, a, b + 1)
            seen.append(c)
    assert sorted(seen) == list(range(n))


def seeded(family="multi", seed=0, size=(30, 4, 40)):
    n_jobs, n_proc, horizon = size
    return build_schedule_instance(RunSpec(
        family=family, n_jobs=n_jobs, n_processors=n_proc, horizon=horizon,
        method="incremental", trial=0, seed=seed,
    ))


def with_model(base, model, candidates=None):
    return ScheduleInstance(base.processors, base.jobs, base.horizon, model,
                            candidate_intervals=candidates)


def cost_models(base):
    procs = base.processors
    blocked = [(p, t) for p in procs[:2] for t in range(3, base.horizon, 7)]
    table = {
        AwakeInterval(p, s, e): (s + e) % 5  # ints: the loop floats them
        for p in procs for s in range(0, base.horizon, 3)
        for e in range(s, min(base.horizon, s + 9))
    }
    table[min(table)] = math.nan  # kept: only infinite prices are dropped
    return {
        "affine": AffineCost(2.0, rate=0.5),
        "per_processor": PerProcessorRateCost(
            {p: 0.5 + i for i, p in enumerate(procs)},
            {p: 3.0 - 0.5 * i for i, p in enumerate(procs)},
        ),
        # Table-less, with infinite prices around every blocked slot.
        "unavailable": UnavailabilityCost(SuperlinearCost(1.0, 1.5), blocked),
        "table": TableCost(table),
    }


@pytest.mark.parametrize("model", ["affine", "per_processor", "unavailable", "table"])
@pytest.mark.parametrize("family", ["multi", "bursty_arrivals", "hetero_energy"])
def test_event_point_pool_equals_the_loop(family, model):
    base = seeded(family)
    instance = with_model(base, cost_models(base)[model])
    view = indexed_view(instance.bipartite_graph())
    pool = _build_pool_event_points(instance, view)
    reference = reference_event_points(instance, view)
    assert reference[0], "the reference pool is empty"
    if model in ("unavailable", "table"):
        triangle = sum(len(k) * (len(k) + 1) // 2 for k in _per_proc(view).values())
        assert len(reference[0]) < triangle, "no price was infinite"
    assert_pool_equals(pool, reference)


def test_event_point_pool_of_the_seeded_families_keeps_their_own_models():
    for family in ("multi", "bursty_arrivals", "hetero_energy"):
        instance = seeded(family, seed=3)
        view = indexed_view(instance.bipartite_graph())
        assert_pool_equals(
            _build_pool_event_points(instance, view), reference_event_points(instance, view)
        )


def explicit_candidates(instance, seed):
    rng = random.Random(seed)
    pool = instance.candidates()
    rng.shuffle(pool)  # unsorted
    pool += rng.sample(pool, len(pool) // 5)  # duplicated
    horizon = instance.horizon
    pool += [
        AwakeInterval("nowhere", 0, 3),  # no such processor
        AwakeInterval(instance.processors[0], horizon + 2, horizon + 5),  # past the horizon
    ]
    for proc in instance.processors:  # a time no job can use, where there is one
        usable = {t for job in instance.jobs for p, t in job.slots if p == proc}
        gaps = [t for t in range(horizon) if t not in usable]
        if gaps:
            pool.append(AwakeInterval(proc, gaps[0], gaps[0]))
        pool.append(AwakeInterval(proc, 0, horizon - 1))  # wider than every window
    rng.shuffle(pool)
    return pool


@pytest.mark.parametrize("model", ["affine", "unavailable", "table"])
@pytest.mark.parametrize("seed", range(2))
def test_explicit_pool_equals_the_loop(model, seed):
    base = seeded("bursty_arrivals", seed=seed + 5)
    instance = with_model(base, cost_models(base)[model])
    candidates = explicit_candidates(instance, seed)
    view = indexed_view(instance.bipartite_graph())
    pool = _build_pool_explicit(instance, view, candidates)
    reference = reference_explicit(instance, view, candidates)
    assert len(reference[0]) < len(candidates), "nothing was dropped"
    assert_pool_equals(pool, reference)


def test_explicit_pool_keeps_prices_as_returned():
    # An int price stays an int: the explicit loop kept cost_of's values.
    base = seeded("multi", seed=1)
    proc = base.processors[0]
    iv = AwakeInterval(proc, 0, base.horizon - 1)
    instance = with_model(base, TableCost({iv: 7}))
    pool = _build_pool_explicit(instance, indexed_view(instance.bipartite_graph()), [iv])
    assert pool.costs == [7] and type(pool.costs[0]) is int
    assert pool.interval(0) is iv
