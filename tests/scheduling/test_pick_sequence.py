"""The incremental engine's pick sequence equals an exhaustive-scan greedy.

``schedule_all_jobs(method="incremental")`` scores candidates lazily and
re-scores a row of nested intervals from its gain steps, visiting one
candidate per gain level unless the row's price falls somewhere.  None
of that may change what it picks: the reference below probes every live candidate
afresh each round and takes the highest ``(gain / cost, gain)``, lowest
pool index on ties, skipping NaN ratios.  The two must agree on the
chosen intervals, the per-step gains, the cost and the job → slot
assignment.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.spec import RunSpec
from repro.engine.tasks.schedule_all import build_schedule_instance
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.incremental import IncrementalMatchingOracle
from repro.scheduling.instance import Job, ScheduleInstance
from repro.scheduling.intervals import AwakeInterval
from repro.scheduling.power import AffineCost, TableCost, UnavailabilityCost
from repro.scheduling.solver import schedule_all_jobs
from tests.scheduling.test_property_scheduling import table_instances


def reference_greedy(instance, candidates=None):
    """Budgeted greedy with a full re-scan of the pool every round."""
    pool = list(candidates) if candidates is not None else instance.candidates()
    oracle = IncrementalMatchingOracle(instance.bipartite_graph())
    index = oracle.view.left_index
    mask = oracle.committed_mask
    live = []  # (interval, job-usable slot ids in time order, cost)
    for iv in pool:
        ids = [index[s] for s in ((iv.processor, t) for t in range(iv.start, iv.end + 1))
               if s in index]
        cost = instance.cost_of(iv)
        if ids and not math.isinf(cost):
            live.append((iv, ids, cost))
    chosen, gains, total = [], [], 0.0
    while oracle.matching_size < instance.n_jobs:
        best = None
        for iv, ids, cost in live:
            extra = [i for i in ids if not mask[i]]
            gain = oracle.gain_indices(extra) if extra else 0
            if gain <= 0:
                continue
            ratio = math.inf if cost == 0 else gain / cost
            if math.isnan(ratio):
                continue
            if best is None or (ratio, gain) > best[:2]:
                best = (ratio, gain, iv, extra, cost)
        assert best is not None, "reference greedy stalled"
        _, gain, iv, extra, cost = best
        oracle.commit_indices(extra)
        chosen.append(iv)
        gains.append(float(gain))
        total += cost
    assignment = {job: slot for slot, job in oracle.matching.left_to_right.items()}
    return chosen, gains, total, assignment


def assert_same_picks(instance, candidates=None):
    result = schedule_all_jobs(instance, method="incremental", candidates=candidates)
    chosen, gains, total, assignment = reference_greedy(instance, candidates)
    assert result.greedy.chosen == chosen
    assert [step.gain for step in result.greedy.steps] == gains
    assert result.cost == total
    assert result.schedule.assignment == assignment


def seeded_instance(family, seed, size=(40, 4, 48)):
    n_jobs, n_proc, horizon = size
    return build_schedule_instance(RunSpec(
        family=family, n_jobs=n_jobs, n_processors=n_proc, horizon=horizon,
        method="incremental", trial=0, seed=seed,
    ))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", ["multi", "bursty_arrivals", "hetero_energy"])
def test_seeded_families(family, seed):
    assert_same_picks(seeded_instance(family, seed))


@pytest.mark.parametrize("seed", range(2))
def test_explicit_pool_of_single_candidate_rows(seed):
    # An explicit pool makes every candidate its own row; reversing the
    # event-point order also reverses the tie-breaking by pool index.
    instance = seeded_instance("multi", seed + 10)
    assert_same_picks(instance, candidates=instance.candidates()[::-1])


@pytest.mark.parametrize("seed", range(2))
def test_ties_within_a_row_go_to_the_lowest_index(seed):
    # With a flat price per interval, every longer interval of a row that
    # adds no gain ties its shorter sibling on (ratio, gain).
    base = seeded_instance("multi", seed + 20)
    instance = ScheduleInstance(base.processors, base.jobs, base.horizon,
                                AffineCost(3.0, rate=0.0))
    assert_same_picks(instance)


def test_zero_cost_candidates_have_infinite_ratio():
    # Two free intervals tie on ratio (inf) and are ranked by gain; the
    # priced ones cover the remaining jobs.
    iv = AwakeInterval
    table = {
        iv("p", 0, 1): 0.0, iv("p", 0, 4): 6.0, iv("p", 3, 5): 2.0,
        iv("q", 0, 2): 0.0, iv("q", 2, 5): 4.0, iv("q", 4, 5): 1.5,
    }
    jobs = [
        Job("a", {("p", 0), ("q", 0)}), Job("b", {("p", 1)}), Job("c", {("q", 1), ("q", 2)}),
        Job("d", {("q", 1)}), Job("e", {("p", 4), ("q", 4)}), Job("f", {("p", 5), ("q", 5)}),
        Job("g", {("p", 3)}),
    ]
    instance = ScheduleInstance(["p", "q"], jobs, 6, TableCost(table),
                                candidate_intervals=list(table))
    result = schedule_all_jobs(instance)
    assert {step.index for step in result.greedy.steps[:2]} == {iv("p", 0, 1), iv("q", 0, 2)}
    assert_same_picks(instance)


@given(table_instances(max_intervals=7, max_jobs=4))
@settings(max_examples=60, deadline=None)
def test_table_instances(instance):
    if len(hopcroft_karp(instance.bipartite_graph())) < instance.n_jobs:
        return  # infeasible: schedule_all presumes feasibility
    assert_same_picks(instance)


PRICES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, math.inf])


@st.composite
def event_point_instances(draw, horizon=8):
    """Small instances priced per interval, with no candidate list.

    The engine enumerates every event-point interval itself.  Prices
    come from a ``TableCost`` over a random set of those intervals (0
    and infinity among them) with a finite default, optionally under an
    ``UnavailabilityCost`` with blocked slots; so a row's price may
    fall, tie or turn infinite as its end grows, which is what sends a
    row through the engine's level scan.
    """
    procs = ["p0", "p1"][: draw(st.integers(min_value=1, max_value=2))]
    cells = [(p, t) for p in procs for t in range(horizon)]
    jobs = [
        Job(f"j{j}", frozenset(draw(st.lists(
            st.sampled_from(cells), min_size=1, max_size=3, unique=True
        ))))
        for j in range(draw(st.integers(min_value=1, max_value=5)))
    ]
    times = {p: sorted({t for job in jobs for q, t in job.slots if q == p}) for p in procs}
    spans = [AwakeInterval(p, a, b) for p, ts in times.items()
             for i, a in enumerate(ts) for b in ts[i:]]
    priced = draw(st.lists(st.sampled_from(spans), unique=True))
    model = TableCost({iv: draw(PRICES) for iv in priced},
                      default=draw(PRICES.filter(math.isfinite)))
    if draw(st.booleans()):
        base = model if draw(st.booleans()) else AffineCost(2.0)
        blocked = draw(st.lists(st.sampled_from(cells), max_size=4, unique=True))
        model = UnavailabilityCost(base, blocked)
    return ScheduleInstance(procs, jobs, horizon, model)


@given(event_point_instances())
@settings(max_examples=200, deadline=None)
def test_event_point_instances_with_falling_zero_and_infinite_prices(instance):
    finite = [iv for iv in instance.candidates() if not math.isinf(instance.cost_of(iv))]
    usable = {slot for iv in finite for slot in iv.slots()}
    if len(hopcroft_karp(instance.bipartite_graph(), usable)) < instance.n_jobs:
        return  # infeasible: schedule_all presumes feasibility
    assert_same_picks(instance)
