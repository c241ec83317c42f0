"""A resume does no O(n) rebuild of the stream or the kernel index.

:func:`~repro.online.arrivals.build_arrival_source` memoises what it
builds for an integer seed on the utility, so a budgeted serve builds
each tenant's schedule once however often the tenant parks and
rehydrates; the memo dies with the utility (the ``WorkloadCache``
entry); a native source of another type is built afresh on every call;
the ground-set check still rejects a foreign utility; and every
kernel evaluator of one function shares one element-index map.
"""

import gc
import json
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.core.functions import (
    AdditiveFunction,
    BudgetAdditiveFunction,
    CoverageFunction,
    CutFunction,
    FacilityLocationFunction,
    WeightedCoverageFunction,
)
from repro.errors import InvalidInstanceError
from repro.online import arrivals
from repro.online.arrivals import build_arrival_schedule, build_arrival_source
from repro.online.driver import OnlineRun
from repro.online.policies import SegmentedSubmodularPolicy
from repro.online.serving import ServingLoop, load_tenant_specs
from repro.online.session import WorkloadCache, resume_session, start_session
from repro.online.sharding import ShardView

FLEET = {
    "defaults": {"policy": "monotone", "family": "coverage", "n": 60, "k": 3},
    "tenants": [
        {"id": "uni", "seed": 41, "process": "uniform"},
        {"id": "bur", "seed": 42, "process": "bursty",
         "process_params": {"mean_batch": 3}},
        {"id": "poi", "seed": 43, "process": "poisson"},
        {"id": "rob", "seed": 44, "process": "uniform", "policy": "robust"},
    ],
}


def _budgeted_serve(tmp_path, cache=None):
    loop = ServingLoop(
        load_tenant_specs(FLEET), checkpoint_root=str(tmp_path / "ck"),
        memory_budget=1, park_arrivals=7, workload_cache=cache,
    )
    return loop.serve()


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_budgeted_serve_builds_each_schedule_once(tmp_path, monkeypatch):
    calls = Counter()
    monkeypatch.setattr(arrivals, "_uniform_order",
                        _counting(calls, "order", arrivals._uniform_order))
    for process in ("uniform", "poisson"):
        monkeypatch.setitem(
            arrivals.ARRIVAL_PROCESSES, process,
            _counting(calls, process, arrivals.ARRIVAL_PROCESSES[process]),
        )
    monkeypatch.setitem(
        arrivals.ARRIVAL_SOURCES, "bursty",
        _counting(calls, "bursty", arrivals.ARRIVAL_SOURCES["bursty"]),
    )
    report = _budgeted_serve(tmp_path)
    assert all(t["finished"] for t in report["tenants"].values())
    # Every tenant parked and came back many times...
    assert min(t["rehydrations"] for t in report["tenants"].values()) >= 5
    # ...yet each tenant's stream was built exactly once.
    assert calls == {"order": 4, "uniform": 2, "poisson": 1, "bursty": 1}


def test_memoised_streams_are_not_mutated_by_a_serve(tmp_path):
    cache = WorkloadCache()
    _budgeted_serve(tmp_path, cache)
    memoised = set()
    for fn, _, _ in cache._entries.values():
        for key, pristine in fn.__dict__["_arrival_sources"].items():
            process, _, seed, params = key
            fresh = build_arrival_schedule(process, fn, seed, **json.loads(params))
            assert pristine.cursor == 0
            assert pristine.materialize() == fresh
            clone = pristine._clone()
            while clone.take(None) is not None:
                pass
            assert clone.fingerprint() == fresh.fingerprint()
            memoised.add(id(pristine))
    assert len(memoised) == len(FLEET["tenants"])


def test_memo_is_freed_with_the_workload_cache():
    kwargs = dict(policy="monotone", family="coverage", n=40, k=3, seed=9,
                  process="uniform")
    cache = WorkloadCache()
    session = start_session(**kwargs, workload_cache=cache).advance(10)
    schedule = session.run.source.materialize()
    resumed = resume_session(session.checkpoint(), workload_cache=cache)
    assert resumed.run.source.materialize() is schedule
    alive = weakref.ref(schedule)
    del session, resumed, schedule
    gc.collect()
    assert alive() is not None  # the cache entry still owns it
    del cache
    gc.collect()
    assert alive() is None


def test_foreign_ground_set_still_rejected():
    fn = CoverageFunction({f"e{i}": {i, i + 1} for i in range(12)})
    other = CoverageFunction({f"e{i}": {i} for i in range(13)})
    OnlineRun(fn, build_arrival_source("uniform", fn, 5),
              SegmentedSubmodularPolicy(2))
    memoised = build_arrival_source("uniform", fn, 5)
    assert memoised.order is build_arrival_source("uniform", fn, 5).order
    with pytest.raises(InvalidInstanceError, match="ground set"):
        OnlineRun(other, memoised, SegmentedSubmodularPolicy(2))
    shard = ShardView(fn, sorted(fn.ground_set)[:-1])
    with pytest.raises(InvalidInstanceError, match="ground set"):
        OnlineRun(shard, build_arrival_source("uniform", fn, 5),
                  SegmentedSubmodularPolicy(2))
    OnlineRun(fn, build_arrival_source("uniform", fn, 5),
              SegmentedSubmodularPolicy(2))


def test_clones_have_their_own_stream_state():
    fn = AdditiveFunction({f"e{i}": float(i) for i in range(30)})
    first = build_arrival_source("bursty", fn, 3, mean_batch=4.0)
    while first.take(None) is not None:
        pass
    second = build_arrival_source("bursty", fn, 3, mean_batch=4.0)
    assert second.cursor == 0 and second.order is first.order
    while second.take(None) is not None:
        pass
    assert second.fingerprint() == first.fingerprint()
    second.params["mean_batch"] = 9.0
    assert build_arrival_source("bursty", fn, 3, mean_batch=4.0).params == {
        "mean_batch": 4.0}


class _IteratorSource(arrivals.ArrivalSource):
    """A native source that keeps its own iterator, which a shallow
    clone would share with the source it was copied from."""

    def __init__(self, utility, seed):
        order = sorted(utility.ground_set)
        super().__init__("iterating", seed, {}, len(order))
        self._it = iter(order)

    def _emit(self, limit):
        element = next(self._it, None)
        return None if element is None else ([element], None, True)


def test_other_native_source_types_are_built_afresh(monkeypatch):
    monkeypatch.setitem(arrivals.ARRIVAL_SOURCES, "iterating", _IteratorSource)
    fn = AdditiveFunction({f"e{i}": float(i) for i in range(5)})
    first = build_arrival_source("iterating", fn, 1)
    assert [first.take(None)[1] for _ in range(3)] == [["e0"], ["e1"], ["e2"]]
    second = build_arrival_source("iterating", fn, 1)
    assert second._it is not first._it
    assert [step[1] for step in second.batches()] == [
        [f"e{i}"] for i in range(5)]
    assert first.take(None)[1] == ["e3"]
    assert "_arrival_sources" not in fn.__dict__ or not any(
        isinstance(s, _IteratorSource)
        for s in fn.__dict__["_arrival_sources"].values())


def _mapping_built():
    rng = np.random.default_rng(0)
    names = [f"x{i}" for i in range(8)]
    covers = {e: {int(u) for u in rng.integers(0, 10, size=3)} for e in names}
    values = {e: float(i + 1) for i, e in enumerate(names)}
    edges = [(names[i], names[(i + 1) % 8], 1.0 + i) for i in range(8)]
    return [
        CoverageFunction(covers),
        WeightedCoverageFunction(covers, {u: 2.0 for u in range(10)}),
        AdditiveFunction(values),
        BudgetAdditiveFunction(values, 10.0),
        CutFunction(names, edges),
        FacilityLocationFunction(names, rng.random((5, 8))),
    ]


@pytest.mark.parametrize("fn", _mapping_built(), ids=lambda f: type(f).__name__)
def test_evaluators_of_one_function_share_one_index(fn):
    backends = ("dense", "sparse")
    evs = [fn.incremental_evaluator(backend=b) for b in backends for _ in (0, 1)]
    index = evs[0]._index
    assert index is not None and all(ev._index is index for ev in evs)
    assert sorted(index.values()) == list(range(len(fn.ground_set)))
    picked = sorted(fn.ground_set)[:3]
    evs[1].reset(picked)
    assert evs[1]._index is index
    assert evs[1].current_value == pytest.approx(fn.value(frozenset(picked)))


@pytest.mark.parametrize("fn", [
    AdditiveFunction.from_arrays(np.arange(6.0)),
    CoverageFunction.from_arrays([0, 1, 3, 4], [0, 1, 2, 0]),
    CutFunction.from_arrays(4, [0, 1], [1, 2], [1.0, 2.0]),
], ids=lambda f: type(f).__name__)
def test_array_built_functions_build_no_index(fn):
    for backend in ("dense", "sparse"):
        ev = fn.incremental_evaluator(backend=backend)
        assert ev._index is None
        ev.reset([0, 1])
        assert ev._index is None
