"""Each oracle layer's kernel view, method by method.

A wrapper's ``fast_evaluator`` hands its caller a view of the kernel
below it, and that view is where the wrapper's rule meets the
incremental API:

* ``CountingOracle`` bills one call when the view is built, one per
  ``reset``, ``count`` per counted query (one per candidate or candidate
  set) and nothing per state update (``add``, ``add_set``, ``advance``)
  or ``prepare``;
* ``ArrivalOracle`` refuses every state update and counted query that
  names an unrevealed element with :class:`~repro.errors.OracleError`,
  before anything below it bills;
* ``FaultyOracle`` hits ``oracle.batch`` once per counted query, never
  per state update and never when the view is built, and a fault there
  fires before the counting layer bills.

Every view also returns exactly what the bare kernel returns.  The
table below drives each method through each layer on a coverage kernel.
"""

from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro.core.functions import CoverageFunction
from repro.core.oracle import CountingOracle
from repro.errors import OracleError
from repro.online.driver import ArrivalOracle
from repro.online.faults import FaultInjector, FaultPlan, FaultRule, TransientFault

COVERS = {
    "a": {1, 2}, "b": {2, 3}, "c": {3, 4, 5}, "d": {1, 5},
    "e": {6}, "f": {6, 7}, "h": {8, 9},
}
REVEALED = ("a", "b", "c", "d")
START = ("a",)


class Call(NamedTuple):
    name: str
    run: Callable
    billed: int  # calls billed by the counting layer
    kind: str  # "state" update, counted "query", or "read" (neither)


def _prepared_gains(ev, xs):
    return ev.prepare([xs, [xs[0]], [xs[1]]]).gains([0, 2])


CALLS = (
    Call("reset", lambda ev, xs: ev.reset(xs), 1, "state"),
    Call("add", lambda ev, xs: ev.add(xs[0]), 0, "state"),
    Call("add_set", lambda ev, xs: ev.add_set(xs), 0, "state"),
    Call("advance", lambda ev, xs: ev.advance(xs[0], 7.0), 0, "state"),
    Call("gains", lambda ev, xs: ev.gains(xs), 2, "query"),
    Call("gain1", lambda ev, xs: ev.gain1(xs[0]), 1, "query"),
    Call("union_value1", lambda ev, xs: ev.union_value1(xs[0]), 1, "query"),
    Call("union_values", lambda ev, xs: ev.union_values(xs), 2, "query"),
    Call("set_gains", lambda ev, xs: ev.set_gains([xs, xs[:1], [xs[1]]]), 3, "query"),
    Call("prepare", lambda ev, xs: len(ev.prepare([xs, [xs[0]]])), 0, "read"),
    Call("prepared_gains", _prepared_gains, 2, "query"),
    Call("selection", lambda ev, xs: ev.selection, 0, "read"),
    Call("current_value", lambda ev, xs: ev.current_value, 0, "read"),
)
IDS = [c.name for c in CALLS]


def _started(ev):
    ev.add_set(START)
    return ev


def _observed(ev, call, xs):
    """The call's result plus the state it leaves, comparable with ==."""
    out = call.run(ev, xs)
    if isinstance(out, np.ndarray):
        out = out.tolist()
    return out, ev.selection, ev.current_value


def _counting():
    counting = CountingOracle(CoverageFunction(COVERS))
    return counting, counting


def _arrival():
    counting = CountingOracle(CoverageFunction(COVERS))
    oracle = ArrivalOracle(counting)
    for e in REVEALED:
        oracle.reveal(e)
    return oracle, counting


def _faulty(plan=None):
    counting = CountingOracle(CoverageFunction(COVERS))
    injector = FaultInjector(plan or FaultPlan())
    return injector.wrap_oracle(counting, "t"), counting


LAYERS = {"counting": _counting, "arrival": _arrival, "faulty": _faulty}


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_building_the_view_bills_one_call_and_hits_no_site(layer):
    oracle, counting = LAYERS[layer]()
    ev = oracle.fast_evaluator()
    assert ev is not None and ev.fast
    assert ev.fn is oracle
    assert counting.calls == 1
    if layer == "faulty":
        assert oracle.injector.hits("oracle.batch", "t") == 0


@pytest.mark.parametrize("layer", sorted(LAYERS))
@pytest.mark.parametrize("call", CALLS, ids=IDS)
def test_every_method_forwards_and_bills_its_count(layer, call):
    oracle, counting = LAYERS[layer]()
    ev = _started(oracle.fast_evaluator())
    bare = _started(CoverageFunction(COVERS).fast_evaluator())
    before = counting.calls
    assert _observed(ev, call, ["b", "c"]) == _observed(bare, call, ["b", "c"])
    assert counting.calls - before == call.billed


@pytest.mark.parametrize("call", CALLS, ids=IDS)
def test_arrival_view_refuses_an_unrevealed_element_before_billing(call):
    oracle, counting = _arrival()
    ev = _started(oracle.fast_evaluator())
    before = counting.calls
    if call.kind == "read":
        call.run(ev, ["h", "b"])
        return
    with pytest.raises(OracleError, match="not arrived"):
        call.run(ev, ["h", "b"])
    assert counting.calls == before


@pytest.mark.parametrize("call", CALLS, ids=IDS)
def test_faulty_view_hits_oracle_batch_once_per_query(call):
    oracle, _ = _faulty()
    ev = _started(oracle.fast_evaluator())
    call.run(ev, ["b", "c"])
    assert oracle.injector.hits("oracle.batch", "t") == (call.kind == "query")
    assert oracle.injector.hits("oracle.value", "t") == 0


@pytest.mark.parametrize("call", [c for c in CALLS if c.kind == "query"],
                         ids=[c.name for c in CALLS if c.kind == "query"])
def test_a_fault_at_oracle_batch_fires_before_the_query_bills(call):
    plan = FaultPlan(rules=[FaultRule("oracle.batch", "transient", at=[1])])
    oracle, counting = _faulty(plan)
    ev = _started(oracle.fast_evaluator())
    before = counting.calls
    with pytest.raises(TransientFault):
        call.run(ev, ["b", "c"])
    assert counting.calls == before
