"""Regenerate ``golden_serve_reports.json`` — whole serve reports, pinned.

Serves the ``MIXED_FLEET`` of :mod:`tests.online.test_serving` under
every serving mode whose report is deterministic (static with and
without a checkpoint root, a drain plus its resume, and
memory-budgeted serves with and without parking) and captures each
report minus its timing fields.  Unlike the hires-only checks in
``test_serving.py``, the capture pins the serving bookkeeping too:
``max_in_flight``, ``batches``, ``parks``, ``rehydrations``, the
``workload_cache`` stats and the drain states.  Two seeded
transient-fault cells pin per-tenant results and retry schedules only:
backoff sleeps make their interleaving depend on the clock.

:mod:`tests.online.test_serve_golden` replays every cell.  Rerun only
when an *intentional* change to serve reports lands::

    PYTHONPATH=src python -m tests.online.generate_serve_golden
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Callable, Dict

from repro.online.faults import FaultPlan, FaultRule, RetryPolicy
from repro.online.serving import ServingLoop, load_tenant_specs
from tests.online.test_serving import MIXED_FLEET

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden_serve_reports.json"
)

#: Report fields that measure time or name a temporary path.
TIMING_TOTALS = ("wall_seconds", "arrivals_per_second")
TIMING_TENANT = ("checkpoint_path",)
TIMING_REPORT = ("checkpoint_latency",)

#: The per-tenant fields a faulted cell pins.
FAULT_KEYS = (
    "selected", "value", "oracle_calls", "state", "retries", "strikes",
    "retry_delays",
)

#: Hires before the drain cell asks the serve to stop.
DRAIN_AFTER_HIRES = 5


def _specs():
    return load_tenant_specs(MIXED_FLEET)


def _fault_plan() -> FaultPlan:
    retry = RetryPolicy(base_delay=0.0005, max_delay=0.002, jitter=0.1)
    return FaultPlan(seed=7, retry=retry, rules=(
        FaultRule("serve.feed", "transient", scope="mono", at=[1, 2, 4]),
        FaultRule("serve.feed", "transient", scope="sharded", at=[2]),
        FaultRule("oracle.batch", "transient", scope="nonmono", rate=0.1),
        FaultRule("oracle.value", "transient", scope="robust", rate=0.05),
    ))


def _json(value):
    """Round-trip through JSON so tuples and lists compare equal."""
    return json.loads(json.dumps(value, sort_keys=True))


def scrub(report: Dict[str, object]) -> Dict[str, object]:
    """*report* without its timing fields."""
    out = _json(report)
    for key in TIMING_REPORT:
        out.pop(key, None)
    for key in TIMING_TOTALS:
        out["totals"].pop(key, None)
    for tenant in out["tenants"].values():
        for key in TIMING_TENANT:
            tenant.pop(key, None)
    return out


def fault_results(report: Dict[str, object]) -> Dict[str, object]:
    """Per-tenant :data:`FAULT_KEYS` of a faulted serve's *report*."""
    return _json({
        tid: {key: tenant.get(key) for key in FAULT_KEYS}
        for tid, tenant in report["tenants"].items()
    })


def _serve(root, **kwargs) -> Dict[str, object]:
    return ServingLoop(_specs(), checkpoint_root=root, **kwargs).serve()


def _whole(checkpointed: bool = False, **kwargs) -> Callable:
    """A cell capturing one serve's report, minus its timing fields."""
    return lambda root: scrub(_serve(root if checkpointed else None, **kwargs))


def _faulted(checkpointed: bool = False, **kwargs) -> Callable:
    """A cell capturing one faulted serve's per-tenant results."""
    return lambda root: fault_results(_serve(
        root if checkpointed else None, fault_plan=_fault_plan(), **kwargs
    ))


def _drain_then_resume(root: str) -> Dict[str, object]:
    hires = []

    def on_decision(tenant_id, position, element):
        hires.append(tenant_id)
        if len(hires) == DRAIN_AFTER_HIRES:
            loop.request_drain()

    loop = ServingLoop(_specs(), checkpoint_root=root, on_decision=on_decision)
    first = loop.serve()
    resumed = _serve(root, resume=True)
    return {"drain": scrub(first), "resume": scrub(resumed)}


#: Cell name -> ``capture(checkpoint_root)``; every cell gets a fresh,
#: empty directory whether or not it checkpoints.
CELLS: Dict[str, Callable[[str], Dict[str, object]]] = {
    "static": _whole(),
    "static/checkpoint_root": _whole(checkpointed=True),
    "drain_then_resume": _drain_then_resume,
    "budget=1/park_arrivals=10": _whole(True, memory_budget=1,
                                        park_arrivals=10),
    "budget=2/park_arrivals=12": _whole(True, memory_budget=2,
                                        park_arrivals=12),
    "budget=3": _whole(True, memory_budget=3),
    "faults/static": _faulted(),
    "faults/budget=2/park_arrivals=12": _faulted(True, memory_budget=2,
                                                 park_arrivals=12),
}


def capture(name: str) -> Dict[str, object]:
    """Run cell *name* in a fresh checkpoint directory."""
    with tempfile.TemporaryDirectory(prefix="serve-golden-") as tmp:
        return CELLS[name](os.path.join(tmp, "ck"))


def main() -> None:
    golden = {name: capture(name) for name in CELLS}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
