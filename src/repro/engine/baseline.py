"""``repro bench`` — curated suites, reports, and the perf-regression gate.

Every registered task contributes cells to a curated suite per profile:

``smoke``
    Seconds; what the test suite exercises end to end.
``quick``
    Tens of seconds inline; what CI's ``bench-gate`` job runs on every
    push against the committed baseline.
``full``
    Minutes; the number EXPERIMENTS.md-scale regressions are judged by.

A bench run produces a machine-readable report (``BENCH_<profile>.json``)
keyed by cell id ``task/family/NxPxH/method`` with per-cell mean cost,
utility, oracle work, and wall time plus the sorted instance
fingerprints — enough to distinguish "the solver got slower" from "the
workload generator changed" at comparison time.

:func:`compare_reports` checks a measured report against a committed
baseline with per-metric tolerances:

* **fingerprints** and the **suite fingerprint** must match exactly
  (instance-generation / suite-definition drift fails loudly);
* **cost** and **utility** are deterministic, so any relative drift
  beyond ``1e-6`` fails in *either* direction — a solver change that
  alters solutions must be accompanied by a baseline regeneration;
* **oracle work** may improve freely but may not grow more than 10 %;
* **wall time** may not exceed ``1.8 x max(baseline, 0.1 s)`` — the
  absolute floor keeps millisecond cells from flapping on noisy or
  slower CI runners (those cells are still gated by the deterministic
  metrics above) while catching the 2x regressions the gate exists for
  on any cell whose baseline is at least the floor.

Wall times are in *reference seconds*, as in ``perfbench``: each sweep
sits between two samples of a fixed pure-Python loop, and its clock
seconds are scaled by ``SPEED_REF_S`` over their mean.  A host that
runs everything slower (a busy shared VM, a slower CI runner) then
reads about the same; a slower program still reads slower.

Baselines live in ``benchmarks/baselines/`` and are regenerated with
``repro bench --profile <p> --update-baseline`` (see README).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Tuple

from repro.analysis.tables import format_delta, format_table
from repro.engine.hashing import spec_fingerprint
from repro.engine.runner import run_sweep
from repro.engine.spec import SweepSpec
from repro.errors import InvalidInstanceError
from repro.io import read_json

__all__ = [
    "BENCH_FORMAT",
    "PROFILES",
    "Regression",
    "Tolerances",
    "compare_reports",
    "default_baseline_path",
    "load_report",
    "regression_table",
    "run_bench",
    "write_report",
]

BENCH_FORMAT = "repro-bench/1"

#: The speed sample's loop length, and the seconds it takes on the
#: reference host (the same loop and figure as ``perfbench``).
SPEED_LOOPS = 60_000
SPEED_REF_S = 0.005

_PRIZE_PARAMS = (
    ("epsilon", 0.25),
    ("n_candidate_intervals", 12),
    ("target_fraction", 0.6),
    ("value_spread", 4.0),
)

PROFILES: Dict[str, Tuple[SweepSpec, ...]] = {
    "smoke": (
        SweepSpec(task="schedule_all", families=("multi",), grid=((8, 2, 16),),
                  methods=("incremental",), trials=1),
        SweepSpec(task="prize_collecting", families=("certifiable",), grid=((6, 2, 12),),
                  methods=("lazy",), trials=1, params=(("n_candidate_intervals", 10),)),
        SweepSpec(task="secretary", families=("additive",), grid=((30, 3, 0),),
                  methods=("monotone",), trials=1),
        SweepSpec(task="knapsack_secretary", families=("additive",), grid=((20, 2, 0),),
                  methods=("online",), trials=1),
    ),
    "quick": (
        SweepSpec(task="schedule_all", families=("multi", "bursty"),
                  grid=((12, 3, 24), (20, 3, 32)), methods=("incremental",), trials=2),
        SweepSpec(task="schedule_all", families=("multi",), grid=((15, 3, 24),),
                  methods=("plain", "lazy", "incremental"), trials=2),
        SweepSpec(task="prize_collecting", families=("certifiable",), grid=((7, 2, 16),),
                  methods=("lazy", "exact"), trials=2, params=_PRIZE_PARAMS),
        SweepSpec(task="secretary", families=("additive", "coverage"),
                  grid=((60, 4, 0),), methods=("monotone", "classical"), trials=2),
        SweepSpec(task="secretary", families=("cut",), grid=((40, 4, 0),),
                  methods=("nonmonotone", "robust"), trials=2),
        SweepSpec(task="knapsack_secretary", families=("additive",),
                  grid=((40, 2, 0), (40, 4, 0)), methods=("online",), trials=2),
        # Non-uniform arrival orders through the online runtime: an
        # adversarial deterministic order, bursty minibatch delivery
        # (exercising the vectorized batch driver), and the
        # nearly-sorted sliding-window replay.
        SweepSpec(task="secretary", families=("additive@sorted_desc", "coverage@bursty"),
                  grid=((60, 4, 0),), methods=("monotone",), trials=2),
        SweepSpec(task="knapsack_secretary", families=("additive@sliding_window",),
                  grid=((40, 2, 0),), methods=("online",), trials=2),
        # Sharded runtime: the same coverage@bursty cell split across
        # two policy replicas + merge, recording multi-shard wall time
        # against the single-shard cell above.
        SweepSpec(task="secretary", families=("coverage@bursty#2",),
                  grid=((60, 4, 0),), methods=("monotone",), trials=2),
    ),
    "full": (
        SweepSpec(task="schedule_all",
                  families=("multi", "bursty", "bursty_arrivals", "hetero_energy"),
                  grid=((20, 3, 32), (40, 4, 48)),
                  methods=("incremental",), trials=3),
        SweepSpec(task="schedule_all", families=("multi", "hetero_energy"),
                  grid=((60, 5, 80),), methods=("incremental",), trials=3),
        SweepSpec(task="schedule_all", families=("multi",), grid=((50, 4, 60),),
                  methods=("plain", "lazy", "incremental"), trials=3),
        SweepSpec(task="prize_collecting", families=("certifiable",),
                  grid=((7, 2, 16), (8, 2, 18)), methods=("lazy", "plain", "exact"),
                  trials=5, params=_PRIZE_PARAMS),
        SweepSpec(task="secretary", families=("additive", "coverage", "facility"),
                  grid=((150, 6, 0), (400, 8, 0)),
                  methods=("monotone", "classical", "robust"), trials=3),
        SweepSpec(task="secretary", families=("cut",), grid=((150, 8, 0),),
                  methods=("nonmonotone",), trials=3),
        SweepSpec(task="knapsack_secretary", families=("additive",),
                  grid=((120, 1, 0), (120, 2, 0), (120, 4, 0)), methods=("online",),
                  trials=5),
        # Arrival-process sweep at experiment scale: every non-uniform
        # process on one coverage cell (monotone hires under adversarial,
        # bursty, Poisson-tick, and nearly-sorted orders), plus the
        # bursty batch-driver path on a large facility stream.
        SweepSpec(task="secretary",
                  families=("coverage@sorted_desc", "coverage@sorted_asc",
                            "coverage@bursty", "coverage@poisson",
                            "coverage@sliding_window"),
                  grid=((150, 6, 0),), methods=("monotone",), trials=3),
        SweepSpec(task="secretary", families=("facility@bursty",),
                  grid=((400, 8, 0),), methods=("monotone",), trials=2),
        SweepSpec(task="knapsack_secretary",
                  families=("additive@bursty", "additive@sorted_desc"),
                  grid=((120, 2, 0),), methods=("online",), trials=3),
        # Sharded runtime at experiment scale: the coverage@bursty and
        # additive@bursty cells above re-run at S=2 and S=4 (secretary)
        # and S=2 (knapsack), so throughput scaling of the shard axis is
        # recorded against the matching single-shard baselines.
        SweepSpec(task="secretary",
                  families=("coverage@bursty#2", "coverage@bursty#4"),
                  grid=((150, 6, 0),), methods=("monotone",), trials=3),
        SweepSpec(task="knapsack_secretary", families=("additive@bursty#2",),
                  grid=((120, 2, 0),), methods=("online",), trials=3),
        # Production-scale cells, tractable only with the vectorized
        # incremental oracle kernels (PR 3): a 200-job/8-processor
        # scheduling floor, multi-thousand-arrival secretary streams,
        # and a knapsack stream whose offline estimate alone is ~n^2
        # oracle evaluations naively.
        SweepSpec(task="schedule_all", families=("hetero_energy", "bursty_arrivals"),
                  grid=((200, 8, 96),), methods=("incremental",), trials=2),
        SweepSpec(task="secretary", families=("coverage", "facility"),
                  grid=((2000, 8, 400),), methods=("monotone",), trials=2),
        SweepSpec(task="knapsack_secretary", families=("additive",),
                  grid=((1500, 2, 0),), methods=("online",), trials=3),
    ),
}


@dataclass(frozen=True)
class Tolerances:
    """Per-metric regression tolerances (see module docstring)."""

    cost_rtol: float = 1e-6
    utility_rtol: float = 1e-6
    oracle_factor: float = 1.10
    wall_factor: float = 1.8
    wall_floor: float = 0.1


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class Regression:
    """One comparison finding; only ``severity == "fail"`` gates CI."""

    cell: str
    metric: str
    baseline: float
    measured: float
    limit: float
    severity: str = "fail"
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell": self.cell, "metric": self.metric, "baseline": self.baseline,
            "measured": self.measured, "limit": self.limit,
            "severity": self.severity, "note": self.note,
        }


def _cell_id(record) -> str:
    return (
        f"{record.task}/{record.family}/"
        f"{record.n_jobs}x{record.n_processors}x{record.horizon}/{record.method}"
    )


def suite_for(profile: str) -> Tuple[SweepSpec, ...]:
    """The curated sweep list for *profile* (raises on unknown names)."""
    suite = PROFILES.get(profile)
    if suite is None:
        raise InvalidInstanceError(
            f"unknown bench profile {profile!r}; known: {sorted(PROFILES)}"
        )
    return suite


def _speed_sample() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(SPEED_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_bench(profile: str, *, workers: int = 0, warmup: bool = True) -> Dict[str, Any]:
    """Run the profile's suite across all tasks; return the report dict.

    Deliberately cache-free: a result cache would replay pre-change
    metrics on cache hits and silently defeat the regression gate.

    *warmup* first runs each task's smoke cell untimed, so the first
    timed cell does not absorb one-off interpreter costs (numpy/BLAS
    initialisation, lazily built kernel machinery) — on millisecond
    cells that cold-start hit used to dominate the mean.  The warmup
    runs inline, so it covers the ``workers=0`` mode baselines and CI
    use; pool workers (``workers>1``) are fresh processes and still pay
    their own first-cell cost.
    """
    suite = suite_for(profile)
    if warmup:
        tasks = {sweep.task for sweep in suite}
        for sweep in PROFILES["smoke"]:
            if sweep.task in tasks:
                run_sweep(sweep, workers=0)
    groups: Dict[str, List] = {}
    for sweep in suite:
        before = _speed_sample()
        result = run_sweep(sweep, workers=workers)
        scale = 2 * SPEED_REF_S / (before + _speed_sample())  # to reference s
        for record in result.records:
            record = replace(record, wall_time=record.wall_time * scale)
            groups.setdefault(_cell_id(record), []).append(record)
    cells: Dict[str, Any] = {}
    for cid in sorted(groups):
        records = groups[cid]
        n = len(records)
        cells[cid] = {
            "trials": n,
            "mean_cost": sum(r.cost for r in records) / n,
            "mean_utility": sum(r.utility for r in records) / n,
            "mean_oracle_work": sum(r.oracle_work for r in records) / n,
            "mean_wall_time": sum(r.wall_time for r in records) / n,
            "fingerprints": sorted({r.fingerprint for r in records}),
        }
    return {
        "format": BENCH_FORMAT,
        "profile": profile,
        "suite_fingerprint": spec_fingerprint([s.to_dict() for s in suite]),
        "cells": cells,
    }


def compare_reports(
    measured: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> List[Regression]:
    """All findings from checking *measured* against *baseline*.

    CI gates on the ``fail`` findings (:func:`has_failures`); ``info``
    findings (new cells not yet in the baseline) are surfaced so a
    forgotten baseline regeneration is visible without blocking.
    """
    findings: List[Regression] = []
    if measured.get("profile") != baseline.get("profile"):
        findings.append(Regression(
            cell="<report>", metric="profile", baseline=0.0, measured=0.0,
            note=f"profile mismatch: measured {measured.get('profile')!r} "
                 f"vs baseline {baseline.get('profile')!r}", limit=0.0,
        ))
        return findings
    if measured.get("suite_fingerprint") != baseline.get("suite_fingerprint"):
        findings.append(Regression(
            cell="<report>", metric="suite_fingerprint", baseline=0.0,
            measured=0.0, limit=0.0,
            note="bench suite definition changed; regenerate the baseline "
                 "with repro bench --update-baseline",
        ))

    m_cells = measured.get("cells", {})
    b_cells = baseline.get("cells", {})
    for cid, b in b_cells.items():
        m = m_cells.get(cid)
        if m is None:
            findings.append(Regression(
                cell=cid, metric="presence", baseline=1.0, measured=0.0,
                limit=1.0, note="cell missing from measured report",
            ))
            continue
        if m.get("fingerprints") != b.get("fingerprints"):
            findings.append(Regression(
                cell=cid, metric="fingerprints", baseline=0.0, measured=0.0,
                limit=0.0, note="instance fingerprints changed "
                                "(workload generation drift)",
            ))
        for metric, rtol in (("mean_cost", tolerances.cost_rtol),
                             ("mean_utility", tolerances.utility_rtol)):
            bv, mv = float(b[metric]), float(m[metric])
            limit = rtol * max(abs(bv), 1e-12)
            if abs(mv - bv) > limit:
                findings.append(Regression(
                    cell=cid, metric=metric, baseline=bv, measured=mv,
                    limit=limit, note="deterministic metric drifted",
                ))
        bv, mv = float(b["mean_oracle_work"]), float(m["mean_oracle_work"])
        limit = tolerances.oracle_factor * bv + 1e-9
        if mv > limit:
            findings.append(Regression(
                cell=cid, metric="mean_oracle_work", baseline=bv, measured=mv,
                limit=limit, note="oracle-call count regressed",
            ))
        bv, mv = float(b["mean_wall_time"]), float(m["mean_wall_time"])
        limit = tolerances.wall_factor * max(bv, tolerances.wall_floor)
        if mv > limit:
            findings.append(Regression(
                cell=cid, metric="mean_wall_time", baseline=bv, measured=mv,
                limit=limit, note="wall time regressed",
            ))
    for cid in m_cells:
        if cid not in b_cells:
            findings.append(Regression(
                cell=cid, metric="presence", baseline=0.0, measured=1.0,
                limit=0.0, severity="info",
                note="new cell not in baseline (regenerate to pin it)",
            ))
    return findings


def has_failures(findings: List[Regression]) -> bool:
    """True when any finding should gate (non-info severity)."""
    return any(f.severity == "fail" for f in findings)


def regression_table(findings: List[Regression]) -> str:
    """Human-readable findings table (empty string when clean)."""
    if not findings:
        return ""
    rows = [
        [f.severity, f.cell, f.metric, f.baseline, f.measured,
         format_delta(f.measured, f.baseline), f.note]
        for f in findings
    ]
    return format_table(
        ["severity", "cell", "metric", "baseline", "measured", "delta", "note"],
        rows,
        title="bench comparison findings",
    )


def default_baseline_path(profile: str, root: str = ".") -> str:
    """Committed baseline location for *profile* under repo *root*."""
    return os.path.join(root, "benchmarks", "baselines", f"BENCH_{profile}.json")


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write a report as stable, diff-friendly JSON (atomic replace)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp_path, path)


def load_report(path: str) -> Dict[str, Any]:
    """Load a report, validating the format marker.

    Corrupt/garbled JSON raises :class:`InvalidInstanceError` (a
    :class:`~repro.errors.ReproError`), so the CLI reports a clean usage
    error instead of a traceback-as-regression.
    """
    report = read_json(path, "bench report")
    if not isinstance(report, dict) or report.get("format") != BENCH_FORMAT:
        raise InvalidInstanceError(
            f"{path} is not a {BENCH_FORMAT} report"
        )
    return report
