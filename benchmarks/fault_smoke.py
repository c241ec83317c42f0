"""Fault smoke: kill-point durability audit + deterministic chaos cells.

CI's ``fault-smoke`` job runs this script on each push.  It drives the
``repro online serve`` CLI in subprocesses under deterministic fault
plans (:mod:`repro.online.faults`) and audits the crash-consistency
contract end to end:

**Kill-point matrix** — for every registered kill site
(``checkpoint.before_write``, ``checkpoint.mid_write``,
``checkpoint.after_write``, ``report.write``) the serve process is
hard-killed (``os._exit(137)``) the first time the site fires, then
``serve --resume`` must recover the fleet with every tenant's hires,
value, cursor, **and oracle-call count** bit-identical to an unfaulted
baseline run.  ``checkpoint.mid_write`` kills inside the torn-write
window (temp file written, atomic rename pending) — the cell that
proves ``dump_json_atomic`` never leaves a truncated checkpoint behind.

**Mid-stream kill** — a paced serve with idle checkpointing is killed
after its third checkpoint write, so the resume starts from genuinely
partial per-tenant state (not just an empty or fully-final directory).

**Chaos cell** — transient faults and latency spikes on the feed and
oracle paths: the serve must complete (exit 0) with results
bit-identical to the baseline and a non-zero retry count — injected
failures cost retries, never correctness.

**Quarantine cell** — permanent faults pinned to one tenant: the serve
exits 3, that tenant reports ``quarantined`` with an error, and every
other tenant still matches the baseline.

**Determinism cell** — the chaos serve runs twice; the fired-fault logs
and per-tenant retry backoff schedules must match event for event.

**Damaged-checkpoint cell** — after a clean checkpointed serve, one
tenant's file is overwritten with non-UTF-8 bytes, another's
``policy`` block is dropped, and the sharded tenant's first lane names
``num_shards: "x"`` in its shard block: ``serve --resume`` must exit 3
with exactly those three tenants quarantined and every other tenant
matching the baseline.

Usage::

    PYTHONPATH=src python benchmarks/fault_smoke.py [--output fault_smoke.json]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KILL_EXIT_CODE = 137
KILL_SITES = (
    "checkpoint.before_write",
    "checkpoint.mid_write",
    "checkpoint.after_write",
    "report.write",
)

#: Small mixed fleet: plain monotone tenants, a nonmonotone one, a
#: sharded one (whose resume exercises the manifest + netted counters),
#: and the knapsack and robust rules, whose resume re-injects the
#: element maps their checkpoints never carry.
FLEET = {
    "defaults": {"policy": "monotone", "family": "additive", "n": 40, "k": 3},
    "tenants": [
        {"id": "mono-a", "seed": 11},
        {"id": "mono-b", "seed": 12},
        {"id": "nonmono", "policy": "nonmonotone", "seed": 13},
        {"id": "bursty", "process": "bursty",
         "process_params": {"mean_batch": 4}, "seed": 14},
        {"id": "sharded", "shards": 2, "n": 44, "seed": 15},
        {"id": "knap", "policy": "knapsack", "seed": 16},
        {"id": "robust", "policy": "robust", "family": "coverage", "seed": 17},
    ],
}

RETRY = {"max_attempts": 5, "base_delay": 0.001, "max_delay": 0.01,
         "jitter": 0.1, "max_strikes": 3}

#: Keys that must be bit-identical between a recovered serve and the
#: unfaulted baseline, per tenant.
COMPARE_KEYS = ("selected", "value", "oracle_calls", "decisions", "cursor")


def serve(spec_path: str, *extra: str, expect: int = 0) -> subprocess.CompletedProcess:
    """Run ``repro online serve`` in a subprocess, checking its exit code."""
    cmd = [sys.executable, "-m", "repro", "online", "serve", spec_path]
    cmd.extend(extra)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        cmd, cwd=REPO, env=env, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != expect:
        raise AssertionError(
            f"serve {' '.join(extra)}: exit {proc.returncode}, wanted {expect}\n"
            f"stderr: {proc.stderr[-2000:]}"
        )
    return proc


def write_plan(path: str, rules, seed: int = 0) -> None:
    """Write a fault-plan JSON file."""
    payload = {"format": "repro-fault-plan/1", "seed": seed,
               "rules": rules, "retry": RETRY}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def compare_tenants(baseline: dict, recovered: dict,
                    keys=COMPARE_KEYS) -> list:
    """Per-tenant bit-identity check; returns mismatch descriptions."""
    problems = []
    for tid, want in baseline["tenants"].items():
        got = recovered["tenants"].get(tid)
        if got is None:
            problems.append(f"{tid}: missing from recovered report")
            continue
        if not got.get("finished"):
            problems.append(f"{tid}: not finished (state={got.get('state')})")
            continue
        for key in keys:
            if got.get(key) != want.get(key):
                problems.append(
                    f"{tid}.{key}: {got.get(key)!r} != {want.get(key)!r}"
                )
    return problems


def run_kill_cell(workdir: str, spec: str, baseline: dict, site: str,
                  *, extra_serve_args=(), at=1, label=None) -> dict:
    """Kill the serve at *site* (hit *at*), resume, audit bit-identity."""
    label = label or site
    t0 = time.perf_counter()
    plan = os.path.join(workdir, f"kill-{label}.json")
    write_plan(plan, [{"site": site, "kind": "kill", "scope": "*",
                       "at": [at]}])
    ckpt = os.path.join(workdir, f"ckpt-{label}")
    killed_out = os.path.join(workdir, f"killed-{label}.json")
    serve(spec, "--checkpoint-dir", ckpt, "--fault-plan", plan,
          "--output", killed_out, *extra_serve_args, expect=KILL_EXIT_CODE)
    resumed_out = os.path.join(workdir, f"resumed-{label}.json")
    serve(spec, "--checkpoint-dir", ckpt, "--resume",
          "--output", resumed_out)
    with open(resumed_out, "r", encoding="utf-8") as fh:
        recovered = json.load(fh)
    problems = compare_tenants(baseline, recovered)
    # A torn write may leave a stray temp file; it must never replace
    # (or corrupt) a checkpoint the resume reads — which bit-identity
    # already proves — but the killed run must also never have produced
    # a *partial* report file.
    if site == "report.write" and os.path.exists(killed_out):
        problems.append("report.write kill left a report file behind")
    return {
        "cell": f"kill:{label}", "site": site, "at": at,
        "ok": not problems, "problems": problems,
        "wall_seconds": time.perf_counter() - t0,
    }


def run_chaos_cell(workdir: str, spec: str, baseline: dict) -> dict:
    """Transient + latency faults: retries happen, results don't move."""
    t0 = time.perf_counter()
    plan = os.path.join(workdir, "chaos.json")
    write_plan(plan, [
        {"site": "serve.feed", "kind": "transient", "scope": "mono-a",
         "at": [1, 3]},
        {"site": "oracle.batch", "kind": "transient", "scope": "nonmono",
         "rate": 0.05},
        {"site": "oracle.value", "kind": "transient", "scope": "sharded#s1",
         "rate": 0.1},
        {"site": "serve.feed", "kind": "latency", "scope": "*",
         "rate": 0.2, "delay": 0.001},
    ], seed=7)
    out = os.path.join(workdir, "chaos.json.out")
    serve(spec, "--fault-plan", plan, "--output", out)
    with open(out, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    # No cursor check here: latency faults legitimately change how far
    # the producer reads ahead past an early-finishing policy, and
    # arrivals past ``done`` are dropped unrevealed (never observed,
    # never billed) — read-ahead position is a timing artifact, not a
    # result.  Hires, value, and oracle-call counts must not move.
    problems = compare_tenants(
        baseline, report,
        keys=("selected", "value", "oracle_calls", "decisions"))
    if report["totals"].get("retries", 0) < 1:
        problems.append("chaos plan injected faults but nothing retried")
    return {
        "cell": "chaos", "ok": not problems, "problems": problems,
        "retries": report["totals"].get("retries"),
        "faults_fired": len(report["faults"]["fired"])
        if isinstance(report["faults"]["fired"], list)
        else report["faults"]["fired"],
        "wall_seconds": time.perf_counter() - t0,
    }


def run_quarantine_cell(workdir: str, spec: str, baseline: dict) -> dict:
    """Permanent faults on one tenant quarantine it, not the fleet."""
    t0 = time.perf_counter()
    plan = os.path.join(workdir, "perm.json")
    write_plan(plan, [{"site": "serve.feed", "kind": "permanent",
                       "scope": "mono-b", "at": [1, 2, 3]}])
    out = os.path.join(workdir, "perm.json.out")
    serve(spec, "--fault-plan", plan, "--output", out, expect=3)
    with open(out, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    victim = report["tenants"]["mono-b"]
    if victim.get("state") != "quarantined" or not victim.get("error"):
        problems.append(f"mono-b not quarantined cleanly: {victim.get('state')}")
    healthy = {t: v for t, v in baseline["tenants"].items() if t != "mono-b"}
    problems += compare_tenants(
        {"tenants": healthy}, report,
        keys=("selected", "value", "oracle_calls", "decisions"))
    return {
        "cell": "quarantine", "ok": not problems, "problems": problems,
        "wall_seconds": time.perf_counter() - t0,
    }


def run_determinism_cell(workdir: str, spec: str) -> dict:
    """The same chaos plan twice: identical fault log + backoff schedule."""
    t0 = time.perf_counter()
    plan = os.path.join(workdir, "chaos.json")  # written by the chaos cell
    reports = []
    for i in range(2):
        out = os.path.join(workdir, f"det-{i}.json")
        serve(spec, "--fault-plan", plan, "--output", out)
        with open(out, "r", encoding="utf-8") as fh:
            reports.append(json.load(fh))
    a, b = reports
    problems = []
    if a["faults"] != b["faults"]:
        problems.append("fired-fault logs differ between identical runs")
    for tid in a["tenants"]:
        da = a["tenants"][tid].get("retry_delays")
        db = b["tenants"][tid].get("retry_delays")
        if da != db:
            problems.append(f"{tid}: backoff schedules differ: {da} != {db}")
    return {
        "cell": "determinism", "ok": not problems, "problems": problems,
        "wall_seconds": time.perf_counter() - t0,
    }


def _edit_checkpoint(ckpt: str, tenant: str, edit) -> None:
    """Apply *edit* to one tenant's checkpoint payload in place."""
    # <root>/<tenant id>/checkpoint.json: these ids need no escaping.
    path = os.path.join(ckpt, tenant, "checkpoint.json")
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def run_damaged_checkpoint_cell(workdir: str, spec: str, baseline: dict) -> dict:
    """Non-UTF-8 bytes, a dropped policy block and a mistyped shard
    block quarantine three tenants."""
    t0 = time.perf_counter()
    ckpt = os.path.join(workdir, "ckpt-damaged")
    serve(spec, "--checkpoint-dir", ckpt)
    with open(os.path.join(ckpt, "mono-b", "checkpoint.json"), "wb") as fh:
        fh.write(bytes.fromhex("fffe0067617262616765"))
    _edit_checkpoint(ckpt, "robust", lambda ck: ck.pop("policy"))
    _edit_checkpoint(
        ckpt, "sharded",
        lambda ck: ck["shards"][0]["source"]["shard"].update(num_shards="x"),
    )
    out = os.path.join(workdir, "damaged.json")
    serve(spec, "--checkpoint-dir", ckpt, "--resume", "--output", out,
          expect=3)
    with open(out, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    damaged = {"mono-b", "robust", "sharded"}
    problems = []
    quarantined = {t for t, v in report["tenants"].items()
                   if v.get("state") == "quarantined"}
    if quarantined != damaged:
        problems.append(f"quarantined {sorted(quarantined)}, "
                        f"wanted {sorted(damaged)}")
    for tid in damaged:
        if not report["tenants"][tid].get("error"):
            problems.append(f"{tid}: quarantined without an error")
    healthy = {t: v for t, v in baseline["tenants"].items()
               if t not in damaged}
    problems += compare_tenants({"tenants": healthy}, report)
    return {
        "cell": "damaged-checkpoint", "ok": not problems,
        "problems": problems, "wall_seconds": time.perf_counter() - t0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="write the audit report JSON here")
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    cells = []
    with tempfile.TemporaryDirectory() as workdir:
        spec = os.path.join(workdir, "fleet.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(FLEET, fh, indent=2)

        base_out = os.path.join(workdir, "baseline.json")
        serve(spec, "--output", base_out)
        with open(base_out, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)

        for site in KILL_SITES:
            cells.append(run_kill_cell(workdir, spec, baseline, site))
        # Mid-stream kill: idle checkpointing under pacing means the
        # third checkpoint.after_write fires while streams are partial.
        cells.append(run_kill_cell(
            workdir, spec, baseline, "checkpoint.after_write", at=3,
            label="mid-stream",
            extra_serve_args=("--pace-seconds", "0.01",
                              "--idle-seconds", "0.005"),
        ))
        cells.append(run_chaos_cell(workdir, spec, baseline))
        cells.append(run_quarantine_cell(workdir, spec, baseline))
        cells.append(run_determinism_cell(workdir, spec))
        cells.append(run_damaged_checkpoint_cell(workdir, spec, baseline))

    failures = [c for c in cells if not c["ok"]]
    for c in cells:
        status = "ok " if c["ok"] else "FAIL"
        print(f"{status} {c['cell']:<28} {c['wall_seconds']:.2f}s"
              + ("" if c["ok"] else f"  {c['problems'][:3]}"))
    payload = {
        "format": "repro-bench-pr/1",
        "benchmark": "fault-audit",
        "tenants": len(FLEET["tenants"]),
        "kill_sites": list(KILL_SITES),
        "cells": cells,
        "failures": len(failures),
        "wall_seconds": time.perf_counter() - t_start,
        "note": ("every kill-point recovery must be bit-identical to the "
                 "unfaulted baseline per tenant: hires, value, cursor, "
                 "and oracle-call count"),
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if failures:
        print(f"fault smoke: {len(failures)} failing cells", file=sys.stderr)
        return 1
    print(f"fault smoke: all {len(cells)} cells ok "
          f"({payload['wall_seconds']:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
