"""Command-line interface.

Seven subcommands mirroring the library's main entry points::

    python -m repro solve INSTANCE.json [--method M] [--render]
    python -m repro prize INSTANCE.json --target Z [--epsilon E] [--exact]
    python -m repro demo  [--seed S]                # random instance, solved
    python -m repro check INSTANCE.json             # validate + stats only
    python -m repro sweep --task secretary --families additive ...
    python -m repro bench --profile quick           # perf-regression gate
    python -m repro online run --policy monotone --process bursty ...
    python -m repro online resume CHECKPOINT.json
    python -m repro online reshard MANIFEST.json --shards 4
    python -m repro online serve TENANTS.json --checkpoint-dir DIR

All output is JSON on stdout (render/diagnostics on stderr), so the CLI
composes with jq-style pipelines.  ``sweep`` drives the batched
experiment engine (:mod:`repro.engine`): a parameter grid over one
task's workload families, solver methods, and seeded trials, optionally
across ``multiprocessing`` workers and a disk-backed result cache; the
aggregate table prints on stderr and the full record set on stdout.
``bench`` runs the curated multi-task suite of a profile, writes a
machine-readable ``BENCH_<profile>.json``, and compares it against the
committed baseline under ``benchmarks/baselines/`` — exiting 1 on any
regression beyond tolerance (the CI perf gate).  ``online`` serves the
unified arrival runtime (:mod:`repro.online`): ``run`` starts a policy
on a seeded workload under any registered arrival process — optionally
sharded across ``--shards`` policy replicas (merged under the task's
feasibility constraint) — optionally stopping after ``--max-arrivals``
and writing a self-contained JSON checkpoint (atomically: temp file +
rename); ``resume`` picks such a checkpoint (plain or sharded manifest) up
mid-stream — in a fresh process — and continues where the suspended
run stopped.  ``reshard`` rewrites a suspended sharded manifest from S
to S' lanes without losing a single consumed arrival or hire: consumed
prefixes stay pinned to their lanes, only the unconsumed suffix is
re-partitioned under a new partition-map epoch (so an S → S' → S round
trip is bit-identical to never resharding).  ``serve`` multiplexes
many tenant sessions through one
asyncio loop (:mod:`repro.online.serving`): a JSON spec file declares
the tenants, decisions stream concurrently, idle tenants checkpoint to
per-tenant directories, and SIGINT drains-and-checkpoints instead of
dropping state.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.analysis.render import render_schedule
from repro.errors import ReproError
from repro.io import (
    instance_to_dict,
    load_instance,
    read_json,
    schedule_to_dict,
)
from repro.scheduling.prize_collecting import (
    prize_collecting_exact_value,
    prize_collecting_schedule,
)
from repro.scheduling.solver import schedule_all_jobs
from repro.workloads.jobs import random_multi_interval_instance

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Power-minimizing scheduling via submodular maximization "
        "(Zadimoghaddam, SPAA 2010).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="schedule all jobs (Theorem 2.2.1)")
    solve.add_argument("instance", help="instance JSON file")
    solve.add_argument(
        "--method", choices=["incremental", "lazy", "plain"], default="incremental"
    )
    solve.add_argument("--render", action="store_true", help="ASCII chart on stderr")

    prize = sub.add_parser("prize", help="prize-collecting (Theorems 2.3.1/2.3.3)")
    prize.add_argument("instance", help="instance JSON file")
    prize.add_argument("--target", type=float, required=True, help="value threshold Z")
    prize.add_argument("--epsilon", type=float, default=None,
                       help="bicriteria slack (omit with --exact)")
    prize.add_argument("--exact", action="store_true",
                       help="reach the threshold exactly (Theorem 2.3.3)")
    prize.add_argument("--render", action="store_true")

    demo = sub.add_parser("demo", help="generate and solve a random instance")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--jobs", type=int, default=10)
    demo.add_argument("--processors", type=int, default=3)
    demo.add_argument("--horizon", type=int, default=20)

    check = sub.add_parser("check", help="validate an instance file")
    check.add_argument("instance", help="instance JSON file")

    sweep = sub.add_parser(
        "sweep", help="batched parameter sweep via the experiment engine"
    )
    sweep.add_argument(
        "--task", default="schedule_all",
        help="task adapter to sweep (schedule_all, prize_collecting, "
             "secretary, knapsack_secretary)",
    )
    sweep.add_argument(
        "--families", default="multi",
        help="comma-separated workload families (e.g. multi,bursty_arrivals)",
    )
    sweep.add_argument(
        "--grid", default="20x3x40",
        help="comma-separated NxPxH cells (e.g. 15x3x24,30x4x40); the "
             "triple's meaning is task-defined",
    )
    sweep.add_argument(
        "--methods", default="incremental",
        help="comma-separated solver methods for the task",
    )
    sweep.add_argument("--trials", type=int, default=3, help="instances per cell")
    sweep.add_argument("--seed", type=int, default=20100612, help="master seed")
    sweep.add_argument(
        "--workers", type=int, default=0,
        help="multiprocessing workers (0/1 = inline)",
    )
    sweep.add_argument(
        "--cache-dir", default=None, help="disk-backed result cache directory"
    )
    sweep.add_argument(
        "--records", action="store_true",
        help="include per-run records in the JSON output (aggregate only otherwise)",
    )
    sweep.add_argument(
        "--verbose", action="store_true",
        help="print one progress line per finished cell on stderr "
             "(long grids are otherwise silent until the final table)",
    )

    bench = sub.add_parser(
        "bench", help="curated multi-task suite + perf-regression gate"
    )
    bench.add_argument(
        "--profile", default="quick",
        help="suite profile (smoke, quick, full)",
    )
    bench.add_argument(
        "--workers", type=int, default=0,
        help="multiprocessing workers (0/1 = inline; inline gives the "
             "least-noisy timings)",
    )
    bench.add_argument(
        "--output", default=None,
        help="where to write the measured report (default BENCH_<profile>.json)",
    )
    bench.add_argument(
        "--baseline", default=None,
        help="baseline report to compare against "
             "(default benchmarks/baselines/BENCH_<profile>.json)",
    )
    bench.add_argument(
        "--update-baseline", action="store_true",
        help="write the measured report to the baseline path and skip the gate",
    )

    online = sub.add_parser(
        "online", help="run/resume a policy on the unified arrival runtime"
    )
    online_sub = online.add_subparsers(dest="online_command", required=True)

    online_run = online_sub.add_parser(
        "run", help="start a (suspendable) online run from a workload recipe"
    )
    online_run.add_argument(
        "--policy", default="monotone",
        help="online policy (monotone, nonmonotone, classical, robust, "
             "bottleneck, knapsack, subadditive)",
    )
    online_run.add_argument(
        "--family", default="additive",
        help="workload family (additive, coverage, facility, cut)",
    )
    online_run.add_argument("--n", type=int, default=60, help="stream length")
    online_run.add_argument(
        "--k", type=int, default=4,
        help="hire budget (classical always hires one; knapsack's budget "
             "is the capacity, not a count — both ignore this flag)",
    )
    online_run.add_argument("--seed", type=int, default=0, help="session seed")
    online_run.add_argument(
        "--aux", type=int, default=0,
        help="family-specific auxiliary size (coverage universe / facility "
             "clients; 0 = family default)",
    )
    online_run.add_argument(
        "--n-knapsacks", type=int, default=2,
        help="knapsack count for --policy knapsack (reduced to one "
             "via Lemma 3.4.1)",
    )
    online_run.add_argument(
        "--distribution", default="uniform",
        help="additive value distribution (uniform, lognormal)",
    )
    online_run.add_argument(
        "--process", default="uniform",
        help="arrival process (see repro.online.arrival_process_names())",
    )
    online_run.add_argument(
        "--process-params", default=None,
        help='JSON object of process parameters (e.g. \'{"mean_batch": 6}\')',
    )
    online_run.add_argument(
        "--shards", type=int, default=1,
        help="shard the stream across this many policy replicas "
             "(1 = the plain unsharded runtime)",
    )
    online_run.add_argument(
        "--max-arrivals", type=int, default=None,
        help="suspend after this many arrivals (default: run to completion)",
    )
    online_run.add_argument(
        "--checkpoint", default=None,
        help="where to write the checkpoint when suspended "
             "(default online_checkpoint.json; ignored for finished runs)",
    )

    online_resume = online_sub.add_parser(
        "resume", help="continue a suspended run from its checkpoint file"
    )
    online_resume.add_argument("checkpoint_file", help="checkpoint JSON file")
    online_resume.add_argument(
        "--max-arrivals", type=int, default=None,
        help="suspend again after this many further arrivals",
    )
    online_resume.add_argument(
        "--checkpoint", default=None,
        help="where to write the next checkpoint when still suspended "
             "(default: overwrite the input file)",
    )

    online_reshard = online_sub.add_parser(
        "reshard",
        help="re-partition a suspended sharded manifest to a new shard "
             "count (consumed prefixes and hires stay where they are; "
             "only the unconsumed suffix moves, under a new epoch)",
    )
    online_reshard.add_argument(
        "checkpoint_file", help="sharded manifest JSON file"
    )
    online_reshard.add_argument(
        "--shards", type=int, required=True,
        help="new shard count S' (>= 1; S' == S is the identity)",
    )
    online_reshard.add_argument(
        "--salt", type=int, default=None,
        help="partition salt for the new epoch (default: keep the "
             "current salt, which makes S -> S' -> S a bit-identical "
             "round trip)",
    )
    online_reshard.add_argument(
        "--output", default=None,
        help="where to write the resharded manifest "
             "(default: overwrite the input file, atomically)",
    )

    online_inspect = online_sub.add_parser(
        "inspect",
        help="describe a checkpoint file without resuming it "
             "(schema version, process, cursor, hires, shard manifest, "
             "partition epochs)",
    )
    online_inspect.add_argument("checkpoint_file", help="checkpoint JSON file")

    online_serve = online_sub.add_parser(
        "serve",
        help="drive many concurrent tenant sessions from a JSON spec file "
             "(asyncio multiplexer; SIGINT/SIGTERM drain and checkpoint)",
    )
    online_serve.add_argument(
        "spec_file",
        help="tenant spec JSON: a list of tenant objects, or "
             '{"defaults": {...}, "tenants": [...], "replicate": {...}}',
    )
    online_serve.add_argument(
        "--checkpoint-dir", default=None,
        help="root directory for per-tenant checkpoints (one subdirectory "
             "per tenant id; omit to disable checkpointing)",
    )
    online_serve.add_argument(
        "--idle-seconds", type=float, default=None,
        help="checkpoint a quiescent tenant after this much idle time "
             "(default: checkpoint only at drain/finish)",
    )
    online_serve.add_argument(
        "--min-progress", type=int, default=1,
        help="idle checkpoints also need this many new arrivals since "
             "the tenant's last snapshot",
    )
    online_serve.add_argument(
        "--pace-seconds", type=float, default=0.0,
        help="sleep after each fed step per tenant lane (simulates real "
             "arrival gaps; gives the idle checkpointer work)",
    )
    online_serve.add_argument(
        "--resume", action="store_true",
        help="resume tenants whose checkpoints exist under "
             "--checkpoint-dir instead of starting them fresh (a corrupt "
             "per-tenant checkpoint quarantines that tenant, not the fleet)",
    )
    online_serve.add_argument(
        "--output", default=None,
        help="also write the serving report JSON to this file (atomically)",
    )
    online_serve.add_argument(
        "--fault-plan", default=None,
        help="fault-plan JSON file (repro-fault-plan/1): deterministic "
             "injected oracle/feed/checkpoint faults, latency, kill points",
    )
    online_serve.add_argument(
        "--memory-budget", type=int, default=None,
        help="max tenants resident at once; the rest wait parked in their "
             "per-tenant checkpoints (needs --checkpoint-dir)",
    )
    online_serve.add_argument(
        "--park-arrivals", type=int, default=None,
        help="arrivals an admitted tenant may consume per slice before it "
             "is parked for the next tenant (needs --memory-budget)",
    )
    return parser


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    result = schedule_all_jobs(instance, method=args.method)
    if args.render:
        print(render_schedule(result.schedule, instance), file=sys.stderr)
    _emit(
        {
            "cost": result.cost,
            "bound_factor": result.approximation_bound(),
            "method": result.method,
            "oracle_work": result.oracle_work,
            "schedule": schedule_to_dict(result.schedule),
        }
    )
    return 0


def _cmd_prize(args) -> int:
    instance = load_instance(args.instance)
    if args.exact:
        result = prize_collecting_exact_value(instance, args.target)
    else:
        epsilon = 0.25 if args.epsilon is None else args.epsilon
        result = prize_collecting_schedule(instance, args.target, epsilon)
    if args.render:
        print(render_schedule(result.schedule, instance), file=sys.stderr)
    _emit(
        {
            "value": result.value,
            "target": result.target_value,
            "epsilon": result.epsilon,
            "cost": result.cost,
            "schedule": schedule_to_dict(result.schedule),
        }
    )
    return 0


def _cmd_demo(args) -> int:
    instance = random_multi_interval_instance(
        args.jobs, args.processors, args.horizon, rng=args.seed
    )
    result = schedule_all_jobs(instance)
    print(render_schedule(result.schedule, instance), file=sys.stderr)
    _emit(
        {
            "instance": instance_to_dict(instance),
            "cost": result.cost,
            "schedule": schedule_to_dict(result.schedule),
        }
    )
    return 0


def _cmd_check(args) -> int:
    instance = load_instance(args.instance)  # load validates
    _emit(
        {
            "ok": True,
            "n_jobs": instance.n_jobs,
            "processors": len(instance.processors),
            "horizon": instance.horizon,
            "total_value": instance.total_value(),
            "usable_slots": len(instance.all_slots()),
            "candidate_intervals": len(instance.candidates()),
        }
    )
    return 0


def _parse_grid(text: str):
    cells = []
    for chunk in text.split(","):
        parts = chunk.strip().lower().split("x")
        if len(parts) != 3 or not all(p.isdigit() for p in parts):
            raise ReproError(
                f"bad grid cell {chunk!r}: expected JOBSxPROCSxHORIZON (e.g. 30x4x40)"
            )
        cells.append(tuple(int(x) for x in parts))
    return tuple(cells)


def _cmd_sweep(args) -> int:
    from repro.engine import ResultCache, SweepSpec, run_sweep

    sweep = SweepSpec(
        task=args.task,
        families=tuple(f.strip() for f in args.families.split(",") if f.strip()),
        grid=_parse_grid(args.grid),
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        trials=args.trials,
        master_seed=args.seed,
    )
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    result = run_sweep(
        sweep, workers=args.workers, cache=cache, verbose=args.verbose
    )
    print(result.to_table(title="repro sweep"), file=sys.stderr)
    payload = result.to_dict()
    if not args.records:
        del payload["records"]
    from repro.engine import get_task

    # Only meaningful when the task's methods realise the same
    # objective (for e.g. secretary sweeps, different methods are
    # different algorithms with different benchmarks, not engines).
    if get_task(args.task).methods_interchangeable:
        payload["methods_agree"] = result.methods_agree()
    if cache is not None:
        # Count from the records, not the parent cache's counters — with
        # --workers the lookups happen in worker-process caches.
        hits = sum(1 for r in result.records if r.cache_hit)
        payload["cache"] = {"hits": hits, "misses": len(result.records) - hits}
    _emit(payload)
    return 0


def _cmd_bench(args) -> int:
    from repro.engine.baseline import (
        compare_reports,
        default_baseline_path,
        has_failures,
        load_report,
        regression_table,
        run_bench,
        write_report,
    )

    # No result cache here on purpose: cached cells would replay
    # pre-change metrics and defeat the regression gate.
    report = run_bench(args.profile, workers=args.workers)
    output_path = args.output or f"BENCH_{args.profile}.json"
    baseline_path = args.baseline or default_baseline_path(args.profile)

    write_report(report, output_path)
    print(f"bench report written to {output_path}", file=sys.stderr)

    if args.update_baseline:
        write_report(report, baseline_path)
        print(f"baseline updated at {baseline_path}", file=sys.stderr)
        _emit({"profile": args.profile, "output": output_path,
               "baseline": baseline_path, "updated": True,
               "cells": len(report["cells"])})
        return 0

    try:
        baseline = load_report(baseline_path)
    except FileNotFoundError:
        print(
            f"error: no baseline at {baseline_path}; generate one with "
            f"repro bench --profile {args.profile} --update-baseline",
            file=sys.stderr,
        )
        return 2
    findings = compare_reports(report, baseline)
    table = regression_table(findings)
    if table:
        print(table, file=sys.stderr)
    failed = has_failures(findings)
    _emit({
        "profile": args.profile,
        "output": output_path,
        "baseline": baseline_path,
        "cells": len(report["cells"]),
        "findings": [f.to_dict() for f in findings],
        "passed": not failed,
    })
    if failed:
        print("bench gate: FAIL (regressions above tolerance)", file=sys.stderr)
        return 1
    print("bench gate: ok", file=sys.stderr)
    return 0


def _finish_online(session, args) -> int:
    """Shared tail of ``online run``/``online resume``.

    Emits the session summary; a still-suspended run additionally writes
    its checkpoint (atomically: temp file + rename, so a crash mid-write
    can never truncate the checkpoint a resume depends on) and reports
    where.
    """
    from repro.io import dump_json_atomic

    payload = session.summary()
    if not session.finished:
        default = getattr(args, "checkpoint_file", None) or "online_checkpoint.json"
        path = args.checkpoint or default
        dump_json_atomic(session.checkpoint(), path)
        payload["checkpoint"] = path
        print(
            f"suspended at arrival {session.run.cursor}/{session.run.n}; "
            f"checkpoint written to {path}",
            file=sys.stderr,
        )
    _emit(payload)
    return 0


def _load_checkpoint_file(path: str) -> dict:
    """Read a checkpoint file; corruption is a usage error naming it."""
    payload = read_json(path, "checkpoint file")
    if not isinstance(payload, dict):
        raise ReproError(f"checkpoint file {path} is not a JSON object")
    return payload


def _render_params(params: object) -> dict:
    """Deterministic rendering of source/process params for inspection.

    Scalars print verbatim; container values (a replay's embedded
    payload, say) print as a stable size summary instead of pages of
    JSON.  Keys come out sorted, so documented inspect output is
    byte-stable no matter how the params dict was assembled.
    """
    if not isinstance(params, dict):
        return {}
    out: dict = {}
    for key in sorted(params, key=str):
        value = params[key]
        if isinstance(value, dict):
            out[str(key)] = f"<object: {len(value)} keys>"
        elif isinstance(value, (list, tuple)):
            out[str(key)] = f"<list: {len(value)} items>"
        else:
            out[str(key)] = value
    return out


def _describe_shard_checkpoint(ck: dict) -> dict:
    """Summary of one ordinary (per-shard or unsharded) checkpoint payload.

    The version, ``source`` and ``source.state`` checks a resume runs
    first run here too, and ``policy`` must be an object and
    ``decisions`` and ``frontier`` lists, so a damaged or unsupported
    payload is a clean error.
    """
    from repro.online.arrivals import ArrivalSource, _require
    from repro.online.checkpoint import check_schema_version

    check_schema_version(ck)
    source = _require(ck.get("source"), dict, "source", "an object")
    ArrivalSource.check_state(source.get("state"))
    policy = _require(ck.get("policy"), dict, "policy", "an object")
    decisions = _require(ck.get("decisions", []), list, "decisions", "a list")
    frontier = _require(ck.get("frontier", []), list, "frontier", "a list")
    entry: dict = {
        "schema_version": ck["schema_version"],
        "cursor": ck.get("cursor"),
        "policy": policy.get("name"),
        "process": source.get("process"),
        "seed": source.get("seed"),
        "params": _render_params(source.get("params")),
    }
    shard = source.get("shard")
    if shard:
        partition = shard.get("partition") if isinstance(shard, dict) else None
        if isinstance(partition, dict):
            # A resharded lane: summarise the epoch history instead
            # of dumping the full per-epoch cursor lists.
            epochs = partition.get("epochs") or []
            entry["shard"] = {
                "index": shard.get("index"),
                "partition_epoch": max(0, len(epochs) - 1),
                "num_shards": (epochs[-1] or {}).get("num_shards")
                if epochs else None,
                "salt": (epochs[-1] or {}).get("salt")
                if epochs else None,
            }
        else:
            entry["shard"] = shard
    entry["hired"] = len(decisions)
    entry["frontier"] = len(frontier)
    entry["fingerprint"] = source["state"]["fingerprint"]["chain"]
    entry["embedded_schedule"] = "schedule" in source
    return entry


def _cmd_online_inspect(args) -> int:
    """``online inspect``: describe a checkpoint without resuming it.

    Read-only — no utility rebuild, no oracle, no policy construction —
    so it works even when the workload recipe's family is unknown to
    this release.  Corrupt files exit 2 through the shared loader.
    """
    from repro.online.checkpoint import (
        CHECKPOINT_FORMAT,
        SUPPORTED_MANIFEST_VERSIONS,
        check_schema_version,
    )
    from repro.online.sharding import SHARDED_CHECKPOINT_FORMAT

    payload = _load_checkpoint_file(args.checkpoint_file)
    fmt = payload.get("format")
    if fmt not in (CHECKPOINT_FORMAT, SHARDED_CHECKPOINT_FORMAT):
        raise ReproError(
            f"checkpoint file {args.checkpoint_file} has unknown format "
            f"{fmt!r} (expected {CHECKPOINT_FORMAT} or "
            f"{SHARDED_CHECKPOINT_FORMAT})"
        )
    if fmt == SHARDED_CHECKPOINT_FORMAT:
        check_schema_version(payload, "sharded checkpoint",
                             supported=SUPPORTED_MANIFEST_VERSIONS)
    out: dict = {
        "file": args.checkpoint_file,
        "format": fmt,
        "schema_version": payload.get("schema_version"),
    }
    recipe = payload.get("instance")
    if isinstance(recipe, dict):
        out["recipe"] = {
            key: recipe.get(key)
            for key in ("policy", "family", "n", "k", "seed", "process",
                        "shards")
            if key in recipe
        }
    if fmt == SHARDED_CHECKPOINT_FORMAT:
        shards = payload.get("shards") or []
        out["num_shards"] = payload.get("num_shards")
        out["salt"] = payload.get("salt")
        partition = payload.get("partition")
        if isinstance(partition, dict):
            # v3 manifests carry the partition-map epoch history; show
            # one compact line per epoch (epoch 0 has no consumed list).
            epochs = partition.get("epochs") or []
            out["partition"] = {
                "epoch": max(0, len(epochs) - 1),
                "history": [
                    {
                        "num_shards": (ep or {}).get("num_shards"),
                        "salt": (ep or {}).get("salt"),
                        "consumed": list((ep or {}).get("consumed") or [])
                        or None,
                    }
                    for ep in epochs
                ],
            }
        out["shards"] = [
            _describe_shard_checkpoint(ck) for ck in shards
            if isinstance(ck, dict)
        ]
        out["cursor"] = sum(
            int(s["cursor"]) for s in out["shards"]
            if isinstance(s.get("cursor"), int)
        )
        out["hired"] = sum(
            s["hired"] for s in out["shards"]
            if isinstance(s.get("hired"), int)
        ) if all(
            isinstance(s.get("hired"), int) for s in out["shards"]
        ) else None
    else:
        out.update(_describe_shard_checkpoint(payload))
    _emit(out)
    return 0


def _cmd_online_reshard(args) -> int:
    """``online reshard``: rewrite a sharded manifest from S to S' lanes.

    The transform is offline — no policy is advanced, no oracle call is
    made for carried lanes — and atomic: the output manifest lands via
    temp-file + rename, so an interrupted reshard leaves the input
    usable.  Fresh lanes (growing S) are seeded exactly as
    ``start_sharded_session`` would have seeded them.
    """
    from repro.io import dump_json_atomic
    from repro.online.session import reshard_session
    from repro.online.sharding import partition_from_manifest

    if args.shards < 1:
        raise ReproError(f"--shards must be >= 1, got {args.shards}")
    payload = _load_checkpoint_file(args.checkpoint_file)
    out = reshard_session(payload, args.shards, salt=args.salt)
    path = args.output or args.checkpoint_file
    dump_json_atomic(out, path)
    partition = partition_from_manifest(out)
    print(
        f"resharded {args.checkpoint_file} to {args.shards} shard(s) "
        f"(partition epoch {partition.epoch}); written to {path}",
        file=sys.stderr,
    )
    _emit({
        "file": path,
        "num_shards": out.get("num_shards"),
        "schema_version": out.get("schema_version"),
        "partition_epoch": partition.epoch,
        "cursors": [
            (ck.get("cursor") if isinstance(ck, dict) else None)
            for ck in (out.get("shards") or [])
        ],
    })
    return 0


def _cmd_online_serve(args) -> int:
    """``online serve``: multiplex many tenant sessions in one process.

    Loads the tenant spec file, runs the asyncio serving loop with
    SIGINT and SIGTERM mapped to drain-and-checkpoint, and emits the
    serving report (per-tenant stats + totals + cache effectiveness).
    Exit 0 covers both a completed serve and a clean drain — the
    report's ``totals.drained`` flag says which happened; exit 3 means
    the serve ran but one or more tenants ended quarantined (their
    per-tenant ``error`` fields say why).
    """
    import asyncio
    import time

    from repro.online.checkpoint import IdleCheckpointPolicy
    from repro.online.faults import load_fault_plan
    from repro.online.serving import ServingLoop, load_tenant_specs

    payload = read_json(args.spec_file, "spec file")
    try:
        specs = load_tenant_specs(payload)
    except ReproError as exc:
        raise ReproError(f"spec file {args.spec_file}: {exc}") from exc
    idle_policy = None
    if args.idle_seconds is not None:
        if args.checkpoint_dir is None:
            raise ReproError("--idle-seconds needs --checkpoint-dir")
        idle_policy = IdleCheckpointPolicy(
            idle_seconds=args.idle_seconds, min_progress=args.min_progress
        )
    fault_plan = None
    if args.fault_plan is not None:
        fault_plan = load_fault_plan(args.fault_plan)
    loop = ServingLoop(
        specs,
        checkpoint_root=args.checkpoint_dir,
        idle_policy=idle_policy,
        pace_seconds=args.pace_seconds,
        resume=args.resume,
        fault_plan=fault_plan,
        memory_budget=args.memory_budget,
        park_arrivals=args.park_arrivals,
    )
    report = asyncio.run(loop.serve_async(install_signals=True))
    totals = report["totals"]
    quarantined = int(totals.get("quarantined", 0))
    print(
        f"served {totals['tenants']} tenants: {totals['arrivals']} arrivals, "
        f"{totals['decisions']} hires"
        + (" (drained early)" if totals["drained"] else "")
        + (f" ({quarantined} quarantined)" if quarantined else ""),
        file=sys.stderr,
    )
    if args.output:
        from repro.io import dump_json_atomic

        if loop.fault_injector is not None:
            # The report write is itself a registered fault site, so the
            # kill-point audit can prove a crash here loses no tenant state.
            delay = loop.fault_injector.hit("report.write", "serve")
            if delay > 0.0:
                time.sleep(delay)
        dump_json_atomic(report, args.output)
        print(f"serving report written to {args.output}", file=sys.stderr)
    _emit(report)
    return 3 if quarantined else 0


def _cmd_online(args) -> int:
    from repro.online.session import (
        resume_any_session,
        start_session,
        start_sharded_session,
    )

    if args.online_command == "inspect":
        return _cmd_online_inspect(args)
    if args.online_command == "serve":
        return _cmd_online_serve(args)
    if args.online_command == "reshard":
        return _cmd_online_reshard(args)
    # run/resume share tail flags; reject nonsense values up front with
    # the flag's name (a negative --max-arrivals used to run the full
    # stream).
    if args.max_arrivals is not None and args.max_arrivals < 0:
        raise ReproError(
            f"--max-arrivals must be >= 0, got {args.max_arrivals}"
        )
    if args.online_command == "run":
        params = None
        if args.process_params:
            try:
                params = json.loads(args.process_params)
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"--process-params is not valid JSON: {exc}"
                ) from exc
            if not isinstance(params, dict):
                raise ReproError("--process-params must be a JSON object")
        if args.shards < 1:
            raise ReproError(f"--shards must be >= 1, got {args.shards}")
        kwargs = dict(
            policy=args.policy,
            family=args.family,
            n=args.n,
            k=args.k,
            seed=args.seed,
            process=args.process,
            aux=args.aux,
            n_knapsacks=args.n_knapsacks,
            distribution=args.distribution,
            process_params=params,
        )
        if args.shards > 1:
            session = start_sharded_session(shards=args.shards, **kwargs)
        else:
            session = start_session(**kwargs)
    else:
        session = resume_any_session(_load_checkpoint_file(args.checkpoint_file))
    session.advance(args.max_arrivals)
    return _finish_online(session, args)


_COMMANDS = {
    "solve": _cmd_solve,
    "prize": _cmd_prize,
    "demo": _cmd_demo,
    "check": _cmd_check,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
    "online": _cmd_online,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
