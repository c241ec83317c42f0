"""The benchmark's workloads: inputs, measured phases and output checks.

Every workload is a batch drain: all arrivals exist when the run starts
(sources are pulled), nothing sleeps, and one process on one thread
does all the work.  One *operation* is one tenant (serves) or one
instance (solve).  A rep runs one *input set* once; rep *r* runs set
``r % INPUT_SETS[name]``, so workloads whose single set yields few
latency samples, or whose work varies with the seed, spread their
figures over several distinct sets.

``serve_uniform``
    25 ``monotone`` tenants on ``coverage`` (n=2000, k=8), ``uniform``
    arrivals: each arrival costs one queue hop, one ``take``, one
    fingerprint record and one ``observe``, so the serving loop and the
    arrival sources do most of the work.  A run alternates two fleets,
    ROADMAP's 50 tenants, so its lag tail is not one fleet's.
``serve_bursty``
    6 ``monotone`` tenants on ``facility`` (n=2000, 2000 clients) plus 2
    of the same with two shards, ``bursty`` arrivals of mean batch 32:
    the same layers in batches (one hop and one vectorised
    ``observe_batch`` per ~32 arrivals), so the kernels dominate; the
    only workload on ``ShardSource`` and the sharded merge.  One fleet
    drains in ~75 loop passes whose largest is fixed by the fleet's
    batch sizes, so a run cycles through five fleets.
``park``
    12 tenants (4 ``monotone``/``coverage``/``uniform``, 4
    ``knapsack``/``additive``/``uniform``, 4 ``robust``/``coverage``/
    ``bursty`` of mean batch 4) under ``memory_budget=2`` and
    ``park_arrivals=100``: every slice ends in a checkpoint write and
    every admission starts with a read and a resume, so the checkpoint
    codec and session resume dominate.  Tenants that finish early skip
    the rest of their stream, so one fleet's arrivals (and wall time)
    vary by about 7% with the seed; a run cycles through five fleets.
``solve``
    The paper's Theorem 2.2.1 greedy: ``schedule_all_jobs`` (incremental
    engine) over ``hetero_energy``, ``multi`` and ``bursty_arrivals``
    instances of 200 jobs x 8 processors x 96 slots, one after another.
    It runs none of the online layers.  Instance solve times vary widely
    with the seed, so a run cycles through four sets of 12 instances
    and its latency percentiles cover 48 instances, not 12.

Outputs are checked outside the timed region: each served tenant
against the same tenant run alone on a fresh cache, each schedule with
``Schedule.validate`` and its recomputed cost, and, for the default
seed, everything against ``expected.json``.

Times are reported in *reference seconds*.  The 2-vCPU Intel Xeon VM
this benchmark was defined on runs the same code at two speeds about
1.7x apart, switching within seconds as other guests load the shared
cores, and CPU time slows with wall time.  So every timed phase sits
between two :func:`speed_sample` calls (an untraced serve takes more
while it runs), and its clock time is scaled by ``SPEED_REF_S`` over
their mean: a phase that took 0.6 s while the sample loop took 6 ms
reads 0.5 reference seconds.  A slower program still reads slower; a
slower host mostly does not.  The clock times are kept beside them
(``raw_*``).
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro.engine.tasks.schedule_all as schedule_all_task
import repro.scheduling.solver as solver
from repro.engine.spec import RunSpec
from repro.errors import ReproError
from repro.online.serving import ServingLoop, TenantSpec
from repro.online.session import WorkloadCache

from perfbench.tracer import MEASURE_SPAN

WORKLOADS = ("serve_uniform", "serve_bursty", "park", "solve")

#: The seed whose outputs ``expected.json`` pins.
DEFAULT_SEED = 0

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

#: Relative tolerance on served and solved values.
VALUE_RTOL = 1e-9

#: Output fields ``expected.json`` pins for the default seed.
PINNED_FIELDS = ("selected", "value", "finished", "cost", "n_chosen")

#: Distinct input sets each workload cycles through.
INPUT_SETS = {"serve_uniform": 2, "serve_bursty": 5, "park": 5, "solve": 4}

#: Solve instance families, the count of each per set, and their size.
SOLVE_FAMILIES = ("hetero_energy", "multi", "bursty_arrivals")
SOLVE_PER_FAMILY = 4
SOLVE_SIZE = (200, 8, 96)


#: Iterations of :func:`speed_sample`'s loop, and the seconds it takes at
#: the reference speed (it took 4.1 ms and 6.0 ms at the two speeds of
#: the VM described above).
SPEED_LOOPS = 60_000
SPEED_REF_S = 0.005

#: Seconds between the speed samples an untraced serve takes while it
#: runs: a park rep lasts seconds, and the host's speed flips within it.
SPEED_EVERY_S = 0.1


def speed_sample() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(SPEED_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def _scale(*samples: float) -> float:
    """Factor from clock seconds to reference seconds, over speed samples
    taken evenly through a phase."""
    return SPEED_REF_S * len(samples) / sum(samples)


def child_seed(seed: int, *labels: object) -> int:
    """A 31-bit seed derived from *seed* and *labels* (benchmark-owned)."""
    text = "/".join(str(part) for part in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


# -- inputs ------------------------------------------------------------------


def fleet(name: str, seed: int, input_set: int = 0, *, n: int = 2000,
          scale: int = 1) -> List[TenantSpec]:
    """The tenant specs of one input set of serve workload *name*.

    *n* and *scale* shrink the fleet for the untimed warm-up miniature
    (``scale`` divides tenant counts, keeping at least one of each kind).
    """
    def count(c: int):
        first = input_set * c
        return range(first, first + max(1, c // scale))

    def spec(tid: str, i: int, **fields) -> TenantSpec:
        return TenantSpec(tid, n=n, k=8, seed=child_seed(seed, name, i), **fields)

    specs: List[TenantSpec] = []
    if name == "serve_uniform":
        for i in count(25):
            specs.append(spec(f"u{i:02d}", i, policy="monotone", family="coverage",
                              process="uniform"))
    elif name == "serve_bursty":
        bursty = dict(policy="monotone", family="facility", aux=n, process="bursty",
                      process_params={"mean_batch": 32})
        for i in count(6):
            specs.append(spec(f"b{i:02d}", i, **bursty))
        for i in count(2):
            specs.append(spec(f"s{i:02d}", 100 + i, shards=2, **bursty))
    elif name == "park":
        for i in count(4):
            specs.append(spec(f"m{i:02d}", i, policy="monotone", family="coverage",
                              process="uniform"))
            specs.append(spec(f"k{i:02d}", 100 + i, policy="knapsack", family="additive",
                              process="uniform"))
            specs.append(spec(f"r{i:02d}", 200 + i, policy="robust", family="coverage",
                              process="bursty", process_params={"mean_batch": 4}))
    else:
        raise ValueError(f"not a serve workload: {name!r}")
    return specs


def serve_options(name: str, checkpoint_root: Optional[str]) -> Dict[str, object]:
    """``ServingLoop`` keyword arguments of serve workload *name*."""
    if name != "park":
        return {}
    return dict(checkpoint_root=checkpoint_root, memory_budget=2, park_arrivals=100)


def solve_specs(seed: int, instance_set: int = 0, *, size=SOLVE_SIZE,
                per_family: int = SOLVE_PER_FAMILY):
    """``(operation id, RunSpec)`` pairs of one solve instance set."""
    n_jobs, n_proc, horizon = size
    first = instance_set * per_family
    return [
        (f"{family}-{i}", RunSpec(
            family=family, n_jobs=n_jobs, n_processors=n_proc, horizon=horizon,
            method="incremental", trial=i, seed=child_seed(seed, "solve", family, i),
        ))
        for family in SOLVE_FAMILIES
        for i in range(first, first + per_family)
    ]


def _recipe(spec: TenantSpec) -> Dict[str, object]:
    """The fields ``WorkloadCache.lookup`` keys a tenant's workload on."""
    return {
        "policy": spec.policy, "family": spec.family, "n": spec.n, "aux": spec.aux,
        "seed": spec.seed, "distribution": spec.distribution,
        "n_knapsacks": spec.n_knapsacks,
    }


def prefill(specs: List[TenantSpec]) -> WorkloadCache:
    """A cache holding every tenant's utility (and knapsack weights)."""
    cache = WorkloadCache()
    for spec in specs:
        cache.lookup(_recipe(spec))
    return cache


# -- one rep -------------------------------------------------------------------


@dataclass
class Rep:
    """One pass of a workload: timings, samples and checked outputs."""

    #: Ids of the operations attempted (tenants or instances).
    ops: List[str] = field(default_factory=list)
    #: Set-up and measured-phase time, in reference seconds.
    setup_s: float = 0.0
    wall_s: float = 0.0
    #: The same two as the clock read them.
    raw_setup_s: float = 0.0
    raw_wall_s: float = 0.0
    #: Arrivals served (serves) or jobs scheduled (solve).
    arrivals: int = 0
    #: Event-loop gaps (serves) or per-instance latencies (solve), in
    #: reference seconds.
    lag: List[float] = field(default_factory=list)
    #: Operation id -> deterministic output.
    outputs: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Operation id -> why it failed (exception, quarantine, bad schedule).
    errors: Dict[str, str] = field(default_factory=dict)
    #: Workload-specific facts for the traced run's layer metrics.
    facts: Dict[str, object] = field(default_factory=dict)


async def _serve_with_probe(specs, cache, options, tracer):
    """Serve once beside a probe coroutine.

    Returns ``(report, wall, gaps, speeds, marks)``: ``marks[j]`` is how
    many gaps preceded speed sample ``speeds[j]``.

    The probe loops on ``await asyncio.sleep(0)`` and records the gap
    between successive wakeups: every ready lane takes at most one step
    per gap, so a gap is how long a ready tenant waits for its next
    arrival to be decided.  The gap in which the serve returns is
    dropped: it holds the final report (summaries, sharded merges),
    which no tenant waits on, and at about one gap in 85 on
    ``serve_bursty`` it would otherwise decide the 99th percentile.

    Untraced, the probe also takes a speed sample every
    ``SPEED_EVERY_S`` between two gaps; the time it takes is in no gap
    and is taken off the wall.  (Traced, it would be billed to the
    serving layer's self time.)
    """
    gaps: List[float] = []
    speeds: List[float] = []
    marks: List[int] = []
    sampling = 0.0
    running = True

    async def probe():
        nonlocal sampling
        clock = time.perf_counter
        last = clock()
        due = last + SPEED_EVERY_S
        while True:
            await asyncio.sleep(0)
            if not running:
                return
            now = clock()
            gaps.append(now - last)
            last = now
            if tracer is None and now >= due:
                marks.append(len(gaps))
                speeds.append(speed_sample())
                last = clock()
                sampling += last - now
                due = last + SPEED_EVERY_S

    async def serve():
        nonlocal running
        root = None if tracer is None else tracer.open(MEASURE_SPAN)
        t0 = time.perf_counter()
        try:
            loop = ServingLoop(specs, workload_cache=cache, **options)
            report = await loop.serve_async()
        finally:
            wall = time.perf_counter() - t0 - sampling
            running = False
            if root is not None:
                tracer.close(root)
        return report, wall

    (report, wall), _ = await asyncio.gather(serve(), probe())
    return report, wall, gaps, speeds, marks


def serve_rep(name: str, specs: List[TenantSpec], scratch: str, tracer=None) -> Rep:
    """Prefill a fresh cache (set-up), then serve the fleet once (measured)."""
    rep = Rep(ops=[spec.tenant_id for spec in specs])
    checkpoint_root = tempfile.mkdtemp(prefix="ck-", dir=scratch) if name == "park" else None
    try:
        before = speed_sample()
        t0 = time.perf_counter()
        cache = prefill(specs)
        rep.raw_setup_s = time.perf_counter() - t0
        after = speed_sample()
        rep.setup_s = rep.raw_setup_s * _scale(before, after)
        options = serve_options(name, checkpoint_root)
        report, rep.raw_wall_s, gaps, speeds, marks = asyncio.run(
            _serve_with_probe(specs, cache, options, tracer)
        )
        samples = [after, *speeds, speed_sample()]
        rep.wall_s = rep.raw_wall_s * _scale(*samples)
        # Each gap at the speed of the two samples around it.
        bounds = [0, *marks, len(gaps)]
        for j in range(len(samples) - 1):
            scale = _scale(samples[j], samples[j + 1])
            rep.lag.extend(gap * scale for gap in gaps[bounds[j]:bounds[j + 1]])
        if checkpoint_root is not None:
            rep.facts["checkpoint_bytes_on_disk"] = sum(
                os.path.getsize(os.path.join(d, f))
                for d, _, files in os.walk(checkpoint_root) for f in files
            )
    finally:
        if checkpoint_root is not None:
            shutil.rmtree(checkpoint_root, ignore_errors=True)
    totals = report["totals"]
    rep.arrivals = int(totals["arrivals"])
    rep.facts.update(
        oracle_calls=int(totals["oracle_calls"]),
        max_in_flight=int(totals["max_in_flight"]),
    )
    for tid, tenant in report["tenants"].items():
        rep.outputs[tid] = _tenant_output(tenant)
        if tenant.get("state") != "finished":
            rep.errors[tid] = f"state {tenant.get('state')!r}: {tenant.get('error')}"
    return rep


def _tenant_output(summary: Dict[str, object]) -> Dict[str, object]:
    """The deterministic fields of a tenant report or session summary.

    ``oracle_calls`` is compared between the served and the unserved
    path (serving must bill exactly the queries a lone run bills) but is
    not pinned in ``expected.json``: a change that saves queries should
    not have to edit the benchmark.
    """
    return {
        "selected": list(summary.get("selected", [])),
        "value": summary.get("value"),
        "finished": bool(summary.get("finished")),
        "oracle_calls": summary.get("oracle_calls"),
    }


def solve_rep(seed: int, instance_set: int = 0, tracer=None, **spec_overrides) -> Rep:
    """Build one instance set (set-up), then solve it instance by instance.

    The measured phase is the sum of the ``schedule_all_jobs`` calls;
    speed samples sit between them, and under a tracer each call is a
    root span of its own, so neither the samples nor the loop around
    them is billed to the solver.
    """
    specs = solve_specs(seed, instance_set, **spec_overrides)
    rep = Rep(ops=[op for op, _ in specs])
    before = speed_sample()
    t0 = time.perf_counter()
    instances = [schedule_all_task.build_schedule_instance(spec) for _, spec in specs]
    rep.raw_setup_s = time.perf_counter() - t0
    after = speed_sample()
    rep.setup_s = rep.raw_setup_s * _scale(before, after)
    if tracer is not None:
        for (op, _), instance in zip(specs, instances):
            tracer.register(instance, op)
    results: List[object] = []
    for (op, _), instance in zip(specs, instances):
        before = after
        root = None if tracer is None else tracer.open(MEASURE_SPAN)
        started = time.perf_counter()
        try:
            results.append(solver.schedule_all_jobs(instance, method="incremental"))
        except ReproError as exc:
            results.append(None)
            rep.errors[op] = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - started
        if root is not None:
            tracer.close(root)
        after = speed_sample()
        rep.raw_wall_s += latency
        rep.lag.append(latency * _scale(before, after))
    rep.wall_s = sum(rep.lag)
    oracle_work = 0
    for (op, _), instance, result in zip(specs, instances, results):
        rep.arrivals += instance.n_jobs
        if result is None:
            continue
        oracle_work += int(result.oracle_work)
        rep.outputs[op] = {"cost": float(result.cost),
                           "n_chosen": len(result.greedy.chosen)}
        problem = _schedule_problem(instance, result)
        if problem is not None:
            rep.errors[op] = problem
    rep.facts["oracle_work"] = oracle_work
    return rep


def _schedule_problem(instance, result) -> Optional[str]:
    """Why a solved schedule is wrong, or ``None`` when it checks out."""
    try:
        result.schedule.validate(instance, require_all=True)
    except ReproError as exc:
        return f"invalid schedule: {exc}"
    cost = result.schedule.cost(instance)
    if not _close(cost, result.cost):
        return f"schedule cost {cost!r} != reported cost {result.cost!r}"
    return None


# -- references and checks ---------------------------------------------------


def serve_reference(specs: List[TenantSpec]) -> Dict[str, Dict[str, object]]:
    """Each tenant run alone on its own fresh cache (the unserved path)."""
    out = {}
    for spec in specs:
        out[spec.tenant_id] = _tenant_output(
            spec.start(WorkloadCache()).advance().summary()
        )
        gc.collect()
    return out


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(float(a), float(b), rel_tol=VALUE_RTOL, abs_tol=1e-12)


def mismatches(ops, outputs: Dict[str, Dict[str, object]],
               reference: Dict[str, Dict[str, object]]) -> Dict[str, str]:
    """Operation id -> difference, for *ops* whose outputs disagree with *reference*."""
    bad = {}
    for op in ops:
        got, want = outputs.get(op), reference.get(op)
        if got is None or want is None:
            bad[op] = "no output" if got is None else "not in the reference"
            continue
        for key, expected in want.items():
            value = got.get(key)
            same = _close(value, expected) if isinstance(expected, float) else value == expected
            if not same:
                bad[op] = f"{key}: got {value!r}, expected {expected!r}"
                break
    return bad


def load_expected(name: str) -> Optional[Dict[str, Dict[str, object]]]:
    """The pinned default-seed outputs of workload *name*, if recorded."""
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            return json.load(fh).get(name)
    except FileNotFoundError:
        return None
