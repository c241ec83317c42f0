"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_uniform --seed 3 --seconds 10 --trace 0

The workloads are described in :mod:`perfbench.workloads`.  A run warms
up untimed (see ``Run.warm_up``), then repeats *reps* until
``--seconds`` have passed (at least three, and one per input set): each
rep builds its inputs (timed as set-up) and runs the measured phase
once.  Outputs are then checked against references computed outside
the timed region.

``--trace 0`` prints the end-to-end metrics.  Their times are in
reference seconds: clock time scaled by the host's speed, sampled
before and after each timed phase (see :mod:`perfbench.workloads`).

``wall_s``          measured phase: ``ServingLoop`` construction to the
                    return of ``serve_async()`` (serves), the
                    ``schedule_all_jobs`` calls (solve); the median over
                    an input set's reps, summed over the workload's
                    input sets
``arrivals_per_s``  arrivals served per ``wall_s`` second; for solve,
                    jobs scheduled
``lag_p50_ms``      median gap between wakeups of a probe coroutine
                    looping on ``asyncio.sleep(0)`` beside the serve
                    (pooled over reps); for solve, the median over its
                    48 instances of each one's solve latency (median of
                    its reps)
``lag_p99_ms``      the same samples' 99th percentile
``setup_s``         set-up: prefilling one ``WorkloadCache`` with every
                    tenant's workload (serves), building an instance set
                    (solve); median per input set, summed over the sets
``peak_rss_mb``     peak resident set of this process

``--trace 1`` runs the same untraced reps, then one more rep with
:mod:`perfbench.tracer`'s wrappers installed, and prints per-layer
metrics (self times, counts, ratios with their bases) plus the traced
wall time and the tracing overhead, in the traced rep's clock seconds
(the untraced wall is scaled to the traced rep's speed).  The spans are
written to
``perfbench/out/``.  The traced run fails its self-check when an
expected entry point recorded no span, when self times do not add up to
the traced wall time, or when a wrapper was not removed.

The last line of standard output is the result object; the line before
it holds run metadata (versions, the pinned environment, the speed sample
taken before the run and the median over its reps, per-rep figures in
clock and reference seconds).  The exit code is 0 when every output
checked out.
"""

from __future__ import annotations

import os
import sys

# The process environment, pinned before the interpreter, glibc or numpy
# read it.  One thread for BLAS and OpenMP: the benchmark measures one.
# 4 kB pages for numpy, and glibc's mmap and trim thresholds fixed where
# its own adjustment takes them once it frees a 30.5 MiB facility matrix
# (its 32 MiB maximum, and twice that): building serve_bursty's matrices
# took 0.75x as long when the host had 2 MB pages free, and 0.55x once
# glibc had raised its thresholds and reused freed matrices, and both
# changed from one run to the next.  (Fixed at glibc's 128 KiB start, the
# kernels' temporaries made serves 40% slower.)  PYTHONHASHSEED is
# pinned unless the caller chose one (see
# check_outputs.py hashseeds): it sets set and dict orders, hence memory
# layout, and five runs of one serve_uniform input spread 0.053 of their
# median wall under random seeds, 0.021 pinned.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "NUMPY_MADVISE_HUGEPAGE": "0",
    "MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "67108864",
}

if __name__ == "__main__" and (
    "PYTHONHASHSEED" not in os.environ
    or any(os.environ.get(k) != v for k, v in PINNED_ENV.items())
):
    os.environ.update(PINNED_ENV)
    os.environ.setdefault("PYTHONHASHSEED", "0")
    os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_REPS = 3
MAX_REPS = 60

#: Entry points each workload must record at least one span on (traced
#: run self-check).  Labels are ``<class>.<method>`` (runtime class for
#: ``take``), ``<module>.<function>``, or a span name.
EXPECTED_ENTRIES = {
    "serve_uniform": (
        "session.build_workload", "ScheduleSource.take", "ArrivalFingerprint.update",
        "arrivals.build_arrival_source", "OnlineRun.feed",
        "SegmentedSubmodularPolicy.observe", "kernels.call",
        "ServingLoop.serve_async", "session.start_session",
    ),
    "serve_bursty": (
        "session.build_workload", "BurstySource.take", "ShardSource.take",
        "ArrivalFingerprint.update", "arrivals.build_arrival_source",
        "OnlineRun.feed", "SegmentedSubmodularPolicy.observe_batch", "kernels.call",
        "ServingLoop.serve_async", "session.start_session",
        "session.start_sharded_session", "ShardedRun.result",
    ),
    "park": (
        "session.build_workload", "ScheduleSource.take", "BurstySource.take",
        "ArrivalFingerprint.update", "arrivals.build_arrival_source",
        "arrivals.source_from_spec", "OnlineRun.feed",
        "SegmentedSubmodularPolicy.observe", "KnapsackSecretaryPolicy.observe",
        "OnlinePolicy.observe_batch", "kernels.call", "ServingLoop.serve_async",
        "session.start_session", "session.resume_any_session",
        "checkpoint.make_checkpoint", "checkpoint.write_tenant_checkpoint",
        "checkpoint.read_tenant_checkpoint",
    ),
    "solve": (
        "schedule_all.build_schedule_instance", "solver.schedule_all_jobs",
        "ScheduleInstance.bipartite_graph", "IncrementalMatchingOracle.extension_gains",
        "IncrementalMatchingOracle.gain_indices",
        "IncrementalMatchingOracle.commit_indices",
    ),
}

#: The layer(s) predicted to hold the largest self-time share.
PREDICTED_LARGEST = {
    "serve_uniform": ("serving",),
    "serve_bursty": ("kernels",),
    "park": ("checkpoint", "session"),
    "solve": ("matching",),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(EXPECTED_ENTRIES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _quantile(samples, q: int) -> float:
    # "inclusive" interpolates between samples; the default method
    # extrapolates past the largest of solve's 48.
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Run:
    """One benchmark process: warm-up, reps, checks, optional traced rep."""

    def __init__(self, args) -> None:
        from perfbench import tracer, workloads

        self.wl = workloads
        self.tracing = tracer
        self.name = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.serve = self.name != "solve"
        self.sets = workloads.INPUT_SETS[self.name]
        self.fleets = [
            workloads.fleet(self.name, self.seed, i) for i in range(self.sets)
        ] if self.serve else []
        self.attempted = 0
        self.failed = 0
        self.problems = []  # check failures not tied to one operation
        self.meta = {}

    def one_rep(self, index: int, tracer=None):
        input_set = index % self.sets
        if self.serve:
            return self.wl.serve_rep(self.name, self.fleets[input_set], OUT, tracer)
        return self.wl.solve_rep(self.seed, input_set, tracer)

    def warm_up(self) -> None:
        """Untimed warm-up, so lazy initialisation is not billed later.

        Serves run a miniature fleet.  Solve runs one full instance set:
        after a miniature, the first pass over the sets still ran 10-25%
        slower than later ones, and it is most of a run.
        """
        seed = self.wl.child_seed(self.seed, "warmup")
        if self.serve:
            specs = self.wl.fleet(self.name, seed, n=200, scale=8)
            self.wl.serve_rep(self.name, specs, OUT)
            self.wl.serve_reference(specs[:1])
        else:
            self.wl.solve_rep(seed)

    def reps(self):
        out = []
        started = time.perf_counter()
        while len(out) < max(MIN_REPS, self.sets) or (
            time.perf_counter() - started < self.seconds and len(out) < MAX_REPS
        ):
            gc.collect()
            out.append(self.one_rep(len(out)))
        return out

    def reference(self):
        """Outputs every rep must reproduce (``None``: structural checks only)."""
        reference = None
        if self.serve:
            reference = {}
            for specs in self.fleets:
                reference.update(self.wl.serve_reference(specs))
        if self.seed == self.wl.DEFAULT_SEED:
            expected = self.wl.load_expected(self.name)
            if expected is None:
                self.problems.append("expected.json has no outputs for this workload")
            elif reference is not None:
                for op, why in self.wl.mismatches(reference, reference, expected).items():
                    self.problems.append(f"reference {op} vs expected.json: {why}")
            else:
                reference = expected
        return reference

    def check(self, rep, reference) -> None:
        bad = dict(rep.errors)
        if reference is not None:
            for op, why in self.wl.mismatches(rep.ops, rep.outputs, reference).items():
                bad.setdefault(op, why)
        self.attempted += len(rep.ops)
        self.failed += len(bad)
        for op, why in sorted(bad.items())[:5]:
            print(f"perfbench: {self.name} {op}: {why}", file=sys.stderr)

    def groups(self, reps):
        """Reps grouped by the input set they ran."""
        return [reps[i:: self.sets] for i in range(self.sets)]

    def end_to_end(self, reps) -> dict:
        groups = self.groups(reps)
        wall = sum(statistics.median(r.wall_s for r in group) for group in groups)
        if self.serve:  # event-loop gaps, pooled over as many reps of each set
            m = min(len(group) for group in groups)
            lag = [gap for group in groups for rep in group[:m] for gap in rep.lag]
        else:  # each instance's latency, median over its reps
            lag = [
                statistics.median(latencies)
                for group in groups for latencies in zip(*(r.lag for r in group))
            ]
        self.meta["lag_samples"] = len(lag)
        return {
            "wall_s": _metric(wall, "s"),
            "arrivals_per_s": _metric(sum(g[0].arrivals for g in groups) / wall, "1/s"),
            "lag_p50_ms": _metric(statistics.median(lag) * 1e3, "ms"),
            "lag_p99_ms": _metric(_quantile(lag, 99) * 1e3, "ms"),
            "setup_s": _metric(
                sum(statistics.median(r.setup_s for r in group) for group in groups), "s"
            ),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }

    def untraced_wall(self, reps) -> float:
        """Median untraced wall (reference seconds) over the reps that ran
        the traced rep's inputs."""
        return statistics.median(r.wall_s for r in self.groups(reps)[0])

    def traced(self, reference, untraced_wall: float) -> dict:
        """One rep under the tracer; returns the per-layer metrics."""
        tracer = self.tracing.Tracer()
        gc.collect()
        self.tracing.install(tracer)
        installed = tracer.installed
        try:
            rep = self.one_rep(0, tracer)
        finally:
            unrestored = tracer.uninstall()
        self.check(rep, reference)
        untraced_wall *= rep.raw_wall_s / rep.wall_s  # at the traced rep's speed
        sequential = self.sequential() if self.serve else 0.0
        path = os.path.join(OUT, f"spans-{self.name}-seed{self.seed}.tsv")
        tracer.write(path)
        self.meta["spans_file"] = os.path.relpath(path, ROOT)
        self.meta["wrapped_attributes"] = installed
        return self.layer_metrics(tracer, rep, untraced_wall, sequential, unrestored)

    def sequential(self) -> float:
        """The traced fleet run tenant after tenant on one shared cache, unserved."""
        specs = self.fleets[0]
        cache = self.wl.prefill(specs)
        t0 = time.perf_counter()
        for spec in specs:
            spec.start(cache).advance().summary()
        return time.perf_counter() - t0

    def layer_metrics(self, tracer, rep, untraced_wall, sequential, unrestored) -> dict:
        measure = self.tracing.MEASURE_SPAN
        self_t = tracer.self_times()
        names, parents = tracer.names, tracer.parents
        # The measured phase: one root span (serves) or one per instance (solve).
        roots = [i for i, name in enumerate(names) if name == measure]
        inside = [False] * len(names)
        by_name_self, by_name_count, layers = Counter(), Counter(), Counter()
        for i, name in enumerate(names):
            inside[i] = name == measure or (parents[i] >= 0 and inside[parents[i]])
            by_name_self[name] += self_t[i]
            by_name_count[name] += 1
            if inside[i]:
                layers[name.split(".", 1)[0]] += self_t[i]
        wall = sum(tracer.duration(root) for root in roots)

        # Self-check: entry points, self-time sum, restored attributes.
        missing = [e for e in EXPECTED_ENTRIES[self.name] if tracer.hits[e] == 0]
        if missing:
            self.problems.append(f"no span recorded on {missing}")
        total = sum(layers.values())
        if abs(total - wall) > max(1e-6, 1e-4 * wall):
            self.problems.append(f"layer self times sum to {total:.6f} s, wall is {wall:.6f} s")
        if min(self_t) < -1e-6 or tracer.nesting_errors:
            self.problems.append(
                f"spans overlap: min self time {min(self_t):.3g} s, "
                f"{tracer.nesting_errors} out-of-order closes"
            )
        if unrestored:
            self.problems.append(f"wrapped attributes not restored: {unrestored}")

        shares = {k: v / wall for k, v in sorted(layers.items(), key=lambda kv: -kv[1])}
        predicted = PREDICTED_LARGEST[self.name]
        predicted_share = sum(shares.get(k, 0.0) for k in predicted)
        others = max((v for k, v in shares.items() if k not in predicted), default=0.0)
        self.meta["layer_shares"] = {k: round(v, 4) for k, v in shares.items()}
        self.meta["predicted_largest"] = {
            "layers": list(predicted), "share": round(predicted_share, 4),
            "holds": predicted_share >= others,
        }

        s, n, counts = by_name_self.__getitem__, by_name_count.__getitem__, tracer.counts
        arrivals = rep.arrivals if self.serve else 0
        probes, writes = n("matching.probe"), n("checkpoint.write")
        facts = rep.facts
        return {
            "workloads.build_s": _metric(s("workloads.build"), "s"),
            "workloads.builds": _metric(n("workloads.build"), "count"),
            "arrivals.take_s": _metric(s("arrivals.take"), "s"),
            "arrivals.takes": _metric(n("arrivals.take"), "count"),
            "arrivals.fingerprint_s": _metric(s("arrivals.fingerprint"), "s"),
            "arrivals.fingerprint_updates": _metric(n("arrivals.fingerprint"), "count"),
            "arrivals.source_build_s": _metric(s("arrivals.source_build"), "s"),
            "sharding.take_s": _metric(s("sharding.take"), "s"),
            "sharding.takes": _metric(n("sharding.take"), "count"),
            "sharding.merge_s": _metric(s("sharding.merge"), "s"),
            "driver.feeds": _metric(n("driver.feed"), "count"),
            "driver.feed_self_s": _metric(s("driver.feed"), "s"),
            "policies.observes": _metric(n("policies.observe"), "count"),
            "policies.observe_self_s": _metric(s("policies.observe"), "s"),
            "kernels.calls": _metric(n("kernels.call"), "count"),
            "kernels.candidates": _metric(counts["kernels.candidates"], "count"),
            "kernels.s": _metric(s("kernels.call"), "s"),
            "kernels.oracle_calls": _metric(facts.get("oracle_calls", 0), "count"),
            "kernels.candidates_per_arrival": _metric(
                counts["kernels.candidates"] / arrivals if arrivals else 0.0, "ratio"
            ),
            "serving.arrivals": _metric(arrivals, "count"),
            "serving.self_s": _metric(s("serving.serve"), "s"),
            "serving.max_in_flight": _metric(facts.get("max_in_flight", 0), "count"),
            "serving.sequential_s": _metric(sequential, "s"),
            "session.start_s": _metric(s("session.start"), "s"),
            "session.starts": _metric(n("session.start"), "count"),
            "session.resume_s": _metric(s("session.resume"), "s"),
            "session.resumes": _metric(n("session.resume"), "count"),
            "checkpoint.encode_s": _metric(s("checkpoint.encode"), "s"),
            "checkpoint.write_s": _metric(s("checkpoint.write"), "s"),
            "checkpoint.writes": _metric(writes, "count"),
            "checkpoint.bytes": _metric(counts["checkpoint.bytes"], "B"),
            "checkpoint.bytes_per_write": _metric(
                counts["checkpoint.bytes"] / writes if writes else 0.0, "B"
            ),
            "checkpoint.read_s": _metric(s("checkpoint.read"), "s"),
            "checkpoint.reads": _metric(n("checkpoint.read"), "count"),
            "scheduling.solve_self_s": _metric(s("scheduling.solve"), "s"),
            "scheduling.graph_s": _metric(s("scheduling.graph"), "s"),
            "scheduling.oracle_work": _metric(facts.get("oracle_work", 0), "count"),
            "matching.probe_s": _metric(s("matching.probe"), "s"),
            "matching.probes": _metric(probes, "count"),
            "matching.commit_s": _metric(s("matching.commit"), "s"),
            "matching.commits": _metric(n("matching.commit"), "count"),
            "matching.commits_per_probe": _metric(
                n("matching.commit") / probes if probes else 0.0, "ratio"
            ),
            "bench.self_s": _metric(s(measure), "s"),
            "trace.wall_s": _metric(wall, "s"),
            "trace.untraced_wall_s": _metric(untraced_wall, "s"),
            "trace.overhead_s": _metric(wall - untraced_wall, "s"),
            "trace.spans": _metric(len(names), "count"),
        }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    os.makedirs(OUT, exist_ok=True)
    from perfbench.workloads import SPEED_REF_S, speed_sample

    calibration_ms = speed_sample() * 1e3

    import numpy

    run = Run(args)
    run.meta.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        python=platform.python_version(), numpy=numpy.__version__,
        nproc=os.cpu_count(), env=PINNED_ENV,
        pythonhashseed=os.environ.get("PYTHONHASHSEED"),
        calibration_ms=round(calibration_ms, 3), speed_ref_ms=SPEED_REF_S * 1e3,
    )
    metrics = {}
    try:
        run.warm_up()
        reps = run.reps()
        reference = run.reference()
        for rep in reps:
            run.check(rep, reference)
        metrics = run.end_to_end(reps)
        run.meta["reps"] = {
            "count": len(reps),
            "wall_s": [round(r.wall_s, 6) for r in reps],
            "raw_wall_s": [round(r.raw_wall_s, 6) for r in reps],
            "setup_s": [round(r.setup_s, 6) for r in reps],
            "raw_setup_s": [round(r.raw_setup_s, 6) for r in reps],
        }
        run.meta["speed_sample_ms_median"] = round(
            SPEED_REF_S * 1e3 * statistics.median(r.raw_wall_s / r.wall_s for r in reps), 3
        )
        if run.name == "park":
            run.meta["checkpoint_dir"] = os.path.relpath(OUT, ROOT)
            run.meta["checkpoint_bytes_on_disk"] = reps[-1].facts["checkpoint_bytes_on_disk"]
        if args.trace:
            metrics = run.traced(reference, run.untraced_wall(reps))
    except Exception:  # a crashed run still reports what failed
        traceback.print_exc()
        run.problems.append("the run raised an exception")
        run.failed = max(run.failed, 1)
        run.attempted = max(run.attempted, 1)
    correct = run.failed == 0 and not run.problems and bool(metrics)
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    run.meta["problems"] = run.problems
    print(json.dumps({"meta": run.meta}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
