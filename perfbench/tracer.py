"""Span tracer that measures ``repro``'s layers from the outside.

The traced run installs wrappers around public entry points of each
layer (module functions and class methods), records one span per call
in memory, and removes every wrapper afterwards.  Nothing under
``src/`` knows it is being traced.

A span holds a name (``<layer>.<what>``), start and end
(``time.perf_counter`` seconds), its parent span (the innermost span
open when it started) and the tenant id or instance index of the
request it serves.  Only the outermost call of a span name is
recorded: a wrapped method that calls another method with the same
span name (an evaluator delegating to the kernel it wraps, a policy's
``observe_batch`` falling back to ``observe``) is billed once.  Every
wrapped entry point is synchronous except ``ServingLoop.serve_async``,
which is the only coroutine span and is open alone, so spans nest on a
single stack even though the serve interleaves many tasks.

Self time is a span's duration minus the durations of its direct
children.  The traced run in ``run.py`` checks that every expected
entry point recorded a span, that self times add up to the measured
wall time, and that :meth:`Tracer.uninstall` restored every attribute.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Evaluator methods timed as the kernel layer, and which of them carry
#: a candidate sequence as their first argument (scored candidates are
#: counted from it).  Methods taking one element score one candidate.
KERNEL_METHODS = (
    "reset", "add", "add_set", "advance", "gains", "gain1",
    "union_value1", "union_values", "set_gains", "prepare",
)
KERNEL_BATCH_METHODS = ("gains", "union_values", "set_gains")
KERNEL_SCALAR_METHODS = ("gain1", "union_value1")

#: The benchmark's own root span around the measured phase.
MEASURE_SPAN = "bench.measure"


def _subclasses(cls: type) -> List[type]:
    """*cls* and every subclass loaded so far (depth first, no repeats)."""
    out: List[type] = []
    todo = [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.tenants: List[object] = []
        self.stack: List[int] = []
        #: Spans recorded per entry-point label and per span name.
        self.hits: Counter = Counter()
        #: Work counters recorded at the same boundaries as the spans.
        self.counts: Counter = Counter()
        #: ``id(object) -> tenant id / instance index`` for attribution.
        self.owners: Dict[int, object] = {}
        self.nesting_errors = 0
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, tenant: object = None) -> int:
        """Start a span under the innermost open one; returns its index."""
        stack = self.stack
        if tenant is None and stack:
            tenant = self.tenants[stack[-1]]
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.tenants.append(tenant)
        self.ends.append(0.0)
        stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        """End span *idx*, which must be the innermost open span."""
        self.ends[idx] = time.perf_counter()
        if not self.stack or self.stack.pop() != idx:
            self.nesting_errors += 1

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def register(self, obj: object, tenant: object) -> None:
        """Attribute spans on *obj*'s methods to *tenant*."""
        self.owners[id(obj)] = tenant

    def register_session(self, session: object, tenant: object) -> None:
        """Attribute a started or resumed session's runs and lane sources.

        A shard's parent source needs no entry: its ``take`` runs inside
        the shard source's span and inherits the tenant from it.
        """
        run = session.run
        self.register(run, tenant)
        for lane in getattr(run, "runs", None) or [run]:
            self.register(lane, tenant)
            self.register(lane.source, tenant)

    # -- wrapping ----------------------------------------------------------

    def _sync(self, fn: Callable, name: str, label: str, *,
              span_name: Optional[Callable] = None,
              tenant_of: Optional[Callable] = None,
              candidates_of: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        tracer = self
        names, stack, hits, counts = self.names, self.stack, self.hits, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if span_name is None else span_name(args)
            if stack and names[stack[-1]] == span:
                return fn(*args, **kwargs)  # outermost call only
            entry = label if span_name is None else f"{type(args[0]).__name__}.{label}"
            hits[entry] += 1
            hits[span] += 1
            if candidates_of is not None:
                counts["kernels.candidates"] += candidates_of(args, kwargs)
            idx = tracer.open(span, None if tenant_of is None else tenant_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _async(self, fn: Callable, name: str, label: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            tracer.hits[label] += 1
            tracer.hits[name] += 1
            idx = tracer.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def patch_function(self, module_name: str, attr: str, name: str,
                       **options) -> None:
        """Wrap a module-level function under every name ``repro`` binds.

        Callers reach a function through their own imported name (the
        serving loop calls ``write_tenant_checkpoint`` from its module
        globals, not from ``repro.online.checkpoint``), so every loaded
        ``repro`` module attribute bound to the same object is replaced.
        """
        original = getattr(sys.modules[module_name], attr)
        short = module_name.rsplit(".", 1)[-1]
        wrapper = self._sync(original, name, f"{short}.{attr}", **options)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original, False))

    def patch_methods(self, base: type, methods: Sequence[str], name: str,
                      *, is_async: bool = False, **options) -> None:
        """Wrap *methods* wherever *base* or a loaded subclass defines them."""
        for cls in _subclasses(base):
            for attr in methods:
                original = cls.__dict__.get(attr)
                if not inspect.isfunction(original):
                    continue
                if getattr(original, "__isabstractmethod__", False):
                    continue
                # A per-instance span name labels hits by the runtime class.
                label = attr if options.get("span_name") else f"{cls.__name__}.{attr}"
                wrapper = (
                    self._async(original, name, label) if is_async
                    else self._sync(original, name, label, **options)
                )
                setattr(cls, attr, wrapper)
                self._patches.append((cls, attr, original, True))

    def uninstall(self) -> List[str]:
        """Put every original back; returns attributes that did not restore."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        broken = []
        for owner, attr, original, is_class in self._patches:
            now = owner.__dict__.get(attr) if is_class else getattr(owner, attr, None)
            if now is not original:
                broken.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        self._patches = []
        return broken

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus direct children's durations."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names))]

    def write(self, path: str) -> None:
        """Dump every span as tab-separated text (one header line)."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        base = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# names: " + " ".join(table) + "\n")
            fh.write("# name\tstart_s\tend_s\tparent\ttenant\n")
            fh.writelines(
                f"{code[n]}\t{s - base:.9f}\t{e - base:.9f}\t{p}\t{t}\n"
                for n, s, e, p, t in zip(
                    self.names, self.starts, self.ends, self.parents, self.tenants
                )
            )


def _arg(args: tuple, kwargs: dict, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs.get(key)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (see the layer table in run.py)."""
    import repro.core.kernels as kernels
    import repro.core.oracle  # noqa: F401  (counting evaluator subclass)
    import repro.engine.tasks.schedule_all  # noqa: F401
    import repro.matching.incremental as matching
    import repro.online.arrivals as arrivals
    import repro.online.driver as driver
    import repro.online.policies as policies
    import repro.online.serving as serving
    import repro.online.sharding as sharding
    import repro.scheduling.instance as instance
    import repro.scheduling.solver  # noqa: F401
    import repro.secretary.stream  # noqa: F401  (arrival evaluator subclass)

    owner = tracer.owners.get

    def self_owner(args, kwargs):
        return owner(id(args[0]))

    def session_after(args, kwargs, session):
        tracer.register_session(session, kwargs.get("fault_scope"))

    def scope(args, kwargs):
        return kwargs.get("fault_scope")

    def checkpoint_bytes(args, kwargs, path):
        tracer.counts["checkpoint.bytes"] += os.path.getsize(path)

    shard_types = (sharding.ShardSource, sharding.PartitionLaneSource)

    def take_span(args):
        return "sharding.take" if isinstance(args[0], shard_types) else "arrivals.take"

    # repro.workloads
    tracer.patch_function("repro.online.session", "build_workload", "workloads.build")
    tracer.patch_function(
        "repro.engine.tasks.schedule_all", "build_schedule_instance", "workloads.build"
    )
    # repro.online.arrivals (+ repro.online.sharding's lane sources)
    tracer.patch_methods(
        arrivals.ArrivalSource, ["take"], "arrivals.take",
        span_name=take_span, tenant_of=self_owner,
    )
    tracer.patch_methods(arrivals.ArrivalFingerprint, ["update"], "arrivals.fingerprint")
    tracer.patch_function(
        "repro.online.arrivals", "build_arrival_source", "arrivals.source_build"
    )
    tracer.patch_function(
        "repro.online.arrivals", "source_from_spec", "arrivals.source_build"
    )
    tracer.patch_methods(
        sharding.ShardedRun, ["result"], "sharding.merge", tenant_of=self_owner
    )
    # repro.online.driver
    tracer.patch_methods(driver.OnlineRun, ["feed"], "driver.feed", tenant_of=self_owner)
    # repro.online.policies
    tracer.patch_methods(
        policies.OnlinePolicy, ["observe", "observe_batch"], "policies.observe"
    )
    # repro.core.kernels
    for method in KERNEL_METHODS:
        tracer.patch_methods(
            kernels.IncrementalEvaluator, [method], "kernels.call",
            candidates_of=_scored(method),
        )
    tracer.patch_methods(
        kernels.PreparedBatch, ["gains"], "kernels.call",
        candidates_of=lambda args, kwargs: len(_arg(args, kwargs, 1, "indices")),
    )
    # repro.online.serving
    tracer.patch_methods(
        serving.ServingLoop, ["serve_async"], "serving.serve", is_async=True
    )
    # repro.online.session
    for attr in ("start_session", "start_sharded_session"):
        tracer.patch_function(
            "repro.online.session", attr, "session.start",
            tenant_of=scope, after=session_after,
        )
    tracer.patch_function(
        "repro.online.session", "resume_any_session", "session.resume",
        tenant_of=scope, after=session_after,
    )
    # repro.online.checkpoint + repro.io
    tracer.patch_function(
        "repro.online.checkpoint", "make_checkpoint", "checkpoint.encode",
        tenant_of=lambda args, kwargs: owner(id(_arg(args, kwargs, 0, "run"))),
    )
    tracer.patch_function(
        "repro.online.sharding", "make_sharded_checkpoint", "checkpoint.encode",
        tenant_of=lambda args, kwargs: owner(id(_arg(args, kwargs, 0, "run"))),
    )
    tracer.patch_function(
        "repro.online.checkpoint", "write_tenant_checkpoint", "checkpoint.write",
        tenant_of=lambda args, kwargs: _arg(args, kwargs, 2, "tenant_id"),
        after=checkpoint_bytes,
    )
    tracer.patch_function(
        "repro.online.checkpoint", "read_tenant_checkpoint", "checkpoint.read",
        tenant_of=lambda args, kwargs: _arg(args, kwargs, 1, "tenant_id"),
    )
    # repro.scheduling
    tracer.patch_function(
        "repro.scheduling.solver", "schedule_all_jobs", "scheduling.solve",
        tenant_of=lambda args, kwargs: owner(id(args[0])),
    )
    tracer.patch_methods(
        instance.ScheduleInstance, ["bipartite_graph"], "scheduling.graph"
    )
    # repro.matching
    tracer.patch_methods(
        matching.IncrementalMatchingOracle, ["extension_gains", "gain_indices"],
        "matching.probe",
    )
    tracer.patch_methods(
        matching.IncrementalMatchingOracle, ["commit_indices"], "matching.commit"
    )


def _scored(method: str) -> Optional[Callable]:
    """How many candidates one outermost call of evaluator *method* scores."""
    if method in KERNEL_BATCH_METHODS:
        return lambda args, kwargs: len(
            args[1] if len(args) > 1 else next(iter(kwargs.values()))
        )
    if method in KERNEL_SCALAR_METHODS:
        return lambda args, kwargs: 1
    return None  # state updates score nothing
