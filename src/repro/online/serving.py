"""Asyncio multi-tenant serving: many concurrent sessions per process.

The ROADMAP's "millions of users = many independent streams" front end:
a :class:`ServingLoop` drives N tenant sessions (plain or sharded)
inside one event loop.  Each tenant gets one *lane* per shard, and
each lane is one coroutine: it takes a *step* (one ``take`` from the
lane's own :class:`~repro.online.arrivals.ArrivalSource`), feeds it to
the lane's :class:`~repro.online.driver.OnlineRun` via
:meth:`~repro.online.driver.OnlineRun.feed`, and yields to the event
loop once — one step per lane per loop pass, so a tenant whose oracle
is slow holds up only its own lane.

Determinism is inherited, not re-proven: lanes take the *same*
whole minibatches in the *same* order the pull-based ``run()`` loop
would (so vectorized ``observe_batch`` calls — and therefore oracle-call
counts — are untouched), and ``feed`` replays the exact
reveal/observe/log sequence.
Hires and per-tenant oracle counts are bit-identical to running each
tenant alone (pinned by ``tests/online/test_serving.py``).

Checkpoints piggyback on the schema-v2 codec.  A tenant is *quiescent*
when no lane holds an in-flight (taken-but-not-fed) step — then source
cursors equal consumed positions and the synchronous
``session.checkpoint()`` snapshot is consistent (checkpoint writes
never await, so the single-threaded loop guarantees atomicity).  An
:class:`~repro.online.checkpoint.IdleCheckpointPolicy` checkpoints
quiescent-and-idle tenants mid-serve to per-tenant directories;
:meth:`ServingLoop.request_drain` (the SIGINT/SIGTERM path) stops
every lane before its next ``take``, lets in-flight steps finish, and
checkpoints every tenant — so an interrupted serve resumes exactly
where each stream stopped.

Tenants are *failure domains* (see ``docs/RELIABILITY.md``): a feed
that raises an :class:`~repro.online.faults.InjectedFault` is rolled
back and retried on the fault plan's deterministic backoff schedule;
transient faults that outlast ``max_attempts``, or ``max_strikes``
permanent faults, transition the tenant to ``quarantined`` — its lanes
stop, its last complete checkpoint survives untouched, and every other
tenant keeps serving.  The same isolation covers resume: a per-tenant
checkpoint that is corrupt or fails to resume with any library error
(:class:`~repro.errors.ReproError`) quarantines that tenant with a
per-tenant error instead of aborting the fleet.

Every serve — static or memory-budgeted — runs the same per-tenant
*lifecycle*, one task per tenant: wait for an admission slot, hydrate
(start fresh, resume from the tenant's checkpoint, or rehydrate it
after a park), run the lanes until they stop, then stop.  Unbudgeted,
every tenant holds a slot from the start and stays attached until the
final checkpoint.  A ``memory_budget`` caps
the slots, so at most that many tenants hold live sessions at once:
an admitted tenant runs a slice (optionally capped at
``park_arrivals`` arrivals), then checkpoints, detaches its session
(*parks*) and queues for a slot again — a fleet larger than memory
degrades to bounded-resident instead of OOM, and the netted
oracle-call accounting keeps parked tenants' totals bit-identical to
an unbudgeted serve.

Tenants on the same workload (same :func:`~repro.online.session.workload_key`)
share one utility and one memoising value oracle through a
:class:`~repro.online.session.WorkloadCache`; each tenant still bills
its own queries through its own counting wrapper.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.oracle import CountingOracle
from repro.errors import InvalidInstanceError, ReproError
from repro.online.checkpoint import (
    IdleCheckpointPolicy,
    read_tenant_checkpoint,
    write_tenant_checkpoint,
)
from repro.online.driver import OnlineRun
from repro.online.faults import (
    FaultInjector,
    FaultPlan,
    InjectedFault,
    PermanentFault,
    install_injector,
)
from repro.online.session import (
    OnlineSession,
    ShardedSession,
    WorkloadCache,
    resume_any_session,
    start_session,
    start_sharded_session,
)

__all__ = [
    "ServingLoop",
    "TenantSpec",
    "load_tenant_specs",
]

#: Recipe fields a tenant spec (or its defaults block) may set.
_SPEC_FIELDS = (
    "policy",
    "family",
    "n",
    "k",
    "seed",
    "process",
    "aux",
    "n_knapsacks",
    "distribution",
    "process_params",
    "shards",
)

#: Recipe fields that take a JSON integer.
_INT_FIELDS = ("n", "k", "seed", "aux", "n_knapsacks", "shards")

OnDecision = Callable[[str, int, object], None]


def _json_int(value: object, field: str) -> int:
    """*value* if it is a JSON integer (not a bool or float), else an error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInstanceError(
            f"{field} must be a JSON integer, got {value!r}"
        )
    return value


class TenantSpec:
    """One tenant's workload recipe plus its serving identity.

    A thin, validated bundle of the :func:`~repro.online.session.start_session`
    keyword surface (``shards > 1`` routes to the sharded starter) under
    a unique ``tenant_id`` — the name of the tenant's checkpoint
    directory under the serve root.
    """

    def __init__(
        self,
        tenant_id: str,
        *,
        policy: str = "monotone",
        family: str = "additive",
        n: int = 60,
        k: int = 4,
        seed: int = 0,
        process: str = "uniform",
        aux: int = 0,
        n_knapsacks: int = 2,
        distribution: str = "uniform",
        process_params: Optional[Mapping[str, object]] = None,
        shards: int = 1,
    ) -> None:
        """Validate and freeze one tenant's recipe fields."""
        tenant_id = str(tenant_id)
        if not tenant_id:
            raise InvalidInstanceError("tenant id must be non-empty")
        if int(shards) < 1:
            raise InvalidInstanceError(
                f"tenant {tenant_id!r}: shards must be >= 1, got {shards}"
            )
        self.tenant_id = tenant_id
        self.policy = str(policy)
        self.family = str(family)
        self.n = int(n)
        self.k = int(k)
        self.seed = int(seed)
        self.process = str(process)
        self.aux = int(aux)
        self.n_knapsacks = int(n_knapsacks)
        self.distribution = str(distribution)
        self.process_params = dict(process_params or {})
        self.shards = int(shards)

    @classmethod
    def from_mapping(
        cls,
        payload: Mapping[str, object],
        defaults: Optional[Mapping[str, object]] = None,
    ) -> "TenantSpec":
        """Build a spec from a JSON object, merged over *defaults*.

        Unknown keys are rejected (a typoed field silently reverting to
        its default would change the tenant's stream), and so are JSON
        values of the wrong type: a float or bool ``n`` would otherwise
        be truncated into a different stream.
        """
        merged: Dict[str, object] = dict(defaults or {})
        merged.update(payload)
        tenant_id = merged.pop("id", None)
        if tenant_id is None:
            raise InvalidInstanceError("tenant spec needs an 'id' field")
        unknown = sorted(set(merged) - set(_SPEC_FIELDS))
        if unknown:
            raise InvalidInstanceError(
                f"tenant {tenant_id!r}: unknown spec fields {unknown}; "
                f"known: {sorted(_SPEC_FIELDS)}"
            )
        for field in _INT_FIELDS:
            if field in merged:
                _json_int(merged[field], f"tenant {tenant_id!r}: {field!r}")
        params = merged.get("process_params", {})
        if not isinstance(params, Mapping):
            raise InvalidInstanceError(
                f"tenant {tenant_id!r}: 'process_params' must be a JSON "
                f"object, got {params!r}"
            )
        return cls(str(tenant_id), **merged)  # type: ignore[arg-type]

    def start(
        self,
        workload_cache: Optional[WorkloadCache] = None,
        *,
        fault_injector: Optional[FaultInjector] = None,
        fault_scope: Optional[str] = None,
    ) -> Union[OnlineSession, ShardedSession]:
        """Start a fresh session for this tenant (sharded when asked)."""
        kwargs = dict(
            policy=self.policy,
            family=self.family,
            n=self.n,
            k=self.k,
            seed=self.seed,
            process=self.process,
            aux=self.aux,
            n_knapsacks=self.n_knapsacks,
            distribution=self.distribution,
            process_params=self.process_params,
            workload_cache=workload_cache,
            fault_injector=fault_injector,
            fault_scope=fault_scope or self.tenant_id,
        )
        if self.shards > 1:
            return start_sharded_session(shards=self.shards, **kwargs)  # type: ignore[arg-type]
        return start_session(**kwargs)  # type: ignore[arg-type]

    def checkpoint_drift(self, checkpoint: Mapping[str, object]) -> List[str]:
        """Where *checkpoint*'s embedded workload recipe differs from this spec.

        One ``"field: checkpoint X, spec Y"`` entry per differing recipe
        field (a resume rebuilds the checkpoint's workload, not the
        spec's).  ``shards`` is exempt: ``repro online reshard`` changes
        it legitimately.
        """
        recipe = checkpoint.get("instance")
        if not isinstance(recipe, Mapping):
            return []  # the resume itself rejects a recipe-less checkpoint
        drift = []
        for field in _SPEC_FIELDS:
            want = json.loads(json.dumps(getattr(self, field)))
            if field != "shards" and recipe.get(field) != want:
                drift.append(
                    f"{field}: checkpoint {recipe.get(field)!r}, spec {want!r}"
                )
        return drift


def load_tenant_specs(payload: object) -> List[TenantSpec]:
    """Parse a serve spec document into a validated tenant list.

    Accepts either a bare JSON list of tenant objects, or an object
    with any of:

    ``defaults``
        Recipe fields merged under every tenant entry.
    ``tenants``
        Explicit tenant objects (each needs a unique ``id``).
    ``replicate``
        Bulk stanza: ``{"count": N, "id_format": "bulk-{index:04d}",
        "seed_start": S, ...recipe fields...}`` expands to *N* tenants
        with consecutive seeds — ``{index}`` and ``{seed}`` interpolate
        into the id — so a hundred-tenant serve is three lines of spec.
    """
    if isinstance(payload, list):
        payload = {"tenants": payload}
    if not isinstance(payload, Mapping):
        raise InvalidInstanceError(
            "serve spec must be a JSON object or a list of tenant objects"
        )
    defaults = payload.get("defaults") or {}
    if not isinstance(defaults, Mapping):
        raise InvalidInstanceError("'defaults' must be an object")
    specs: List[TenantSpec] = []
    tenants = payload.get("tenants") or []
    if not isinstance(tenants, list):
        raise InvalidInstanceError("'tenants' must be a list")
    for entry in tenants:
        if not isinstance(entry, Mapping):
            raise InvalidInstanceError("each tenant entry must be an object")
        specs.append(TenantSpec.from_mapping(entry, defaults))
    replicate = payload.get("replicate")
    if replicate is not None:
        if not isinstance(replicate, Mapping):
            raise InvalidInstanceError("'replicate' must be an object")
        replicate = dict(replicate)
        count = _json_int(replicate.pop("count", 0), "'replicate.count'")
        if count < 1:
            raise InvalidInstanceError("'replicate.count' must be >= 1")
        id_format = replicate.pop("id_format", "tenant-{index:04d}")
        seed_start = _json_int(
            replicate.pop("seed_start", 0), "'replicate.seed_start'"
        )
        for index in range(count):
            seed = seed_start + index
            try:
                tenant_id = id_format.format(index=index, seed=seed)  # type: ignore[union-attr]
            except (AttributeError, IndexError, KeyError, TypeError,
                    ValueError) as exc:
                raise InvalidInstanceError(
                    f"'replicate.id_format' {id_format!r} is not an id "
                    f"template over {{index}} and {{seed}}: {exc!r}"
                ) from exc
            entry = {**replicate, "id": tenant_id, "seed": seed}
            specs.append(TenantSpec.from_mapping(entry, defaults))
    if not specs:
        raise InvalidInstanceError("serve spec declares no tenants")
    seen: Dict[str, int] = {}
    for spec in specs:
        if spec.tenant_id in seen:
            raise InvalidInstanceError(
                f"duplicate tenant id {spec.tenant_id!r} in serve spec"
            )
        seen[spec.tenant_id] = 1
    return specs


class _Lane:
    """One shard of one tenant: the run its coroutine feeds, step by step."""

    def __init__(
        self, run: OnlineRun, counting: Optional[CountingOracle] = None,
    ) -> None:
        self.run = run
        #: The lane's own counting oracle — what the guarded feed
        #: snapshots and rolls back so a retried batch bills exactly
        #: once (plain sessions have one lane/counter; sharded sessions
        #: one per shard, in shard order).
        self.counting = counting
        #: Steps taken from the source but not yet fed to the policy
        #: (0 or 1).  Incremented synchronously with ``take()`` (no
        #: await between), so at every loop suspension point ``cursor -
        #: consumed`` equals ``in_flight`` exactly — the quiescence
        #: invariant checkpoints rely on.
        self.in_flight = 0
        self.max_in_flight = 0


class _Tenant:
    """Runtime state for one tenant: session, lanes, serving counters.

    The session is *detachable*: a memory-budgeted serve parks a tenant
    by checkpointing and dropping its session (and lanes), then
    re-attaches a resumed session on the next admission.  Reportable
    facts survive detachment in ``_stash``; cumulative quantities
    (cursor, decisions, oracle calls) need no summation because the
    checkpoint codec already carries them across hops.
    """

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.session: Optional[Union[OnlineSession, ShardedSession]] = None
        self.lanes: List[_Lane] = []
        self.resumed = False
        #: Lifecycle state: ``pending`` (no session yet), ``running``,
        #: or ``quarantined`` (terminal: its lanes stop).  ``finished`` /
        #: ``drained`` / ``parked`` are derived at report time.
        self.state = "pending"
        self.error: Optional[str] = None
        self.retries = 0
        self.retry_delays: List[float] = []
        self.strikes = 0
        self.parks = 0
        self.rehydrations = 0
        self.arrivals = 0
        self.batches = 0
        self.last_activity = time.perf_counter()
        self.idle_checkpoints = 0
        self.checkpoint_seconds: List[float] = []
        self.checkpoint_path: Optional[str] = None
        self.final_summary: Optional[Dict[str, object]] = None
        self._stash: Dict[str, object] = {
            "cursor": 0,
            "decisions": 0,
            "oracle_calls": 0,
            "finished": False,
            "max_in_flight": 0,
        }

    def attach(
        self,
        session: Union[OnlineSession, ShardedSession],
        *,
        resumed: bool = False,
    ) -> None:
        """Adopt a live session: build one lane (+ counter) per shard."""
        self.session = session
        self.resumed = self.resumed or resumed
        if isinstance(session, ShardedSession):
            runs = session.run.runs
            countings: List[Optional[CountingOracle]] = list(session.countings)
        else:
            runs = [session.run]
            countings = [session.counting]
        self.lanes = [
            _Lane(run, counting) for run, counting in zip(runs, countings)
        ]
        self.state = "running"

    def detach(self) -> None:
        """Release the session (park/finish), stashing reportable facts."""
        assert self.session is not None
        self._stash = {
            "cursor": self.cursor,
            "decisions": self.decisions,
            "oracle_calls": self.session.oracle_calls,
            "finished": self.session.finished,
            "max_in_flight": self.max_in_flight,
        }
        self.session = None
        self.lanes = []

    @property
    def quiescent(self) -> bool:
        """No lane holds a taken-but-unfed step."""
        return all(lane.in_flight == 0 for lane in self.lanes)

    @property
    def finished(self) -> bool:
        if self.session is not None:
            return self.session.finished
        return bool(self._stash["finished"])

    @property
    def cursor(self) -> int:
        if self.session is not None:
            return sum(lane.run.cursor for lane in self.lanes)
        return int(self._stash["cursor"])  # type: ignore[arg-type]

    @property
    def decisions(self) -> int:
        if self.session is not None:
            return sum(len(lane.run.decisions) for lane in self.lanes)
        return int(self._stash["decisions"])  # type: ignore[arg-type]

    @property
    def oracle_calls(self) -> int:
        if self.session is not None:
            return self.session.oracle_calls
        return int(self._stash["oracle_calls"])  # type: ignore[arg-type]

    @property
    def max_in_flight(self) -> int:
        live = max((lane.max_in_flight for lane in self.lanes), default=0)
        return max(int(self._stash["max_in_flight"]), live)  # type: ignore[arg-type]


class ServingLoop:
    """Drive many tenant sessions concurrently in one asyncio loop.

    One lifecycle task per tenant (see the module docstring) moves it
    through ``pending`` → ``running`` → ``finished`` / ``drained`` /
    ``quarantined``; budgeted tenants cycle through ``parked`` between
    slices.
    The first wave — every tenant, or the first ``memory_budget`` of
    them — hydrates before the serve's first await, so no lane waits
    behind the whole fleet's start-up.

    Parameters
    ----------
    specs:
        The tenants to serve (see :func:`load_tenant_specs`).
    checkpoint_root:
        Directory that receives one subdirectory per tenant (percent-
        encoded id).  ``None`` disables checkpointing entirely.
    idle_policy:
        :class:`~repro.online.checkpoint.IdleCheckpointPolicy` deciding
        when a quiescent tenant is worth snapshotting mid-serve.
        ``None`` checkpoints only at drain/finish.
    workload_cache:
        Shared :class:`~repro.online.session.WorkloadCache`; defaults to
        a fresh one per serve (sharing across same-workload tenants).
    pace_seconds:
        Lane sleep after each fed step — simulates real arrival gaps
        (and gives the idle monitor something to notice).
    resume:
        Resume any tenant whose checkpoint exists under
        *checkpoint_root* instead of starting it fresh.  A corrupt
        per-tenant checkpoint quarantines that tenant (with its error
        in the summary) instead of aborting the fleet.
    on_decision:
        ``callback(tenant_id, position, element)`` streamed every hire,
        in consume order — the per-tenant decision feed.
    fault_plan:
        :class:`~repro.online.faults.FaultPlan` to execute during the
        serve (also installed process-globally so checkpoint-write kill
        sites fire).  ``None`` serves the plain, zero-overhead path.
    memory_budget:
        Maximum tenants resident (holding live sessions) at once; the
        rest wait parked in their per-tenant checkpoints.  Requires
        *checkpoint_root*; incompatible with *idle_policy* (parking
        already checkpoints on every eviction).
    park_arrivals:
        Arrivals an admitted tenant may consume per slice before it is
        parked and the next tenant admitted (``None`` = run to
        completion once admitted).  Requires *memory_budget*.
    """

    def __init__(
        self,
        specs: Sequence[TenantSpec],
        *,
        checkpoint_root: Optional[str] = None,
        idle_policy: Optional[IdleCheckpointPolicy] = None,
        workload_cache: Optional[WorkloadCache] = None,
        pace_seconds: float = 0.0,
        resume: bool = False,
        on_decision: Optional[OnDecision] = None,
        fault_plan: Optional[FaultPlan] = None,
        memory_budget: Optional[int] = None,
        park_arrivals: Optional[int] = None,
    ) -> None:
        """Validate knobs and stage the serve (no sessions built yet)."""
        if not specs:
            raise InvalidInstanceError("nothing to serve: no tenant specs")
        if memory_budget is not None:
            if int(memory_budget) < 1:
                raise InvalidInstanceError(
                    f"memory_budget must be >= 1, got {memory_budget}"
                )
            if checkpoint_root is None:
                raise InvalidInstanceError(
                    "memory_budget needs checkpoint_root: parked tenants "
                    "live in their per-tenant checkpoints"
                )
            if idle_policy is not None:
                raise InvalidInstanceError(
                    "memory_budget and idle_policy are mutually exclusive "
                    "(parking already checkpoints on every eviction)"
                )
        if park_arrivals is not None:
            if memory_budget is None:
                raise InvalidInstanceError("park_arrivals needs memory_budget")
            if int(park_arrivals) < 1:
                raise InvalidInstanceError(
                    f"park_arrivals must be >= 1, got {park_arrivals}"
                )
        self.specs = list(specs)
        self.checkpoint_root = checkpoint_root
        self.idle_policy = idle_policy
        self.workload_cache = (
            WorkloadCache() if workload_cache is None else workload_cache
        )
        self.pace_seconds = float(pace_seconds)
        self.resume = bool(resume)
        self.on_decision = on_decision
        self.fault_plan = fault_plan
        self.fault_injector = (
            None if fault_plan is None else FaultInjector(fault_plan)
        )
        self.memory_budget = (
            None if memory_budget is None else int(memory_budget)
        )
        self.park_arrivals = (
            None if park_arrivals is None else int(park_arrivals)
        )
        self._tenants: List[_Tenant] = []
        self._draining = False
        self._wall_seconds = 0.0
        #: Tenants admitted and not yet stopped or parked: the loop
        #: condition of the idle monitor.
        self._live = 0
        self._max_resident = 0

    # -- lifecycle -------------------------------------------------------

    def request_drain(self) -> None:
        """Stop pulling new arrivals; finish in-flight work, checkpoint.

        Safe to call from a signal handler registered on the running
        loop: lanes observe the flag before their next ``take`` and stop
        once their in-flight step is fed, and the finalize step
        snapshots every tenant.
        """
        self._draining = True

    def serve(self) -> Dict[str, object]:
        """Run the serve to completion (or drain) and return the report."""
        return asyncio.run(self.serve_async())

    async def serve_async(
        self, *, install_signals: bool = False
    ) -> Dict[str, object]:
        """Async entry point: build tenants, run all lanes, finalize.

        With ``install_signals=True`` the loop's SIGINT *and* SIGTERM
        handlers become :meth:`request_drain` for the duration of the
        serve — Ctrl-C and an orchestrator's shutdown signal both mean
        "drain and checkpoint", not "drop state on the floor".
        """
        started = time.perf_counter()
        loop = asyncio.get_running_loop()
        installed: List[object] = []
        if install_signals:
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, self.request_drain)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # platforms without signal support serve without it
        previous_injector = None
        if self.fault_injector is not None:
            # Global install lets the checkpoint-write fault sites fire;
            # the previous injector is restored so faulted scopes nest.
            previous_injector = install_injector(self.fault_injector)
        try:
            await self._serve()
            self._finalize()
        finally:
            if self.fault_injector is not None:
                install_injector(previous_injector)
            for sig in installed:
                loop.remove_signal_handler(sig)  # type: ignore[arg-type]
        self._wall_seconds = time.perf_counter() - started
        return self.report()

    async def _serve(self) -> None:
        """Run one lifecycle task per tenant until every one has stopped.

        At most ``memory_budget`` tenants (unbudgeted: all of them) are
        admitted at once.  The first wave hydrates here, before the
        serve's first await: inside the lifecycle tasks a whole fleet's
        start-up would run in one event-loop pass, stalling every lane.
        """
        slots = self.memory_budget or len(self.specs)
        self._tenants = [_Tenant(spec) for spec in self.specs]
        for tenant in self._tenants[:slots]:
            self._admit(tenant)
        self._admission = asyncio.Semaphore(slots - self._live)
        tasks = [asyncio.ensure_future(self._lifecycle(t)) for t in self._tenants]
        if self.idle_policy is not None and self.checkpoint_root is not None:
            tasks.append(asyncio.ensure_future(self._monitor()))
        await asyncio.gather(*tasks)

    async def _lifecycle(self, tenant: _Tenant) -> None:
        """Admit → hydrate → run → stop, or (budgeted) park and queue again.

        A first-wave tenant starts admitted (or quarantined); any other
        waits for an admission slot first.
        """
        while tenant.state != "quarantined":
            if tenant.session is None:
                await self._admission.acquire()
                if not self._admit(tenant):
                    self._admission.release()
                    return
            await asyncio.gather(
                *(self._lane(tenant, lane) for lane in tenant.lanes)
            )
            self._live -= 1
            parked = self._park(tenant)
            self._admission.release()
            if not parked:
                return
            await asyncio.sleep(0)  # queue again behind waiting tenants

    def _admit(self, tenant: _Tenant) -> bool:
        """Hydrate *tenant* into a slot; ``False`` leaves the slot free.

        A drain leaves an already-parked tenant parked (its checkpoint
        is already written); a corrupt checkpoint quarantines it.
        """
        if (self._draining and tenant.parks > 0) or not self._hydrate(tenant):
            return False
        self._live += 1
        self._max_resident = max(self._max_resident, self._live)
        return True

    def _park(self, tenant: _Tenant) -> bool:
        """Checkpoint and detach a budgeted tenant; ``True``: queue again.

        Unbudgeted tenants stay attached until :meth:`_finalize` (a
        sharded tenant's merge bills in the report step), and
        quarantined ones keep their session for reporting while their
        last complete checkpoint stays untouched on disk.
        """
        if self.memory_budget is None or tenant.state == "quarantined":
            return False
        finished = tenant.finished
        if finished:
            # Summarise (sharded merge bills here) *before* the stash
            # snapshots oracle_calls.
            tenant.final_summary = tenant.session.summary()  # type: ignore[union-attr]
        self._write_checkpoint(tenant)
        tenant.detach()
        if finished or self._draining:
            return False
        tenant.parks += 1
        return True

    def _hydrate(self, tenant: _Tenant) -> bool:
        """Attach a live session (fresh, resumed, or rehydrated).

        Returns ``False`` — after quarantining the tenant — when its
        checkpoint is corrupt, records another workload than the spec,
        or fails to resume, or its spec fails to start, with any library
        error (:class:`ReproError`); the rest of the fleet is unaffected.
        Programming errors such as ``TypeError`` still propagate.
        """
        spec = tenant.spec
        if self.checkpoint_root is not None and (
            self.resume or tenant.parks > 0
        ):
            try:
                payload = read_tenant_checkpoint(
                    self.checkpoint_root, spec.tenant_id
                )
            except InvalidInstanceError as exc:
                self._quarantine(tenant, f"unreadable checkpoint: {exc}")
                return False
            if payload is not None:
                drift = spec.checkpoint_drift(payload)
                if drift:
                    self._quarantine(
                        tenant,
                        "checkpoint workload does not match the spec: "
                        + "; ".join(drift),
                    )
                    return False
                try:
                    session = resume_any_session(
                        payload,
                        workload_cache=self.workload_cache,
                        fault_injector=self.fault_injector,
                        fault_scope=spec.tenant_id,
                    )
                except ReproError as exc:
                    self._quarantine(tenant, f"checkpoint resume failed: {exc}")
                    return False
                tenant.attach(session, resumed=tenant.parks == 0)
                if tenant.parks > 0:
                    tenant.rehydrations += 1
                return True
        try:
            session = spec.start(
                self.workload_cache,
                fault_injector=self.fault_injector,
                fault_scope=spec.tenant_id,
            )
        except ReproError as exc:
            self._quarantine(tenant, f"session start failed: {exc}")
            return False
        tenant.attach(session)
        return True

    def _quarantine(self, tenant: _Tenant, error: str) -> None:
        """Isolate *tenant*: stop its lanes, record the error, move on.

        Its last complete checkpoint (if any) is left untouched — the
        finalize pass skips quarantined tenants — so an operator can
        inspect or resume it after fixing the cause.
        """
        tenant.state = "quarantined"
        tenant.error = str(error)

    # -- tasks -----------------------------------------------------------

    async def _lane(self, tenant: _Tenant, lane: _Lane) -> None:
        """Take one step, feed it and yield once per loop pass, until done.

        ``take`` and the ``in_flight`` increment run without an
        intervening await, so the quiescence invariant (cursor ==
        consumed + in_flight at every suspension point) holds.  Stops on
        source exhaustion, policy completion, drain, quarantine, or an
        exhausted ``park_arrivals`` slice; a step taken before a
        quarantine is never fed.
        """
        run = lane.run
        quota = self.park_arrivals
        pulled = 0
        while (
            not self._draining
            and tenant.state != "quarantined"
            and not run.policy.done
            and (quota is None or pulled < quota)
        ):
            step = run.source.take()
            if step is None:
                return
            lane.in_flight += 1
            lane.max_in_flight = max(lane.max_in_flight, lane.in_flight)
            pos0, batch, _stamps = step
            pulled += len(batch)
            await self._before_feed(tenant, lane)
            if tenant.state == "quarantined":
                return  # quarantined while the seam awaited
            logged = len(run.decisions)
            if self.fault_injector is None:
                run.feed(pos0, batch)
            elif not await self._feed_guarded(tenant, lane, pos0, batch):
                return  # quarantined: the step stays unfed
            lane.in_flight -= 1
            tenant.arrivals += len(batch)
            tenant.batches += 1
            tenant.last_activity = time.perf_counter()
            if self.on_decision is not None:
                for position, element in run.decisions[logged:]:
                    self.on_decision(tenant.spec.tenant_id, position, element)
            # Fairness: one step per loop pass (unpaced: a bare yield).
            await asyncio.sleep(self.pace_seconds)

    async def _before_feed(self, tenant: _Tenant, lane: _Lane) -> None:
        """Seam between a lane's ``take`` and its feed — does nothing.

        Subclasses (and the backpressure tests) override this to stall a
        tenant's lane the way a slow oracle would: while it waits, that
        lane holds its one taken step in flight and takes no other, and
        every other lane keeps streaming.
        """
        return None

    async def _feed_guarded(
        self, tenant: _Tenant, lane: _Lane, pos0: int, batch: Sequence
    ) -> bool:
        """Feed one batch transactionally under the fault plan.

        Each attempt brackets :meth:`OnlineRun.feed` with a snapshot of
        the mutable run state plus the lane's counting-oracle tally; an
        :class:`InjectedFault` rolls both back, so the eventual
        successful attempt bills exactly the unfaulted run's queries.
        Transient faults retry on the plan's deterministic backoff
        schedule up to ``max_attempts`` total attempts; each permanent
        fault is a strike, and ``max_strikes`` of them — or an
        exhausted retry budget — quarantine the tenant.  Returns whether
        the batch was actually consumed.
        """
        run = lane.run
        injector = self.fault_injector
        assert injector is not None
        retry = injector.plan.retry
        scope = tenant.spec.tenant_id
        attempt = 0
        while True:
            snap = run.snapshot()
            calls_before = (
                None if lane.counting is None else lane.counting.calls
            )
            try:
                delay = injector.hit("serve.feed", scope)
                if delay > 0.0:
                    await asyncio.sleep(delay)
                run.feed(pos0, batch)
                return True
            except InjectedFault as exc:
                # Rollback order matters: load_state may itself bill
                # restore queries, so the counter resets last.
                run.rollback(snap)
                if calls_before is not None:
                    lane.counting.calls = calls_before
                if isinstance(exc, PermanentFault):
                    tenant.strikes += 1
                    if tenant.strikes >= retry.max_strikes:
                        self._quarantine(
                            tenant,
                            f"quarantined after {tenant.strikes} permanent "
                            f"fault strikes: {exc}",
                        )
                        return False
                attempt += 1
                if attempt >= retry.max_attempts:
                    self._quarantine(
                        tenant,
                        f"fault persisted through {attempt} feed attempts: "
                        f"{exc}",
                    )
                    return False
                backoff = retry.delay(injector.plan.seed, scope, attempt)
                tenant.retries += 1
                tenant.retry_delays.append(backoff)
                await asyncio.sleep(backoff)

    async def _monitor(self) -> None:
        """Checkpoint idle tenants while the serve is running.

        A tenant qualifies when it is live (not quarantined or parked),
        unfinished, quiescent (no in-flight step, so its snapshot is
        consistent), and its :class:`IdleCheckpointPolicy` says the idle
        time and progress since the last snapshot are worth the write.
        """
        policy = self.idle_policy
        assert policy is not None
        tick = max(policy.idle_seconds / 2.0, 0.005)
        while self._live > 0:
            await asyncio.sleep(tick)
            now = time.perf_counter()
            for tenant in self._tenants:
                if tenant.session is None or tenant.state == "quarantined":
                    continue
                if tenant.finished or not tenant.quiescent:
                    continue
                idle_for = now - tenant.last_activity
                if policy.due(tenant.spec.tenant_id, tenant.cursor, idle_for):
                    self._write_checkpoint(tenant)
                    tenant.idle_checkpoints += 1
                    policy.note_checkpoint(tenant.spec.tenant_id, tenant.cursor)

    # -- checkpointing ---------------------------------------------------

    def _write_checkpoint(self, tenant: _Tenant) -> None:
        """Atomically snapshot *tenant* to its directory (synchronous)."""
        assert self.checkpoint_root is not None
        assert tenant.session is not None
        t0 = time.perf_counter()
        tenant.checkpoint_path = write_tenant_checkpoint(
            tenant.session.checkpoint(),
            self.checkpoint_root,
            tenant.spec.tenant_id,
        )
        tenant.checkpoint_seconds.append(time.perf_counter() - t0)

    def _finalize(self) -> None:
        """Snapshot every live tenant once all lanes have stopped.

        Every lane coroutine has returned, so every live tenant is
        quiescent; the snapshot is exact whether the tenant finished or
        was drained mid-stream — either way its checkpoint resumes.
        Quarantined tenants are skipped: their last *complete* checkpoint
        is the recovery point, and overwriting it with post-fault state
        would destroy it.  Parked tenants already checkpointed at
        eviction.
        """
        if self.checkpoint_root is None:
            return
        for tenant in self._tenants:
            if tenant.session is None or tenant.state == "quarantined":
                continue
            self._write_checkpoint(tenant)

    # -- reporting -------------------------------------------------------

    def _tenant_state(self, tenant: _Tenant) -> str:
        """The tenant's terminal state label for reports."""
        if tenant.state == "quarantined":
            return "quarantined"
        if tenant.finished:
            return "finished"
        if tenant.session is None and tenant.parks > 0:
            return "parked"
        if self._draining:
            return "drained"
        return tenant.state

    def _tenant_report(self, tenant: _Tenant) -> Dict[str, object]:
        # Finish first: a sharded tenant's merge stage runs (and bills
        # its merge_calls) inside result(), so the summary must be
        # computed before oracle_calls is read.  Detached (parked or
        # budget-finished) tenants report their stashed summary.
        if tenant.session is not None and tenant.finished:
            summary = tenant.session.summary()
        else:
            summary = tenant.final_summary
        out: Dict[str, object] = {
            "policy": tenant.spec.policy,
            "family": tenant.spec.family,
            "process": tenant.spec.process,
            "shards": tenant.spec.shards,
            "n": tenant.spec.n,
            "cursor": tenant.cursor,
            "arrivals": tenant.arrivals,
            "batches": tenant.batches,
            "decisions": tenant.decisions,
            "finished": tenant.finished,
            "resumed": tenant.resumed,
            "state": self._tenant_state(tenant),
            "oracle_calls": tenant.oracle_calls,
            "max_in_flight": tenant.max_in_flight,
            "idle_checkpoints": tenant.idle_checkpoints,
            "checkpoint_path": tenant.checkpoint_path,
        }
        if tenant.error is not None:
            out["error"] = tenant.error
        if self.fault_injector is not None:
            out["retries"] = tenant.retries
            out["strikes"] = tenant.strikes
            out["retry_delays"] = list(tenant.retry_delays)
        if self.memory_budget is not None:
            out["parks"] = tenant.parks
            out["rehydrations"] = tenant.rehydrations
        if summary is not None:
            for key in ("selected", "n_chosen", "value", "strategy"):
                if key in summary:
                    out[key] = summary[key]
        return out

    def report(self) -> Dict[str, object]:
        """The whole serve's JSON-friendly report (per tenant + totals)."""
        tenants = {
            t.spec.tenant_id: self._tenant_report(t) for t in self._tenants
        }
        arrivals = sum(t.arrivals for t in self._tenants)
        latencies = [
            s for t in self._tenants for s in t.checkpoint_seconds
        ]
        totals: Dict[str, object] = {
            "tenants": len(self._tenants),
            "finished": sum(1 for t in self._tenants if t.finished),
            "resumed": sum(1 for t in self._tenants if t.resumed),
            "quarantined": sum(
                1 for t in self._tenants if t.state == "quarantined"
            ),
            "arrivals": arrivals,
            "decisions": sum(t.decisions for t in self._tenants),
            "oracle_calls": sum(t.oracle_calls for t in self._tenants),
            "idle_checkpoints": sum(
                t.idle_checkpoints for t in self._tenants
            ),
            "max_in_flight": max(
                (t.max_in_flight for t in self._tenants), default=0
            ),
            "drained": self._draining,
            "wall_seconds": self._wall_seconds,
            "arrivals_per_second": (
                arrivals / self._wall_seconds
                if self._wall_seconds > 0 else None
            ),
        }
        if self.fault_injector is not None:
            totals["retries"] = sum(t.retries for t in self._tenants)
            totals["strikes"] = sum(t.strikes for t in self._tenants)
        if self.memory_budget is not None:
            totals["memory_budget"] = self.memory_budget
            totals["max_resident"] = self._max_resident
            totals["parks"] = sum(t.parks for t in self._tenants)
            totals["rehydrations"] = sum(
                t.rehydrations for t in self._tenants
            )
        report: Dict[str, object] = {
            "tenants": tenants,
            "totals": totals,
            "workload_cache": self.workload_cache.stats(),
        }
        if self.fault_injector is not None:
            report["faults"] = self.fault_injector.stats()
        if latencies:
            report["checkpoint_latency"] = {
                "count": len(latencies),
                "mean_seconds": sum(latencies) / len(latencies),
                "max_seconds": max(latencies),
            }
        return report

