"""The unified online arrival runtime.

Three layers turn the per-algorithm arrival loops of the secretary
stack into one subsystem:

:mod:`repro.online.arrivals`
    Pluggable *arrival processes* — a registry of seed-derived stream
    generators (``uniform`` exactly reproduces the paper's random
    permutation; ``sorted_desc``/``sorted_asc``, ``bursty``,
    ``poisson``, ``sliding_window``, and ``replay`` add adversarial,
    minibatch, timestamped, nearly-sorted, and recorded replays) — and
    *arrival sources*: lazy generator-backed views of the same streams
    with O(1) suspend state (cursor + chained content fingerprint +
    RNG state), the substrate of the O(selected) checkpoint schema.
:mod:`repro.online.policies`
    Every online algorithm as an ``observe(pos, element)`` state
    machine with JSON-serializable state, sharing the segment/threshold
    machinery in :mod:`repro.online.runtime`.
:mod:`repro.online.driver` / :mod:`repro.online.checkpoint`
    The single-pass driver (vectorized: one kernel call per revealed
    minibatch) plus the checkpoint/resume codec; together they make a
    long stream suspendable at any arrival.

:mod:`repro.online.sharding`
    The sharded runtime: a stable-hash partition of one schedule into S
    shard schedules, one policy replica per shard, and a
    feasibility-aware marginal-gain merge — with manifest checkpoints
    whose shards resume independently.  S=1 is bit-identical to the
    unsharded driver.

:mod:`repro.online.session` packages workload + policy + process (and
shard count) into the self-contained resumable unit behind ``repro
online run/resume``.

:mod:`repro.online.serving` multiplexes many such sessions through one
asyncio loop — one coroutine per tenant lane, a shared
workload/value cache across same-workload tenants, idle checkpoints to
per-tenant directories, and drain-and-checkpoint on SIGINT — behind
``repro online serve``.
"""

from repro.online.arrivals import (
    ARRIVAL_PROCESSES,
    ARRIVAL_SOURCES,
    ArrivalFingerprint,
    ArrivalSchedule,
    ArrivalSource,
    BurstySource,
    ScheduleSource,
    arrival_process_names,
    as_arrival_source,
    build_arrival_schedule,
    build_arrival_source,
    register_arrival_process,
    register_arrival_source,
    source_from_spec,
)
from repro.online.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_SCHEMA_VERSION,
    SUPPORTED_CHECKPOINT_VERSIONS,
    IdleCheckpointPolicy,
    list_tenant_checkpoints,
    make_checkpoint,
    read_tenant_checkpoint,
    resume_run,
    tenant_checkpoint_path,
    write_tenant_checkpoint,
)
from repro.online.driver import ArrivalOracle, OnlineRun, run_online
from repro.online.serving import (
    ServingLoop,
    TenantSpec,
    load_tenant_specs,
)
from repro.online.session import (
    OnlineSession,
    ShardedSession,
    WorkloadCache,
    resume_any_session,
    start_session,
    start_sharded_session,
    workload_key,
)
from repro.online.sharding import (
    SHARDED_CHECKPOINT_FORMAT,
    ShardSource,
    ShardedRun,
    ShardView,
    make_sharded_checkpoint,
    merge_hires,
    resume_sharded_run,
    shard_of,
    shard_schedule,
)
from repro.online.policies import (
    POLICIES,
    BestSingletonPolicy,
    BottleneckPolicy,
    KnapsackSecretaryPolicy,
    MatroidSecretaryPolicy,
    OnlinePolicy,
    RobustTopKPolicy,
    SegmentedSubmodularPolicy,
    SubadditiveSegmentPolicy,
    make_policy,
    nonmonotone_half_policy,
    policy_names,
    register_policy,
)
from repro.online.results import (
    BottleneckResult,
    RobustResult,
    SecretaryResult,
    SegmentTrace,
)
from repro.online.runtime import observation_lengths, segment_bounds

__all__ = [
    "ARRIVAL_PROCESSES",
    "ARRIVAL_SOURCES",
    "ArrivalFingerprint",
    "ArrivalOracle",
    "ArrivalSchedule",
    "ArrivalSource",
    "BestSingletonPolicy",
    "BurstySource",
    "BottleneckPolicy",
    "BottleneckResult",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_SCHEMA_VERSION",
    "IdleCheckpointPolicy",
    "KnapsackSecretaryPolicy",
    "MatroidSecretaryPolicy",
    "OnlinePolicy",
    "OnlineRun",
    "OnlineSession",
    "POLICIES",
    "RobustResult",
    "RobustTopKPolicy",
    "SHARDED_CHECKPOINT_FORMAT",
    "SUPPORTED_CHECKPOINT_VERSIONS",
    "ScheduleSource",
    "SecretaryResult",
    "SegmentTrace",
    "SegmentedSubmodularPolicy",
    "ServingLoop",
    "ShardSource",
    "ShardView",
    "ShardedRun",
    "ShardedSession",
    "SubadditiveSegmentPolicy",
    "TenantSpec",
    "WorkloadCache",
    "arrival_process_names",
    "as_arrival_source",
    "build_arrival_schedule",
    "build_arrival_source",
    "list_tenant_checkpoints",
    "load_tenant_specs",
    "make_checkpoint",
    "make_policy",
    "make_sharded_checkpoint",
    "merge_hires",
    "nonmonotone_half_policy",
    "observation_lengths",
    "policy_names",
    "read_tenant_checkpoint",
    "register_policy",
    "register_arrival_process",
    "register_arrival_source",
    "resume_any_session",
    "resume_run",
    "source_from_spec",
    "resume_sharded_run",
    "run_online",
    "segment_bounds",
    "shard_of",
    "shard_schedule",
    "start_session",
    "start_sharded_session",
    "tenant_checkpoint_path",
    "workload_key",
    "write_tenant_checkpoint",
]
