"""Checkpoint/resume codec: JSON round-trip of a suspended online run.

Schema **v2** (the O(selected) layout): a checkpoint holds the arrival
*source spec* — ``(process, seed, params)`` plus the source's O(1)
suspend state (cursor, incremental fingerprint chain, RNG state) — the
append-only decision log, the resume *frontier* (the hired set plus any
arrivals the policy may still query), and the policy's config + mutable
state.  Nothing scales with the consumed prefix: resume rebuilds the
source from its spec, jumps it to the saved cursor, re-reveals only the
frontier, and restores the policy state machine — so suspend-at-any-
arrival followed by resume reproduces the uninterrupted run's hired set
exactly (the property suite asserts this for every policy × arrival
process), at O(selected) cost for million-arrival streams.

Schema **v1** (a full embedded schedule, with the consumed prefix
re-revealed on resume: O(stream) at both ends) is no longer read: such
a file, or one with no ``schema_version``, is refused with a clean
error.

The utility itself is not serialised — values can be arbitrarily large
objects and are already reproducible from workload seeds — so
:func:`resume_run` takes the rebuilt utility (and any non-serializable
policy dependencies such as matroids) from the caller; the CLI layer
(:mod:`repro.online.session`) stores the workload recipe alongside the
checkpoint to make that rebuild automatic.  The same holds for the
per-element workload maps three policies read (the knapsack rule's
reduced weights, the robust and bottleneck rules' singleton values):
they are never written, resume re-injects them from the recipe through
``deps``, and a map an older checkpoint still embeds in its policy
config is ignored.  A release before this layout cannot resume those
three policies' checkpoints written by this one.
"""

from __future__ import annotations

import os

from typing import Dict, Mapping, Optional
from urllib.parse import quote, unquote

from repro.core.submodular import SetFunction
from repro.errors import InvalidInstanceError
from repro.online.arrivals import ArrivalSource, _require, source_from_spec
from repro.online.driver import OnlineRun
from repro.online.policies import make_policy

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_SCHEMA_VERSION",
    "SHARDED_MANIFEST_SCHEMA_VERSION",
    "SUPPORTED_CHECKPOINT_VERSIONS",
    "SUPPORTED_MANIFEST_VERSIONS",
    "TENANT_CHECKPOINT_NAME",
    "IdleCheckpointPolicy",
    "check_schema_version",
    "list_tenant_checkpoints",
    "make_checkpoint",
    "read_tenant_checkpoint",
    "resume_run",
    "tenant_checkpoint_path",
    "write_tenant_checkpoint",
]

CHECKPOINT_FORMAT = "repro-online-checkpoint/1"

#: Version of the checkpoint payload schema.  v1 embedded the full
#: materialized schedule and re-revealed the consumed prefix on resume
#: (O(stream) at both ends); v2 stores a source spec + decision log +
#: frontier (O(selected)).  Payloads written before versioning carry no
#: marker and read as version 1; every version not listed below is
#: rejected up front with an actionable error instead of a ``KeyError``
#: deep inside a policy's ``from_config``.
CHECKPOINT_SCHEMA_VERSION = 2

#: Every schema version this release can read.
SUPPORTED_CHECKPOINT_VERSIONS = (2,)

#: Schema version of a *sharded manifest* that carries a partition-epoch
#: history (a ``"partition"`` block recording every reshard; see
#: :class:`repro.online.sharding.PartitionMap`).  A never-resharded
#: manifest keeps writing :data:`CHECKPOINT_SCHEMA_VERSION` with the old
#: single-epoch shard blocks, so its bytes are unchanged; only
#: :func:`repro.online.sharding.reshard_manifest` emits version 3.
SHARDED_MANIFEST_SCHEMA_VERSION = 3

#: Every sharded-manifest schema version this release can read (v2, and
#: v3 with the epoch history).
SUPPORTED_MANIFEST_VERSIONS = (2, 3)


def check_schema_version(
    payload: Mapping[str, object],
    what: str = "checkpoint",
    *,
    key: str = "schema_version",
    supported=SUPPORTED_CHECKPOINT_VERSIONS,
) -> None:
    """Reject payloads written under an unknown schema version.

    *supported* is a single version or a collection of readable ones.
    A payload without *key* reads as version 1.
    """
    version = payload.get(key, 1)
    ok = (
        tuple(supported)
        if isinstance(supported, (tuple, list, set, frozenset))
        else (supported,)
    )
    if version == 1 and 1 not in ok:
        raise InvalidInstanceError(
            f"{what} is schema version 1 (an embedded-schedule checkpoint "
            "written by a release before O(selected) checkpoints), which is "
            "no longer supported; re-run the stream with this release"
        )
    if version not in ok:
        shown = ", ".join(str(v) for v in ok)
        raise InvalidInstanceError(
            f"{what} schema version {version!r} is not supported by this "
            f"release (supported: {shown}); it was probably written "
            "by a different release — re-run the stream or resume with "
            "the release that wrote it"
        )


def _checked_elements(elements, what: str) -> list:
    out = []
    for e in elements:
        if not isinstance(e, (str, int)):
            raise InvalidInstanceError(
                f"checkpoint {what} with element {e!r} is not JSON "
                "round-trippable; checkpointable streams need str/int elements"
            )
        out.append(e)
    return out


def make_checkpoint(
    run: OnlineRun, extra: Optional[Mapping[str, object]] = None
) -> Dict[str, object]:
    """Serialise *run* as an O(selected) schema-v2 payload.

    The stream travels as ``(source spec, source state)``; hires travel
    as the decision log; the frontier lists what resume must re-reveal.
    *extra* is attached verbatim under ``"instance"`` — callers use it
    to record how to rebuild the utility (workload family, seed, ...).
    """
    decisions = [
        [int(pos), element]
        for pos, element in run.decisions
    ]
    _checked_elements((d[1] for d in decisions), "decision log")
    payload: Dict[str, object] = {
        "format": CHECKPOINT_FORMAT,
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "cursor": run.cursor,
        "source": {**run.source.spec(), "state": run.source.state_dict()},
        "decisions": decisions,
        "frontier": _checked_elements(run.policy.frontier(), "frontier"),
        "policy": {
            "name": run.policy.name,
            "config": run.policy.config_dict(),
            "state": run.policy.state_dict(),
        },
    }
    if extra is not None:
        payload["instance"] = dict(extra)
    return payload


def resume_run(
    checkpoint: Mapping[str, object],
    utility: SetFunction,
    *,
    deps: Optional[Mapping[str, object]] = None,
    source: Optional[ArrivalSource] = None,
) -> OnlineRun:
    """Rebuild a suspended :class:`OnlineRun` from *checkpoint*.

    Resume is O(selected): the source is rebuilt from its spec (or
    taken from the explicit *source* argument — the session layer
    passes one built over the uncounted base utility, so stream
    construction never inflates oracle-call accounting), jumped to the
    saved cursor, and only the frontier is re-revealed.

    The policy is rebuilt from the checkpoint's config; *deps* carries
    what the config cannot: non-serializable dependencies, and the
    per-element workload maps checkpoints never hold (``weights`` for
    the knapsack rule, ``values`` for the robust and bottleneck rules).

    A ``policy`` block that is not ``{"name": str, "config": object,
    "state": object}``, or a ``cursor`` that is not a JSON integer,
    raises :class:`~repro.errors.InvalidInstanceError` naming the field.
    """
    if checkpoint.get("format") != CHECKPOINT_FORMAT:
        raise InvalidInstanceError(
            f"not a {CHECKPOINT_FORMAT} payload: {checkpoint.get('format')!r}"
        )
    check_schema_version(checkpoint)
    spec = _require(checkpoint.get("policy"), Mapping, "policy", "an object")
    name = _require(spec.get("name"), str, "policy.name", "a string")
    config = _require(spec.get("config"), Mapping, "policy.config", "an object")
    _require(spec.get("state"), Mapping, "policy.state", "an object")
    _require(checkpoint.get("cursor"), int, "cursor", "an integer")
    policy = make_policy(name, config, **dict(deps or {}))
    if source is None:
        source = source_from_spec(checkpoint.get("source"), utility)  # type: ignore[arg-type]
    run = OnlineRun(utility, source, policy)
    run.restore(checkpoint)
    return run


# -- per-tenant checkpoint layout -------------------------------------------
#
# The serving layer (:mod:`repro.online.serving`) multiplexes many
# independent sessions ("tenants") per process; each tenant checkpoints
# into its own directory so tenants suspend, resume, and garbage-collect
# independently:
#
#     <root>/<encoded tenant id>/checkpoint.json
#
# Tenant ids are caller-chosen strings; the directory name percent-
# encodes anything outside ``[A-Za-z0-9._-]`` so arbitrary ids stay
# filesystem- and round-trip-safe.

#: File name of a tenant's current checkpoint inside its directory.
TENANT_CHECKPOINT_NAME = "checkpoint.json"

_TENANT_SAFE = "._-"


def _encode_tenant_id(tenant_id: str) -> str:
    """Percent-encode *tenant_id* into a safe directory name.

    ``""``, ``"."``, and ``".."`` are rejected outright — quote() would
    pass them through, and a directory by those names aliases the root
    or its parent.
    """
    tenant_id = str(tenant_id)
    if tenant_id in ("", ".", ".."):
        raise InvalidInstanceError(
            f"tenant id {tenant_id!r} cannot name a checkpoint directory"
        )
    return quote(tenant_id, safe=_TENANT_SAFE)


def tenant_checkpoint_path(root: str, tenant_id: str) -> str:
    """Where tenant *tenant_id* checkpoints under checkpoint root *root*."""
    return os.path.join(
        str(root), _encode_tenant_id(tenant_id), TENANT_CHECKPOINT_NAME
    )


def write_tenant_checkpoint(
    payload: Mapping[str, object], root: str, tenant_id: str
) -> str:
    """Atomically write *payload* as *tenant_id*'s current checkpoint.

    Creates the per-tenant directory on first use and returns the
    written path.  The write goes through
    :func:`repro.io.dump_json_atomic`, so a crash mid-write never
    truncates the checkpoint a resume depends on.

    Three fault sites bracket the write (scope = tenant id):
    ``checkpoint.before_write``, ``checkpoint.mid_write`` (inside the
    torn-write window, after the temp file but before the atomic
    rename), and ``checkpoint.after_write`` — the crash-consistency
    audit hard-kills at each to prove the atomicity claim above.
    """
    from repro.io import dump_json_atomic  # lazy: io imports scheduling
    from repro.online.faults import fault_hit  # lazy: faults imports numpy

    path = tenant_checkpoint_path(root, tenant_id)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fault_hit("checkpoint.before_write", tenant_id)
    dump_json_atomic(
        dict(payload),
        path,
        mid_write_hook=lambda: fault_hit("checkpoint.mid_write", tenant_id),
    )
    fault_hit("checkpoint.after_write", tenant_id)
    return path


def read_tenant_checkpoint(root: str, tenant_id: str) -> Optional[Dict[str, object]]:
    """The tenant's current checkpoint payload, or ``None`` if absent.

    Corrupt (non-UTF-8 / non-JSON / non-object) files raise
    :class:`~repro.errors.InvalidInstanceError` naming the file, the
    same contract as the CLI's checkpoint loader.
    """
    from repro.io import read_json  # lazy: io imports scheduling

    path = tenant_checkpoint_path(root, tenant_id)
    if not os.path.exists(path):
        return None
    payload = read_json(path, "tenant checkpoint")
    if not isinstance(payload, dict):
        raise InvalidInstanceError(f"tenant checkpoint {path} is not a JSON object")
    return payload


def list_tenant_checkpoints(root: str) -> Dict[str, str]:
    """Map tenant id -> checkpoint path for every tenant under *root*.

    Only directories that actually contain a
    :data:`TENANT_CHECKPOINT_NAME` file count; ids are decoded from
    their directory names, and the result is sorted by id so callers
    iterate deterministically.
    """
    if not os.path.isdir(root):
        return {}
    found = {}
    for entry in os.listdir(root):
        path = os.path.join(root, entry, TENANT_CHECKPOINT_NAME)
        if os.path.isfile(path):
            found[unquote(entry)] = path
    return dict(sorted(found.items()))


class IdleCheckpointPolicy:
    """When the serving loop checkpoints an idle tenant.

    A tenant is *quiescent* when no lane holds a taken-but-unfed batch;
    the serving loop asks this policy whether a quiescent tenant is
    *due* a checkpoint.  The defaults checkpoint a tenant after it has
    sat idle for ``idle_seconds`` — but only if its stream advanced at
    least ``min_progress`` arrivals since the last checkpoint, so a
    parked tenant is not re-serialised every poll.
    """

    def __init__(self, idle_seconds: float = 0.05, min_progress: int = 1) -> None:
        """Record the idle threshold and the minimum progress between writes."""
        if idle_seconds < 0:
            raise InvalidInstanceError(
                f"idle_seconds must be >= 0, got {idle_seconds}"
            )
        if min_progress < 1:
            raise InvalidInstanceError(
                f"min_progress must be >= 1, got {min_progress}"
            )
        self.idle_seconds = float(idle_seconds)
        self.min_progress = int(min_progress)
        self._last_cursor: Dict[str, int] = {}

    def due(self, tenant_id: str, cursor: int, idle_for: float) -> bool:
        """Whether a tenant idle for *idle_for* seconds should checkpoint now."""
        if idle_for < self.idle_seconds:
            return False
        last = self._last_cursor.get(str(tenant_id))
        return last is None or int(cursor) - last >= self.min_progress

    def note_checkpoint(self, tenant_id: str, cursor: int) -> None:
        """Record that the tenant just checkpointed at *cursor*."""
        self._last_cursor[str(tenant_id)] = int(cursor)

