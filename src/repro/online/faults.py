"""Seed-deterministic fault injection for the online serving runtime.

The paper's model is adversarial about *inputs* — arrival orders,
budgets, and value distributions are chosen against the algorithm — but
a production serve also faces adversarial *infrastructure*: oracles
that time out, latency spikes, and processes killed mid-checkpoint.
This module makes those failures a reproducible experiment instead of a
flake: a :class:`FaultPlan` (a small JSON document) names *sites* where
faults fire, and a :class:`FaultInjector` built from it injects exactly
the same faults, in exactly the same places, on every run with the same
seed.

Fault *sites* are short dotted strings the runtime calls
:func:`fault_hit` (or :meth:`FaultInjector.hit`) at:

``serve.feed``
    Once per batch, just before the serving loop feeds it to a tenant's
    policy (scope = tenant id).
``oracle.value`` / ``oracle.batch``
    Per value query / per batched kernel query of a wrapped counting
    oracle (see :meth:`FaultInjector.wrap_oracle`).
``checkpoint.before_write`` / ``checkpoint.mid_write`` /
``checkpoint.after_write``
    Around every per-tenant checkpoint write (scope = tenant id); the
    ``mid_write`` site fires after the temp file is written but before
    the atomic ``os.replace`` — the classic torn-write window.
``report.write``
    Just before the serve CLI writes its ``--output`` report.

A :class:`FaultRule` matches sites (and scopes) by ``fnmatch`` pattern
and fires either at explicit 1-based hit indices (``at``) or with a
seeded per-hit probability (``rate``).  Determinism holds per
``(site, scope)`` stream: hit counters are keyed by site *and* scope,
so one tenant's fault schedule never depends on how the event loop
interleaved it with other tenants.

Four fault kinds exist: ``transient`` raises :class:`TransientFault`
(the serving loop rolls the batch back and retries it under the plan's
:class:`RetryPolicy`), ``permanent`` raises :class:`PermanentFault`
(a strike; ``max_strikes`` of them quarantine the tenant), ``latency``
injects a sleep, and ``kill`` hard-stops the process with
``os._exit(137)`` — no atexit handlers, no flushes — which is what the
crash-consistency audit (``benchmarks/fault_smoke.py``) uses to prove
checkpoint writes are torn-write safe at every registered
:data:`KILL_SITES` point.
"""

from __future__ import annotations

import math
import os
import time

from fnmatch import fnmatchcase
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels import EvaluatorView
from repro.core.oracle import OracleWrapper
from repro.core.submodular import Element, SetFunction
from repro.engine.hashing import derive_seed
from repro.errors import InvalidInstanceError

__all__ = [
    "FAULT_KINDS",
    "FAULT_PLAN_FORMAT",
    "KILL_EXIT_CODE",
    "KILL_SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FaultyOracle",
    "InjectedFault",
    "PermanentFault",
    "RetryPolicy",
    "TransientFault",
    "clear_injector",
    "current_injector",
    "fault_hit",
    "install_injector",
    "load_fault_plan",
]

#: Format marker of a fault-plan JSON document.
FAULT_PLAN_FORMAT = "repro-fault-plan/1"

#: Every fault kind a rule may inject.
FAULT_KINDS = ("transient", "permanent", "latency", "kill")

#: Exit status of a ``kill`` fault (the conventional SIGKILL code).
KILL_EXIT_CODE = 137

#: The registered hard-kill sites the crash-consistency audit sweeps:
#: killing at any of them must leave every tenant resumable from its
#: last complete checkpoint, bit-identical to an unfaulted run.
KILL_SITES = (
    "checkpoint.before_write",
    "checkpoint.mid_write",
    "checkpoint.after_write",
    "report.write",
)


class InjectedFault(RuntimeError):
    """Base class of all injected failures (never raised organically)."""


class TransientFault(InjectedFault):
    """An injected failure that a retry is expected to clear."""


class PermanentFault(InjectedFault):
    """An injected failure that retries will not clear (a strike)."""


def _check(value, kind, what: str, field: str):
    """*value* if it is a JSON *kind* (not a bool), else an error naming
    the plan's *field*."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InvalidInstanceError(
            f"fault plan field {field!r} must be {what}, got {value!r:.60}"
        )
    return value


class FaultRule:
    """One pattern-matched injection rule inside a :class:`FaultPlan`.

    Parameters
    ----------
    site:
        ``fnmatch`` pattern over fault-site names (``"checkpoint.*"``,
        ``"serve.feed"``).
    kind:
        One of :data:`FAULT_KINDS`.
    scope:
        ``fnmatch`` pattern over scopes (tenant ids, shard scopes);
        defaults to every scope.
    at:
        Explicit 1-based hit indices of the ``(site, scope)`` stream at
        which the rule fires (``[1]`` = the first matching hit).
    rate:
        Per-hit firing probability in ``[0, 1]``, drawn from a seed
        derived from ``(plan seed, rule index, site, scope, hit)`` — the
        same hits fire on every run.  Exactly one of *at*/*rate* must be
        set.
    delay:
        Sleep seconds for ``latency`` rules (ignored otherwise).
    """

    def __init__(
        self,
        site: str,
        kind: str,
        *,
        scope: str = "*",
        at: Optional[Sequence[int]] = None,
        rate: float = 0.0,
        delay: float = 0.0,
    ) -> None:
        """Validate and freeze one injection rule."""
        self.site = str(site)
        self.kind = str(kind)
        self.scope = str(scope)
        self.at = None if at is None else tuple(int(i) for i in at)
        self.rate = float(rate)
        self.delay = float(delay)
        if not self.site:
            raise InvalidInstanceError("fault rule needs a non-empty 'site'")
        if self.kind not in FAULT_KINDS:
            raise InvalidInstanceError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.at is not None and any(i < 1 for i in self.at):
            raise InvalidInstanceError(
                f"fault rule 'at' indices are 1-based hit counts, got {self.at}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise InvalidInstanceError(
                f"fault rule 'rate' must be in [0, 1], got {self.rate}"
            )
        if (self.at is None) == (self.rate == 0.0):
            raise InvalidInstanceError(
                f"fault rule for site {self.site!r} must set exactly one of "
                "'at' (explicit hit indices) or 'rate' (seeded probability)"
            )
        if not 0.0 <= self.delay < math.inf:  # an infinite sleep never ends
            raise InvalidInstanceError(
                f"fault rule 'delay' must be finite and >= 0, got {self.delay}"
            )
        if self.kind == "latency" and self.delay == 0.0:
            raise InvalidInstanceError(
                "latency fault rule needs a positive 'delay'"
            )

    def matches(self, site: str, scope: str) -> bool:
        """Whether this rule applies to a hit at ``(site, scope)``."""
        return fnmatchcase(site, self.site) and fnmatchcase(scope, self.scope)

    def payload(self) -> Dict[str, object]:
        """JSON-able form (inverse of :meth:`from_payload`)."""
        out: Dict[str, object] = {"site": self.site, "kind": self.kind}
        if self.scope != "*":
            out["scope"] = self.scope
        if self.at is not None:
            out["at"] = list(self.at)
        if self.rate:
            out["rate"] = self.rate
        if self.delay:
            out["delay"] = self.delay
        return out

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "FaultRule":
        """Build a rule from one JSON object, rejecting unknown keys."""
        if not isinstance(payload, Mapping):
            raise InvalidInstanceError("each fault rule must be a JSON object")
        known = {"site", "kind", "scope", "at", "rate", "delay"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise InvalidInstanceError(
                f"fault rule has unknown fields {unknown}; known: {sorted(known)}"
            )
        if "site" not in payload or "kind" not in payload:
            raise InvalidInstanceError("fault rule needs 'site' and 'kind'")
        at = _check(payload.get("at"), (list, type(None)), "a list of integers", "at")
        for i in at or ():
            _check(i, int, "a list of integers", "at")
        return cls(
            str(payload["site"]),
            str(payload["kind"]),
            scope=str(payload.get("scope", "*")),
            at=at,
            rate=_check(payload.get("rate", 0.0), (int, float), "a number", "rate"),
            delay=_check(payload.get("delay", 0.0), (int, float), "a number", "delay"),
        )


class RetryPolicy:
    """Deterministic exponential backoff + seeded jitter, with caps.

    The schedule is *stateless*: the delay of attempt ``a`` for scope
    ``s`` is a pure function of ``(plan seed, s, a)`` —
    ``min(max_delay, base_delay * 2**(a-1)) * (1 + jitter * u)`` with
    ``u`` drawn from a hash-derived child seed — so the same tenant
    retries on the same schedule across runs *and* across a
    checkpoint/resume hop (nothing about the schedule lives in process
    state).

    ``max_attempts`` caps total feed attempts per batch (transient
    faults); ``max_strikes`` caps permanent faults per tenant before
    quarantine.
    """

    def __init__(
        self,
        *,
        max_attempts: int = 4,
        base_delay: float = 0.005,
        max_delay: float = 0.25,
        jitter: float = 0.1,
        max_strikes: int = 3,
    ) -> None:
        """Validate and freeze the retry/quarantine knobs."""
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.max_strikes = int(max_strikes)
        if self.max_attempts < 1:
            raise InvalidInstanceError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if not all(0 <= v < math.inf for v in (self.base_delay, self.max_delay, self.jitter)):
            raise InvalidInstanceError(
                "base_delay, max_delay, and jitter must be finite and >= 0"
            )
        if self.max_strikes < 1:
            raise InvalidInstanceError(
                f"max_strikes must be >= 1, got {max_strikes}"
            )

    def delay(self, seed: int, scope: str, attempt: int) -> float:
        """Backoff seconds before retry *attempt* (1-based) for *scope*."""
        if attempt < 1:
            raise InvalidInstanceError(f"attempt is 1-based, got {attempt}")
        base = min(self.max_delay, self.base_delay * (2.0 ** (attempt - 1)))
        if self.jitter == 0.0 or base == 0.0:
            return base
        u = np.random.default_rng(
            derive_seed(int(seed), "backoff", str(scope), int(attempt))
        ).random()
        return base * (1.0 + self.jitter * u)

    def payload(self) -> Dict[str, object]:
        """JSON-able form (inverse of :meth:`from_payload`)."""
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "max_delay": self.max_delay,
            "jitter": self.jitter,
            "max_strikes": self.max_strikes,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "RetryPolicy":
        """Build a policy from one JSON object, rejecting unknown keys."""
        if not isinstance(payload, Mapping):
            raise InvalidInstanceError("'retry' must be a JSON object")
        known = {"max_attempts", "base_delay", "max_delay", "jitter", "max_strikes"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise InvalidInstanceError(
                f"retry policy has unknown fields {unknown}; known: {sorted(known)}"
            )
        for k in sorted(known & set(payload)):
            counted = k in ("max_attempts", "max_strikes")
            _check(payload[k], int if counted else (int, float),
                   "an integer" if counted else "a number", f"retry.{k}")
        return cls(**{k: payload[k] for k in known if k in payload})  # type: ignore[arg-type]


class FaultPlan:
    """A reproducible chaos schedule: seed + rules + retry policy."""

    def __init__(
        self,
        *,
        seed: int = 0,
        rules: Iterable[FaultRule] = (),
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        """Freeze the plan (rules keep their declaration order)."""
        self.seed = int(seed)
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.retry = retry if retry is not None else RetryPolicy()

    def payload(self) -> Dict[str, object]:
        """JSON-able form (inverse of :meth:`from_payload`)."""
        return {
            "format": FAULT_PLAN_FORMAT,
            "seed": self.seed,
            "rules": [rule.payload() for rule in self.rules],
            "retry": self.retry.payload(),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "FaultPlan":
        """Parse a fault-plan JSON document (format-checked)."""
        if not isinstance(payload, Mapping):
            raise InvalidInstanceError("fault plan must be a JSON object")
        if payload.get("format") != FAULT_PLAN_FORMAT:
            raise InvalidInstanceError(
                f"not a {FAULT_PLAN_FORMAT} payload: {payload.get('format')!r}"
            )
        rules_raw = payload.get("rules", [])
        if not isinstance(rules_raw, list):
            raise InvalidInstanceError("fault plan 'rules' must be a list")
        retry_raw = payload.get("retry")
        return cls(
            seed=_check(payload.get("seed", 0), int, "an integer", "seed"),
            rules=[FaultRule.from_payload(r) for r in rules_raw],
            retry=None if retry_raw is None else RetryPolicy.from_payload(retry_raw),  # type: ignore[arg-type]
        )


def load_fault_plan(path: str) -> FaultPlan:
    """Load and validate a :class:`FaultPlan` from a JSON file.

    A damaged file, or a field :meth:`FaultPlan.from_payload` refuses,
    raises :class:`InvalidInstanceError` naming the file.
    """
    from repro.io import read_json  # lazy: io imports scheduling

    payload = read_json(path, "fault plan")
    try:
        return FaultPlan.from_payload(payload)
    except InvalidInstanceError as exc:
        raise InvalidInstanceError(f"fault plan {path}: {exc}") from exc


class FaultInjector:
    """Executes a :class:`FaultPlan`: counts hits, fires matching rules.

    Hit counters are keyed by ``(site, scope)``, so each scope (tenant)
    sees its own deterministic 1-based hit stream regardless of how the
    event loop interleaves tenants.  Every fired fault is appended to
    :attr:`fired` — ``{"site", "scope", "hit", "kind", "rule"}`` — which
    is what the determinism tests compare across runs.

    ``kill`` faults call :attr:`kill_fn` (default ``os._exit`` with
    :data:`KILL_EXIT_CODE`): a hard stop with no cleanup, exactly what
    the crash audit needs.  Tests may monkeypatch ``kill_fn``.
    """

    def __init__(self, plan: FaultPlan) -> None:
        """Create a fresh injector (all hit counters at zero)."""
        self.plan = plan
        self.kill_fn = os._exit
        self.fired: List[Dict[str, object]] = []
        self._hits: Dict[Tuple[str, str], int] = {}

    def hit(self, site: str, scope: str = "-") -> float:
        """Register one hit at ``(site, scope)``; fire matching rules.

        Returns the total injected latency in seconds (0.0 when no
        latency rule fired); raises :class:`TransientFault` /
        :class:`PermanentFault` for fault rules; never returns from a
        ``kill`` rule.
        """
        site = str(site)
        scope = str(scope)
        key = (site, scope)
        count = self._hits.get(key, 0) + 1
        self._hits[key] = count
        delay = 0.0
        for index, rule in enumerate(self.plan.rules):
            if not rule.matches(site, scope):
                continue
            if not self._fires(index, rule, site, scope, count):
                continue
            self.fired.append(
                {
                    "site": site,
                    "scope": scope,
                    "hit": count,
                    "kind": rule.kind,
                    "rule": index,
                }
            )
            if rule.kind == "latency":
                delay += rule.delay
            elif rule.kind == "kill":
                self.kill_fn(KILL_EXIT_CODE)
            elif rule.kind == "transient":
                raise TransientFault(
                    f"injected transient fault at {site} "
                    f"(scope {scope!r}, hit {count})"
                )
            else:
                raise PermanentFault(
                    f"injected permanent fault at {site} "
                    f"(scope {scope!r}, hit {count})"
                )
        return delay

    def _fires(
        self, index: int, rule: FaultRule, site: str, scope: str, count: int
    ) -> bool:
        if rule.at is not None:
            return count in rule.at
        u = np.random.default_rng(
            derive_seed(self.plan.seed, "fault", index, site, scope, count)
        ).random()
        return u < rule.rate

    def hits(self, site: str, scope: str = "-") -> int:
        """How many times ``(site, scope)`` has been hit so far."""
        return self._hits.get((str(site), str(scope)), 0)

    def wrap_oracle(self, oracle: SetFunction, scope: str) -> "FaultyOracle":
        """Wrap *oracle* so its queries pass through ``oracle.*`` sites."""
        return FaultyOracle(oracle, self, scope)

    def stats(self) -> Dict[str, object]:
        """JSON-friendly summary of everything fired (for reports)."""
        by_site: Dict[str, int] = {}
        by_kind: Dict[str, int] = {}
        for event in self.fired:
            by_site[str(event["site"])] = by_site.get(str(event["site"]), 0) + 1
            by_kind[str(event["kind"])] = by_kind.get(str(event["kind"]), 0) + 1
        return {
            "seed": self.plan.seed,
            "rules": len(self.plan.rules),
            "fired": len(self.fired),
            "by_site": dict(sorted(by_site.items())),
            "by_kind": dict(sorted(by_kind.items())),
        }


class _FaultyView(EvaluatorView):
    """Hits ``oracle.batch`` once per counted query, never per update.

    Sits between a policy's vectorized scans and the counting view, so
    an injected fault fires *before* the counting layer bills the
    query, and a rolled-back feed re-bills the retried batch exactly
    once.
    """

    def _query(self, elements: Iterable[Element], count: int) -> None:
        self._owner.hit("oracle.batch")


class FaultyOracle(OracleWrapper):
    """Pass-through oracle whose queries run through fault sites.

    Wraps a tenant's :class:`~repro.core.oracle.CountingOracle`
    *outside* it, so a fault raised at the ``oracle.value`` /
    ``oracle.batch`` site aborts the query before the counting layer
    bills it — the serving loop's rollback + retry then re-bills the
    whole batch exactly once, keeping oracle-call accounting
    bit-identical to an unfaulted run.  Latency faults sleep inline,
    the way a genuinely slow oracle would.  A kernel below is handed
    out behind the ``oracle.batch`` view, on the backend a clean run
    would pick.
    """

    view = _FaultyView

    def __init__(
        self, base: SetFunction, injector: FaultInjector, scope: str
    ) -> None:
        """Wrap *base*; every query reports under *scope* (tenant id)."""
        super().__init__(base)
        self.injector = injector
        self.scope = str(scope)

    def hit(self, site: str) -> None:
        """Register one hit at *site* for this oracle's scope."""
        delay = self.injector.hit(site, self.scope)
        if delay > 0.0:
            time.sleep(delay)

    def value(self, subset: FrozenSet[Element]) -> float:
        """Query the wrapped oracle through the ``oracle.value`` site."""
        self.hit("oracle.value")
        return self.base.value(subset)


# -- process-global dispatch -------------------------------------------------
#
# Checkpoint writes happen deep inside the codec, far from any serving
# object; they report through a process-global injector the serving loop
# (or CLI) installs for the duration of a faulted run.  With no injector
# installed, ``fault_hit`` is a no-op attribute check — the no-fault
# serving path stays bit-identical (and unmeasurably close in cost) to
# a build without this module.

_INJECTOR: Optional[FaultInjector] = None


def install_injector(injector: Optional[FaultInjector]) -> Optional[FaultInjector]:
    """Install the process-global injector; returns the previous one.

    Callers restore the returned previous injector when they are done,
    so nested faulted scopes compose.
    """
    global _INJECTOR
    previous = _INJECTOR
    _INJECTOR = injector
    return previous


def clear_injector() -> None:
    """Remove the process-global injector (all sites become no-ops)."""
    global _INJECTOR
    _INJECTOR = None


def current_injector() -> Optional[FaultInjector]:
    """The process-global injector, or ``None`` when faults are off."""
    return _INJECTOR


def fault_hit(site: str, scope: str = "-") -> float:
    """Report one hit at ``(site, scope)`` to the global injector.

    No-op (returns 0.0) when no injector is installed.  Latency faults
    sleep synchronously here — this is the sync-site entry point
    (checkpoint writes, report writes); async call sites use
    :meth:`FaultInjector.hit` directly and ``await`` their delays.
    """
    injector = _INJECTOR
    if injector is None:
        return 0.0
    delay = injector.hit(site, scope)
    if delay > 0.0:
        time.sleep(delay)
    return delay
