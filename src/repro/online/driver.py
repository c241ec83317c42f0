"""The driver: feed an arrival source to a policy.

:class:`OnlineRun` owns one online execution — utility, arrival
source, arrival-restricted oracle, policy, cursor — and supports
incremental consumption (``run(max_arrivals=...)``), which is what makes
long streams suspendable: a run that stops mid-stream serialises to a
self-contained JSON checkpoint (see :mod:`repro.online.checkpoint`) and
resumes in another process.

Arrivals come from an :class:`~repro.online.arrivals.ArrivalSource`
(materialized :class:`~repro.online.arrivals.ArrivalSchedule` inputs are
wrapped transparently), so the driver itself never needs the full order:
it pulls batches, reveals them, and appends every hire to an append-only
``decisions`` log — ``[position, element]`` pairs — which is what a
checkpoint persists instead of the stream.  A resume restores the
source's cursor and fingerprint chain in O(1); nothing replays the
consumed prefix.

Minibatch schedules are revealed a whole batch at a time (the
Section 3.2.1 no-peeking contract holds *per batch*: everything in a
burst has been interviewed before any of it is queried) and handed to
``policy.observe_batch`` — one kernel call per batch for the vectorized
policies.  Single-arrival batches take the per-arrival path: reveal,
observe, stop once the policy is done.

The contract itself is :class:`ArrivalOracle`: the run's only view of
the utility, which answers a query only about revealed elements.  This
is the one arrival loop in the library: the engine, the sessions, the
serve and the paper-facing :mod:`repro.secretary` functions (which pass
a :class:`~repro.secretary.stream.SecretaryStream`, itself a
:class:`~repro.online.arrivals.ScheduleSource`) all run through it.
"""

from __future__ import annotations

import json

from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence

from repro.core.kernels import EvaluatorView
from repro.core.oracle import OracleWrapper
from repro.core.submodular import SetFunction
from repro.errors import InvalidInstanceError, OracleError
from repro.online.arrivals import ArrivalSchedule, ArrivalSource, _require, as_arrival_source
from repro.online.policies import OnlinePolicy

__all__ = ["ArrivalOracle", "OnlineRun", "run_online"]

#: What a checkpoint's ``frontier`` and decision log may hold per element.
_SCALARS = (str, int, float, type(None))


def _not_arrived(hidden: Iterable[Hashable]) -> OracleError:
    return OracleError(
        f"oracle queried about elements that have not arrived: "
        f"{sorted(map(repr, hidden))[:5]}"
    )


class _ArrivalView(EvaluatorView):
    """Checks every element a state update or query names against the
    owning oracle's arrived set before it reaches the kernel.

    Online algorithms written against the incremental API thereby keep
    the Section 3.2.1 guarantee: a query about a not-yet-interviewed
    secretary raises :class:`~repro.errors.OracleError` exactly as a
    ``value`` call would.
    """

    def _query(self, elements: Iterable[Hashable], count: int) -> None:
        arrived = self._owner._arrived
        for e in elements:
            if e not in arrived:
                # *elements* may be an iterator: collect the rest from here.
                raise _not_arrived({e, *(x for x in elements if x not in arrived)})

    def _touch(self, elements: Iterable[Hashable]) -> None:
        self._query(elements, 0)


class ArrivalOracle(OracleWrapper):
    """Value oracle restricted to already-arrived elements.

    Section 3.2.1: "the oracle answers the query regarding the
    efficiency of a set S' only if all the secretaries in S' have
    already arrived and been interviewed."  Querying an unrevealed
    element raises :class:`~repro.errors.OracleError`, so a policy
    driven through this oracle provably never peeks at the future.
    Without a kernel below, the generic fallback runs through
    :meth:`value`, which enforces the restriction per query.
    """

    view = _ArrivalView

    def __init__(self, base: SetFunction):
        super().__init__(base)
        self._arrived: set = set()

    @property
    def arrived(self) -> FrozenSet[Hashable]:
        """Elements revealed so far."""
        return frozenset(self._arrived)

    def reveal(self, element: Hashable) -> None:
        """Mark *element* as interviewed (called by the driver only)."""
        self._arrived.add(element)

    def value(self, subset: FrozenSet[Hashable]) -> float:
        """The base value of *subset*, which must have arrived entirely."""
        subset = frozenset(subset)
        if not subset <= self._arrived:
            raise _not_arrived(subset - self._arrived)
        return self.base.value(subset)


class OnlineRun:
    """One (suspendable) execution of a policy over an arrival stream."""

    def __init__(
        self,
        utility: SetFunction,
        arrivals,
        policy: OnlinePolicy,
    ) -> None:
        source = as_arrival_source(arrivals)
        if not source.enumerates(utility.ground_set):
            raise InvalidInstanceError(
                "arrival schedule must enumerate the utility's ground set exactly"
            )
        if source.n is None:
            raise InvalidInstanceError(
                "online policies lay out against a known stream length; "
                "unbounded sources need an explicit horizon"
            )
        self.utility = utility
        self.source: ArrivalSource = source
        self.policy = policy
        self.oracle = ArrivalOracle(utility)
        #: Append-only hire log: ``[stream_position, element]`` pairs in
        #: hire order.  This (plus policy state) is what checkpoints
        #: persist — O(selected), not O(arrived).
        self.decisions: List[List] = []
        self._hired_logged: frozenset = frozenset()
        self._result = None
        policy.bind(self.oracle, source.n)

    # -- state ----------------------------------------------------------

    @property
    def n(self) -> int:
        """Total stream length."""
        return int(self.source.n)  # type: ignore[arg-type]

    @property
    def cursor(self) -> int:
        """Arrivals consumed so far."""
        return self.source.cursor

    @property
    def finished(self) -> bool:
        """No further arrival will be consumed."""
        return self.source.exhausted or self.policy.done

    # -- execution -------------------------------------------------------

    def _consume(self, pos0: int, batch: Sequence[Hashable]) -> None:
        for a in batch:
            self.oracle.reveal(a)
        if len(batch) == 1:
            self.policy.observe(pos0, batch[0])
        else:
            self.policy.observe_batch(pos0, list(batch))
        self._log_decisions(pos0, batch)

    def _log_decisions(self, pos0: int, batch: Sequence[Hashable]) -> None:
        hired = frozenset(self.policy.hired_set())
        if hired == self._hired_logged:
            return
        new = hired - self._hired_logged
        for i, a in enumerate(batch):
            if a in new:
                self.decisions.append([pos0 + i, a])
        self._hired_logged = hired

    def feed(self, pos0: int, batch: Sequence[Hashable]) -> "OnlineRun":
        """Consume one externally-taken batch (the serving push path).

        The serving layer (:mod:`repro.online.serving`) splits the
        take/consume halves of :meth:`run` around its awaits: a lane
        calls ``self.source.take(...)``, then feeds the step here.
        *batch* must be exactly what the source yielded for *pos0* —
        reveal, observe, and decision logging then match the pull path
        bit for bit.  A batch arriving after the policy reported
        ``done`` is dropped without revealing, exactly as :meth:`run`
        never takes past ``done``.
        """
        if not self.policy.done:
            self._consume(int(pos0), list(batch))
        return self

    def run(self, max_arrivals: Optional[int] = None) -> "OnlineRun":
        """Consume up to *max_arrivals* more arrivals (all, when ``None``).

        Stops early once the policy reports ``done`` — later arrivals
        are then never revealed, matching the legacy algorithms that
        return mid-stream.
        """
        budget = None if max_arrivals is None else int(max_arrivals)
        while not self.finished:
            if budget is not None and budget <= 0:
                break
            step = self.source.take(budget)
            if step is None:
                break
            pos0, batch, _stamps = step
            self._consume(pos0, batch)
            if budget is not None:
                budget -= len(batch)
        return self

    # -- transactional feeds ---------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Capture the mutable run state a single feed may touch.

        The fault-tolerant serving path brackets each :meth:`feed` with
        ``snapshot()`` / :meth:`rollback`: if an injected fault escapes
        mid-batch, the batch is rolled back and retried as if it had
        never been observed.  The policy state travels through a JSON
        round-trip of ``state_dict()`` (the same encoding checkpoints
        use), so the snapshot shares no mutable structure with the live
        policy.  Source state is deliberately absent: the serving lane
        has already taken the batch, and a retry re-feeds that same
        in-hand batch.
        """
        return {
            "policy": json.loads(json.dumps(self.policy.state_dict())),
            "decisions": [list(d) for d in self.decisions],
            "hired": self._hired_logged,
        }

    def rollback(self, snap: Mapping[str, object]) -> None:
        """Restore a :meth:`snapshot` taken before a failed feed.

        Reinstates the policy state machine, the decision log, and the
        hired-set watermark.  The arrival oracle needs no rollback —
        ``reveal`` is an idempotent set-add, and the retried feed
        re-reveals the same batch.  Counting-oracle rollback is the
        caller's job (the serving loop snapshots ``calls`` alongside),
        because the policy's ``load_state`` may itself bill restore
        queries.
        """
        self.policy.load_state(json.loads(json.dumps(snap["policy"])))
        self.decisions = [list(d) for d in snap["decisions"]]  # type: ignore[union-attr]
        self._hired_logged = frozenset(snap["hired"])  # type: ignore[arg-type]
        self._result = None

    # -- resume ----------------------------------------------------------

    def restore(self, checkpoint: Mapping[str, object]) -> None:
        """Restore a checkpoint's stream/oracle/policy state in place.

        O(selected): the saved frontier (hired set plus any elements the
        policy may still query, e.g. the knapsack rule's observation
        half) is re-revealed to the fresh oracle, the source jumps to
        its saved cursor/fingerprint, the decision log is reinstated,
        and the policy state machine reloads.  Nothing scales with the
        consumed prefix.

        ``frontier`` must list JSON scalars and ``decisions`` ``[position,
        element]`` pairs with an integer position in ``[0, cursor)``; both
        are checked before anything is applied, else
        :class:`~repro.errors.InvalidInstanceError` names the field.  So
        does a ``policy.state`` the policy cannot load, or one whose hires
        differ from the decision log or that names an element the
        frontier does not re-reveal.
        """
        cursor = int(checkpoint["cursor"])  # type: ignore[arg-type]
        n = self.source.n
        if cursor < 0 or (n is not None and cursor > n):
            raise InvalidInstanceError(
                f"cursor {cursor} outside stream of {n}"
            )
        source_block = checkpoint.get("source")
        if not isinstance(source_block, Mapping) or "state" not in source_block:
            raise InvalidInstanceError("checkpoint carries no source state")
        state = source_block["state"]
        self.source.check_state(state, n)
        if state["cursor"] != cursor:  # type: ignore[index]
            raise InvalidInstanceError(
                f"cursor {cursor} does not match the source state's "
                f"cursor {state['cursor']}"  # type: ignore[index]
            )
        frontier = _require(checkpoint.get("frontier", []), list, "frontier", "a list")
        decisions = _require(checkpoint.get("decisions", []), list, "decisions", "a list")
        if not all(isinstance(e, _SCALARS) for e in frontier):
            raise InvalidInstanceError("checkpoint field 'frontier' must list JSON scalars")
        for d in decisions:
            if not (isinstance(d, list) and len(d) == 2 and type(d[0]) is int
                    and 0 <= d[0] < cursor and isinstance(d[1], _SCALARS)):
                raise InvalidInstanceError(
                    "checkpoint field 'decisions' must list [position, element] "
                    f"pairs with a position in [0, {cursor}), got {d!r:.60}"
                )
        self.source.restore(state)  # type: ignore[arg-type]
        for element in frontier:
            self.oracle.reveal(element)
        self.decisions = [list(d) for d in decisions]
        try:
            self.policy.load_state(checkpoint["policy"]["state"])  # type: ignore[index]
            hired = frozenset(self.policy.hired_set())
            pending = frozenset(self.policy.frontier())
        except (KeyError, TypeError, ValueError, OracleError) as exc:
            raise InvalidInstanceError(
                f"checkpoint field 'policy.state' does not restore policy "
                f"{self.policy.name!r}: {exc!r:.120}"
            ) from exc
        if hired != frozenset(d[1] for d in decisions):
            raise InvalidInstanceError(
                "checkpoint field 'policy.state' hires "
                f"{sorted(map(repr, hired))[:5]}, but the decision log "
                f"records {sorted(repr(d[1]) for d in decisions)[:5]}"
            )
        if not pending <= frozenset(frontier):
            raise InvalidInstanceError(
                "checkpoint field 'policy.state' names elements the frontier "
                f"does not re-reveal: {sorted(map(repr, pending - set(frontier)))[:5]}"
            )
        self._hired_logged = hired
        self._result = None

    def result(self):
        """Finish the policy and return its result (cached)."""
        if self._result is None:
            self._result = self.policy.finish()
        return self._result


def run_online(
    utility: SetFunction,
    schedule: ArrivalSchedule | ArrivalSource,
    policy: OnlinePolicy,
):
    """One-shot convenience: run *policy* over *schedule* to completion."""
    return OnlineRun(utility, schedule, policy).run().result()
