"""Online algorithms as explicit ``observe(arrival) -> state`` machines.

Every Section 3 algorithm is one :class:`OnlinePolicy`: a small state
machine that is *bound* to a value oracle and a stream length, fed one
arrival (or one revealed minibatch) at a time, and asked to ``finish()``
into its result object.  The legacy per-algorithm entry points
(``monotone_submodular_secretary`` & co.) are thin wrappers that
construct a policy and drive it — the decision logic lives here, once.

The policy contract:

``bind(oracle, n)``
    Attach the (arrival-restricted) value oracle and the publicly known
    stream length; derived layout (segment bounds, observation windows,
    incremental evaluators) is computed here.
``observe(pos, element)`` / ``observe_batch(pos0, elements)``
    Consume one arrival / one revealed minibatch.  The default batch
    implementation loops ``observe``; :class:`SegmentedSubmodularPolicy`
    overrides it to score a whole batch in one kernel call (re-scoring
    the tail after a hire, so decisions are identical to the sequential
    pass).
``done``
    True once the policy will never change state again — drivers stop
    revealing arrivals, exactly like the legacy loops ``break`` out of
    their streams.
``state_dict()`` / ``load_state()`` / ``config_dict()`` / ``from_config()``
    The checkpoint codec: config rebuilds the policy, state restores the
    mid-stream machine (JSON-safe — ``-inf`` thresholds encode as
    ``None``).  Non-serializable dependencies (matroids, feasibility
    callables) are re-injected through ``from_config(..., **deps)``, and
    so are the per-element workload maps the recipe rebuilds (the
    knapsack rule's reduced ``weights``, the robust and bottleneck
    rules' singleton ``values``): writing them would make every
    checkpoint O(n) instead of O(selected).

Under the default per-arrival driving, each policy performs the *same
oracle queries in the same order* as the loop it replaced — the golden
equivalence suite pins hired sets and query counts bit-identically.
"""

from __future__ import annotations

import abc
import math
from dataclasses import asdict
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.core.kernels import evaluator_for
from repro.errors import BudgetError, InvalidInstanceError
from repro.online.results import (
    BottleneckResult,
    RobustResult,
    SecretaryResult,
    SegmentTrace,
)
from repro.online.runtime import (
    decode_float,
    encode_float,
    observation_lengths,
    offline_knapsack_estimate,
    segment_bounds,
)
from repro.rng import as_generator
from repro.secretary.classical import dynkin_threshold

__all__ = [
    "OnlinePolicy",
    "SegmentedSubmodularPolicy",
    "BestSingletonPolicy",
    "RobustTopKPolicy",
    "BottleneckPolicy",
    "KnapsackSecretaryPolicy",
    "SubadditiveSegmentPolicy",
    "MatroidSecretaryPolicy",
    "POLICIES",
    "SESSION_POLICIES",
    "build_policy",
    "register_policy",
    "make_policy",
    "policy_names",
    "nonmonotone_half_policy",
]

CanTake = Callable[[FrozenSet[Hashable], Hashable], bool]


class OnlinePolicy(abc.ABC):
    """One online decision rule over a stream of arrivals."""

    name: str = ""
    #: Constructor argument holding a per-element workload map
    #: (``"weights"`` or ``"values"``), if the policy reads one.  It is
    #: never written to the config; resume re-injects it as a dep.
    workload_map: Optional[str] = None

    def __init__(self) -> None:
        self._oracle = None
        self._n: Optional[int] = None
        self._done = False

    # -- lifecycle ------------------------------------------------------

    def bind(self, oracle, n: int) -> None:
        """Attach the value oracle and stream length; build derived state."""
        self._oracle = oracle
        self._n = int(n)
        self._setup()

    def _setup(self) -> None:  # pragma: no cover - trivial default
        """Hook for bound-time layout computation."""

    @property
    def bound(self) -> bool:
        """The policy's competitive-ratio guarantee, when one is known."""
        return self._oracle is not None

    @property
    def done(self) -> bool:
        """True once no future arrival can change the policy's state."""
        return self._done

    @abc.abstractmethod
    def observe(self, pos: int, element: Hashable) -> None:
        """Consume the arrival at stream position *pos*."""

    def observe_batch(self, pos0: int, elements: Sequence[Hashable]) -> None:
        """Consume a revealed minibatch (default: sequential observes)."""
        for i, a in enumerate(elements):
            if self._done:
                break
            self.observe(pos0 + i, a)

    @abc.abstractmethod
    def finish(self):
        """Close the run and return the algorithm's result object."""

    # -- decision log / resume frontier --------------------------------

    def hired_set(self) -> FrozenSet[Hashable]:
        """Elements hired so far (drives the run's decision log)."""
        return frozenset()

    def frontier(self) -> List[Hashable]:
        """Elements a resumed run must re-reveal to its fresh oracle.

        The no-peeking contract says a policy only ever queries sets of
        *arrived* elements; after a resume the only arrived elements it
        can still query are (by default) its hires.  Policies that keep
        non-hired arrivals queryable (the knapsack rule's observation
        half) override this.  Deterministic order so checkpoints are
        byte-stable.
        """
        return sorted(self.hired_set(), key=repr)

    # -- checkpoint codec ----------------------------------------------

    def config_dict(self) -> Dict[str, object]:
        """JSON-able constructor arguments (deps excluded)."""
        return {}

    @abc.abstractmethod
    def state_dict(self) -> Dict[str, object]:
        """JSON-able mutable state (call after :meth:`bind`)."""

    @abc.abstractmethod
    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore :meth:`state_dict` output (call after :meth:`bind`)."""

    @classmethod
    def from_config(cls, config: Mapping[str, object], **deps) -> "OnlinePolicy":
        """Rebuild an instance from a :meth:`config_dict` payload.

        A policy with a :attr:`workload_map` requires that map in *deps*
        (``from_config(config, values=...)`` or ``weights=...``); a copy
        an older checkpoint still embeds in *config* is ignored, since
        the workload recipe rebuilds the same map.  A config the
        constructor refuses (an unknown or missing key, a value of the
        wrong type), or one the rebuilt policy's :meth:`config_dict`
        does not reproduce (a dropped key the constructor would
        default, a value it would coerce), raises
        :class:`~repro.errors.InvalidInstanceError` naming
        ``policy.config``.
        """
        config = dict(config)
        if cls.workload_map is not None:
            config.pop(cls.workload_map, None)
            if deps.get(cls.workload_map) is None:
                raise InvalidInstanceError(
                    f"policy {cls.name!r} needs its {cls.workload_map!r} map "
                    f"re-injected: call from_config(config, "
                    f"{cls.workload_map}=...) with the map the workload "
                    "recipe rebuilds (checkpoints never carry it)"
                )
        try:
            policy = cls(**config, **deps)  # type: ignore[call-arg]
        except (TypeError, ValueError) as exc:
            raise InvalidInstanceError(
                f"checkpoint field 'policy.config' does not build policy "
                f"{cls.name!r}: {exc}"
            ) from exc
        rebuilt = policy.config_dict()
        if rebuilt != config:
            raise InvalidInstanceError(
                f"checkpoint field 'policy.config' does not round-trip for "
                f"policy {cls.name!r}: it rebuilds as {rebuilt}"
            )
        return policy


# -- Algorithm 1: the segmented submodular secretary ------------------------


class SegmentedSubmodularPolicy(OnlinePolicy):
    """Core of Algorithm 1: k segments, one classical subroutine each.

    ``skip`` arrivals are ignored before the segment window of length
    ``window_n`` opens (Algorithm 2 and Algorithm 3 run Algorithm 1 on a
    half of the stream); ``position_offset`` labels traces with global
    stream positions.  Per-arrival queries go through an incremental
    evaluator pinned at the hired set, enforcing the Section 3.2.1
    no-peeking contract whenever the oracle does.
    """

    name = "segmented"

    def __init__(
        self,
        k: int,
        *,
        monotone_clamp: bool = True,
        skip: int = 0,
        window_n: Optional[int] = None,
        position_offset: Optional[int] = None,
        strategy: str = "segments",
        can_take: Optional[CanTake] = None,
    ) -> None:
        super().__init__()
        if k <= 0:
            raise BudgetError(f"k must be positive, got {k}")
        self.k = int(k)
        self.monotone_clamp = bool(monotone_clamp)
        self.skip = int(skip)
        self.window_n = window_n if window_n is None else int(window_n)
        self.position_offset = (
            self.skip if position_offset is None else int(position_offset)
        )
        self.strategy = strategy
        self.can_take = can_take

    def _setup(self) -> None:
        n = self.window_n if self.window_n is not None else self._n - self.skip
        self._wn = max(0, int(n))
        self._bounds = segment_bounds(self._wn, self.k)
        self._observe_len = observation_lengths(self._bounds)
        self._evaluator = evaluator_for(self._oracle)
        self._current_value = self._evaluator.current_value
        self._base: FrozenSet[Hashable] = frozenset()
        self._selected: List[Hashable] = []
        self._selected_set: set = set()
        self._traces: List[SegmentTrace] = []
        self._seg = 0
        self._threshold = -math.inf
        self._picked: Optional[Hashable] = None
        self._best_gain = 0.0
        self._closed_tail = False

    # -- mechanics ------------------------------------------------------

    def _close_segment(self, j: int) -> None:
        s, e = self._bounds[j]
        off = self.position_offset
        self._traces.append(
            SegmentTrace(
                segment=j,
                start=off + s,
                observe_until=off + s + self._observe_len[j],
                end=off + e,
                threshold=self._threshold,
                picked=self._picked,
                gain=self._best_gain,
            )
        )

    def _reset_segment_trackers(self) -> None:
        self._threshold = -math.inf
        self._picked = None
        self._best_gain = 0.0
        self._base = frozenset(self._selected_set)

    def observe(self, pos: int, element: Hashable) -> None:
        """Advance the policy by one arrival at stream position *pos*."""
        self._step(pos, element, None)

    def _step(self, pos: int, a: Hashable, scored: Optional[float]) -> None:
        if self._done:
            return
        ipos = pos - self.skip
        if ipos < 0:
            return
        if ipos >= self._wn:
            self._done = True
            return
        # Advance past finished (possibly empty) segments.
        while self._seg < self.k and ipos >= self._bounds[self._seg][1]:
            self._close_segment(self._seg)
            self._seg += 1
            self._reset_segment_trackers()
        if self._seg >= self.k:
            self._done = True
            return
        start, _end = self._bounds[self._seg]
        in_window = ipos - start < self._observe_len[self._seg]
        if in_window:
            uv = scored if scored is not None else self._evaluator.union_value1(a)
            self._threshold = max(self._threshold, uv)
            return
        if self._picked is not None:
            return  # one hire per segment
        effective = self._threshold
        if self.monotone_clamp and effective < self._current_value:
            effective = self._current_value
        if self.can_take is not None and not self.can_take(self._base, a):
            return
        candidate = scored if scored is not None else self._evaluator.union_value1(a)
        if candidate >= effective:
            self._picked = a
            self._best_gain = candidate - self._current_value
            self._selected.append(a)
            self._selected_set.add(a)
            self._evaluator.advance(a, candidate)
            self._current_value = candidate

    def _will_query(self, positions: Sequence[int]) -> List[bool]:
        """Which of these in-order arrivals the sequential pass queries.

        Mirrors :meth:`_step`'s control flow against the state at the
        start of a scoring round: skip-region/past-window arrivals and
        decision-phase arrivals of a segment that already hired are
        never scored sequentially, so pre-scoring them would inflate the
        counted oracle work.  (A conservative miss here only moves a
        query from the batch to a single ``union_value1`` inside
        ``_step`` — decisions are unaffected either way.)
        """
        mask: List[bool] = []
        seg, picked = self._seg, self._picked is not None
        for ipos in positions:
            if ipos < 0 or ipos >= self._wn:
                mask.append(False)
                continue
            while seg < self.k and ipos >= self._bounds[seg][1]:
                seg += 1
                picked = False  # trackers reset when a segment closes
            if seg >= self.k:
                mask.append(False)
                continue
            in_window = ipos - self._bounds[seg][0] < self._observe_len[seg]
            mask.append(in_window or not picked)
        return mask

    def observe_batch(self, pos0: int, elements: Sequence[Hashable]) -> None:
        """Score the whole revealed batch in one kernel call.

        A hire mid-batch changes the selection, so the unconsumed tail
        is re-scored — decisions match the sequential pass exactly while
        the kernel work drops to one vectorized pass per batch (+1 per
        hire).  Only arrivals the sequential pass would actually query
        (:meth:`_will_query`) are scored, so the counted oracle work
        exceeds the per-arrival path only by the pre-hire tail scores a
        speculative batch discards (at most one partial batch per hire).
        Policies with feasibility hooks or non-kernel oracles fall back
        to sequential observes.
        """
        ev = getattr(self, "_evaluator", None)
        if self.can_take is not None or ev is None or not getattr(ev, "fast", False):
            super().observe_batch(pos0, elements)
            return
        i = 0
        while i < len(elements) and not self._done:
            rest = list(elements[i:])
            mask = self._will_query(
                [pos0 + i + j - self.skip for j in range(len(rest))]
            )
            queried = [a for a, m in zip(rest, mask) if m]
            scores = iter(ev.union_values(queried)) if queried else iter(())
            advanced = None
            for j, a in enumerate(rest):
                if self._done:
                    break
                before = len(self._selected)
                self._step(
                    pos0 + i + j, a, float(next(scores)) if mask[j] else None
                )
                if len(self._selected) != before:
                    advanced = j  # selection changed: re-score the tail
                    break
            if advanced is None:
                break
            i += advanced + 1

    def finish(self) -> SecretaryResult:
        """Finalize at end of stream and return the result object."""
        if not self._closed_tail:
            while self._seg < self.k:
                self._close_segment(self._seg)
                self._seg += 1
                self._reset_segment_trackers()
            self._closed_tail = True
        return SecretaryResult(
            selected=frozenset(self._selected_set),
            traces=list(self._traces),
            strategy=self.strategy,
        )

    def hired_set(self) -> FrozenSet[Hashable]:
        """The policy's current hired set."""
        return frozenset(getattr(self, "_selected_set", ()))

    # -- checkpoint codec ----------------------------------------------

    def config_dict(self) -> Dict[str, object]:
        """JSON-able constructor config; inverse of :meth:`from_config`."""
        return {
            "k": self.k,
            "monotone_clamp": self.monotone_clamp,
            "skip": self.skip,
            "window_n": self.window_n,
            "position_offset": self.position_offset,
            "strategy": self.strategy,
        }

    def state_dict(self) -> Dict[str, object]:
        """JSON-able mutable state; inverse of :meth:`load_state`."""
        return {
            "selected": list(self._selected),
            "base": sorted(self._base, key=repr),
            "seg": self._seg,
            "threshold": encode_float(self._threshold),
            "picked": self._picked,
            "best_gain": self._best_gain,
            "current_value": self._current_value,
            "done": self._done,
            "closed_tail": self._closed_tail,
            "traces": [
                {**asdict(t), "threshold": encode_float(t.threshold)}
                for t in self._traces
            ],
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore mutable state from a :meth:`state_dict` payload."""
        self._selected = list(state["selected"])  # type: ignore[arg-type]
        self._selected_set = set(self._selected)
        self._base = frozenset(state["base"])  # type: ignore[arg-type]
        self._seg = int(state["seg"])  # type: ignore[arg-type]
        self._threshold = decode_float(state["threshold"])  # type: ignore[arg-type]
        self._picked = state["picked"]
        self._best_gain = float(state["best_gain"])  # type: ignore[arg-type]
        self._done = bool(state["done"])
        self._closed_tail = bool(state["closed_tail"])
        self._traces = [
            SegmentTrace(**{**t, "threshold": decode_float(t["threshold"])})
            for t in state["traces"]  # type: ignore[union-attr]
        ]
        self._evaluator.reset(self._selected)
        self._current_value = float(state["current_value"])  # type: ignore[arg-type]


def nonmonotone_half_policy(n: int, k: int, use_first_half: bool) -> SegmentedSubmodularPolicy:
    """Algorithm 2's half-stream configuration of Algorithm 1.

    The first-half run observes positions ``[0, n//2)``; the second-half
    run skips the first half (always at least one arrival, mirroring the
    legacy consume loop) and runs on the remainder.
    """
    half = n // 2
    if use_first_half:
        return SegmentedSubmodularPolicy(
            k, window_n=half, strategy="first-half"
        )
    return SegmentedSubmodularPolicy(
        k,
        skip=max(1, half),
        window_n=n - half,
        position_offset=half,
        strategy="second-half",
    )


# -- the classical 1/e stopping rule (shared by four algorithms) ------------


class BestSingletonPolicy(OnlinePolicy):
    """Observe a window, then hire the first arrival beating its best.

    One parametrisation covers the four places the thesis uses the rule:
    the ``classical`` baseline method (strict comparison), the knapsack
    algorithm's heads branch (feasibility filter), Algorithm 3's small
    guesses (first-half limit + matroid filter), and the subadditive
    algorithm's strategy A.  Scores are singleton oracle values —
    exactly one counted query per unfiltered arrival.
    """

    name = "best_singleton"

    def __init__(
        self,
        *,
        strict: bool = False,
        require_finite: bool = False,
        window: Optional[int] = None,
        limit: Optional[int] = None,
        strategy: str = "best-singleton",
        feasible: Optional[Callable[[Hashable], bool]] = None,
    ) -> None:
        super().__init__()
        self.strict = bool(strict)
        self.require_finite = bool(require_finite)
        self.window = window if window is None else int(window)
        self.limit = limit if limit is None else int(limit)
        self.strategy = strategy
        self.feasible = feasible

    def _setup(self) -> None:
        horizon = self._n if self.limit is None else self.limit
        self._window = (
            dynkin_threshold(horizon) if self.window is None else self.window
        )
        self._best = -math.inf
        self._hired: Optional[Hashable] = None

    def observe(self, pos: int, element: Hashable) -> None:
        """Advance the policy by one arrival at stream position *pos*."""
        if self._done:
            return
        if self.limit is not None and pos >= self.limit:
            self._done = True
            return
        if self.feasible is not None and not self.feasible(element):
            return
        score = float(self._oracle.value(frozenset({element})))
        if pos < self._window:
            self._best = max(self._best, score)
            return
        beats = score > self._best if self.strict else score >= self._best
        if beats and (not self.require_finite or score > -math.inf):
            self._hired = element
            self._done = True

    @property
    def hired(self) -> Optional[Hashable]:
        """The single hired element, or None before any hire."""
        return self._hired

    def hired_set(self) -> FrozenSet[Hashable]:
        """The policy's current hired set."""
        hired = getattr(self, "_hired", None)
        return frozenset() if hired is None else frozenset({hired})

    def finish(self) -> SecretaryResult:
        """Finalize at end of stream and return the result object."""
        selected = frozenset() if self._hired is None else frozenset({self._hired})
        return SecretaryResult(selected=selected, traces=[], strategy=self.strategy)

    def config_dict(self) -> Dict[str, object]:
        """JSON-able constructor config; inverse of :meth:`from_config`."""
        return {
            "strict": self.strict,
            "require_finite": self.require_finite,
            "window": self.window,
            "limit": self.limit,
            "strategy": self.strategy,
        }

    def state_dict(self) -> Dict[str, object]:
        """JSON-able mutable state; inverse of :meth:`load_state`."""
        return {
            "best": encode_float(self._best),
            "hired": self._hired,
            "done": self._done,
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore mutable state from a :meth:`state_dict` payload."""
        self._best = decode_float(state["best"])  # type: ignore[arg-type]
        self._hired = state["hired"]
        self._done = bool(state["done"])


# -- Section 3.6: the oblivious robust top-k rule ---------------------------


class RobustTopKPolicy(OnlinePolicy):
    """k segments, an independent classical rule on raw values in each.

    *values* is a :attr:`~OnlinePolicy.workload_map`.
    """

    name = "robust_topk"
    workload_map = "values"

    def __init__(self, values: Mapping[Hashable, float], k: int) -> None:
        super().__init__()
        if k <= 0:
            raise BudgetError(f"k must be positive, got {k}")
        self.values = dict(values)
        self.k = int(k)

    def _setup(self) -> None:
        self._bounds = segment_bounds(self._n, self.k)
        self._observe_len = observation_lengths(self._bounds)
        self._seg = 0
        self._best = -math.inf
        self._per_segment: List[Optional[Hashable]] = [None] * self.k
        self._selected: set = set()

    def observe(self, pos: int, element: Hashable) -> None:
        """Advance the policy by one arrival at stream position *pos*."""
        if self._done:
            return
        while self._seg < self.k and pos >= self._bounds[self._seg][1]:
            self._seg += 1
            self._best = -math.inf
        if self._seg >= self.k:
            self._done = True
            return
        start, _ = self._bounds[self._seg]
        v = float(self.values[element])
        if pos - start < self._observe_len[self._seg]:
            self._best = max(self._best, v)
        elif self._per_segment[self._seg] is None and v >= self._best:
            self._per_segment[self._seg] = element
            self._selected.add(element)

    def finish(self) -> RobustResult:
        """Finalize at end of stream and return the result object."""
        return RobustResult(
            selected=frozenset(self._selected),
            per_segment=list(self._per_segment),
        )

    def hired_set(self) -> FrozenSet[Hashable]:
        """The policy's current hired set."""
        return frozenset(getattr(self, "_selected", ()))

    def config_dict(self) -> Dict[str, object]:
        """JSON-able constructor config; inverse of :meth:`from_config`."""
        return {"k": self.k}

    def state_dict(self) -> Dict[str, object]:
        """JSON-able mutable state; inverse of :meth:`load_state`."""
        return {
            "seg": self._seg,
            "best": encode_float(self._best),
            "per_segment": list(self._per_segment),
            "done": self._done,
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore mutable state from a :meth:`state_dict` payload."""
        self._seg = int(state["seg"])  # type: ignore[arg-type]
        self._best = decode_float(state["best"])  # type: ignore[arg-type]
        self._per_segment = list(state["per_segment"])  # type: ignore[arg-type]
        if len(self._per_segment) != self.k:
            raise ValueError(
                f"per_segment lists {len(self._per_segment)} segments, "
                f"not k = {self.k}"
            )
        self._selected = {e for e in self._per_segment if e is not None}
        self._done = bool(state["done"])


# -- Section 3.6: the bottleneck (min-value) rule ---------------------------


class BottleneckPolicy(OnlinePolicy):
    """Observe a 1/k fraction, then hire the first k above its best.

    *values* is a :attr:`~OnlinePolicy.workload_map`.
    """

    name = "bottleneck"
    workload_map = "values"

    def __init__(self, values: Mapping[Hashable, float], k: int) -> None:
        super().__init__()
        if k <= 0:
            raise BudgetError(f"k must be positive, got {k}")
        self.values = dict(values)
        self.k = int(k)

    def _setup(self) -> None:
        n, k = self._n, self.k
        # k = 1 degenerates to the classical 1/e rule; k >= 2 observes
        # the paper's "first 1/k fraction" (nothing, for streams shorter
        # than k — every arrival must be hireable).
        if k > 1:
            self._window = max(1, n // k) if n >= k else 0
        else:
            self._window = max(0, int(math.floor(n / math.e)))
        self._threshold = -math.inf
        self._selected: List[Hashable] = []

    def observe(self, pos: int, element: Hashable) -> None:
        """Advance the policy by one arrival at stream position *pos*."""
        if self._done:
            return
        v = float(self.values[element])
        if pos < self._window:
            self._threshold = max(self._threshold, v)
        elif len(self._selected) < self.k and v > self._threshold:
            self._selected.append(element)

    def finish(self) -> BottleneckResult:
        """Finalize at end of stream and return the result object."""
        chosen = frozenset(self._selected)
        top_k = set(
            sorted(self.values, key=lambda e: (-self.values[e], repr(e)))[: self.k]
        )
        hired_top_k = len(chosen) == self.k and chosen == frozenset(top_k)
        min_value = min((self.values[a] for a in chosen), default=0.0)
        return BottleneckResult(
            selected=chosen,
            threshold=self._threshold,
            hired_top_k=hired_top_k,
            min_value=min_value if len(chosen) == self.k else 0.0,
        )

    def hired_set(self) -> FrozenSet[Hashable]:
        """The policy's current hired set."""
        return frozenset(getattr(self, "_selected", ()))

    def config_dict(self) -> Dict[str, object]:
        """JSON-able constructor config; inverse of :meth:`from_config`."""
        return {"k": self.k}

    def state_dict(self) -> Dict[str, object]:
        """JSON-able mutable state; inverse of :meth:`load_state`."""
        return {
            "threshold": encode_float(self._threshold),
            "selected": list(self._selected),
            "done": self._done,
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore mutable state from a :meth:`state_dict` payload."""
        self._threshold = decode_float(state["threshold"])  # type: ignore[arg-type]
        self._selected = list(state["selected"])  # type: ignore[arg-type]
        self._done = bool(state["done"])


# -- Section 3.4: the knapsack coin-flip rule -------------------------------


class KnapsackSecretaryPolicy(OnlinePolicy):
    """Theorem 3.1.3's rule over pre-reduced single-knapsack weights.

    ``heads`` chases the single best feasible item with the classical
    rule; tails collects the first half, estimates OPT offline on it
    (:func:`~repro.online.runtime.offline_knapsack_estimate`), then
    hires any later item whose marginal density beats ``OPT_hat /
    density_divisor``.  The coin itself is config — drawn by the caller
    — so a resumed run never needs the original RNG.  *weights* is a
    :attr:`~OnlinePolicy.workload_map`.
    """

    name = "knapsack"
    workload_map = "weights"

    def __init__(
        self,
        weights: Mapping[Hashable, float],
        heads: bool,
        density_divisor: float = 6.0,
    ) -> None:
        super().__init__()
        if density_divisor <= 0:
            raise BudgetError("density_divisor must be positive")
        self.weights = dict(weights)
        self.heads = bool(heads)
        self.density_divisor = float(density_divisor)

    def _setup(self) -> None:
        self._half = self._n // 2
        if self.heads:
            self._singleton = BestSingletonPolicy(
                feasible=lambda a: self.weights[a] <= 1.0
            )
            self._singleton.bind(self._oracle, self._n)
            return
        self._phase = "collect"
        self._first_half: List[Hashable] = []
        self._bar = 0.0
        self._load = 0.0
        self._value = 0.0
        self._selected: List[Hashable] = []
        self._evaluator = None
        if self._n == 0:
            self._begin_filter()

    def _begin_filter(self) -> None:
        opt_hat = offline_knapsack_estimate(
            self._oracle, self.weights, self._first_half
        )
        self._bar = opt_hat / self.density_divisor
        # Incremental marginals against the growing hired set (one
        # counted query per arrival, kernel-fast when supported).
        self._evaluator = evaluator_for(self._oracle)
        self._value = self._evaluator.current_value
        self._phase = "filter"

    @property
    def done(self) -> bool:
        """Whether the policy will hire nothing further."""
        if self.heads and self.bound:
            return self._singleton.done
        return self._done

    def observe(self, pos: int, element: Hashable) -> None:
        """Advance the policy by one arrival at stream position *pos*."""
        if self.heads:
            self._singleton.observe(pos, element)
            return
        if self._phase == "collect":
            self._first_half.append(element)
            if len(self._first_half) >= max(1, self._half):
                self._begin_filter()
            return
        w = self.weights[element]
        if self._load + w > 1.0:
            return
        gain = self._evaluator.gain1(element)
        if w > 0 and gain / w >= self._bar and gain > 0:
            self._selected.append(element)
            self._load += w
        elif w == 0 and gain > 0:
            self._selected.append(element)
        else:
            return
        self._value = self._oracle.value(frozenset(self._selected))
        self._evaluator.advance(element, self._value)

    def finish(self) -> SecretaryResult:
        """Finalize at end of stream and return the result object."""
        if self.heads:
            result = self._singleton.finish()
            return SecretaryResult(
                selected=result.selected, traces=[], strategy="best-singleton"
            )
        return SecretaryResult(
            selected=frozenset(self._selected), traces=[], strategy="density"
        )

    def hired_set(self) -> FrozenSet[Hashable]:
        """The policy's current hired set."""
        if self.heads:
            return self._singleton.hired_set()
        return frozenset(getattr(self, "_selected", ()))

    def frontier(self) -> List[Hashable]:
        # The tails rule keeps its observation half queryable: it runs
        # the offline estimate over ``_first_half`` when the collect
        # phase closes, so a run resumed mid-collect must re-reveal
        # those arrivals too (still O(selected + n/2), never O(stream)).
        """Elements a resumed policy may still query (hires + pending)."""
        if not self.heads and getattr(self, "_phase", None) == "collect":
            return sorted(set(self._first_half) | self.hired_set(), key=repr)
        return sorted(self.hired_set(), key=repr)

    def config_dict(self) -> Dict[str, object]:
        """JSON-able constructor config; inverse of :meth:`from_config`."""
        return {"heads": self.heads, "density_divisor": self.density_divisor}

    def state_dict(self) -> Dict[str, object]:
        """JSON-able mutable state; inverse of :meth:`load_state`."""
        if self.heads:
            return {"singleton": self._singleton.state_dict()}
        state: Dict[str, object] = {
            "phase": self._phase,
            "bar": self._bar,
            "load": self._load,
            "value": self._value,
            "selected": list(self._selected),
            "done": self._done,
        }
        if self._phase == "collect":  # nothing reads it once filtering starts
            state["first_half"] = list(self._first_half)
        return state

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore mutable state from a :meth:`state_dict` payload."""
        if self.heads:
            self._singleton.load_state(state["singleton"])  # type: ignore[arg-type]
            return
        self._phase = str(state["phase"])
        if self._phase not in ("collect", "filter"):
            raise ValueError(f"unknown knapsack phase {self._phase!r}")
        self._first_half = (
            list(state["first_half"]) if self._phase == "collect" else []  # type: ignore[arg-type]
        )
        self._bar = float(state["bar"])  # type: ignore[arg-type]
        self._load = float(state["load"])  # type: ignore[arg-type]
        self._selected = list(state["selected"])  # type: ignore[arg-type]
        self._done = bool(state["done"])
        if self._phase == "filter":
            self._evaluator = evaluator_for(self._oracle)
            self._evaluator.reset(self._selected)
            self._value = float(state["value"])  # type: ignore[arg-type]


# -- Section 3.5: the subadditive random-segment strategy -------------------


class SubadditiveSegmentPolicy(OnlinePolicy):
    """Hire one pre-drawn size-<=k segment wholesale (strategy B).

    Strategy A (the coin's other face) is a plain
    :class:`BestSingletonPolicy`; the wrapper picks between them.
    """

    name = "subadditive_segment"

    def __init__(self, k: int, target: int) -> None:
        super().__init__()
        if k <= 0:
            raise BudgetError(f"k must be positive, got {k}")
        self.k = int(k)
        self.target = int(target)

    def _setup(self) -> None:
        self._lo = self.target * self.k
        self._hi = min(self._n, self._lo + self.k)
        self._selected: List[Hashable] = []

    def observe(self, pos: int, element: Hashable) -> None:
        """Advance the policy by one arrival at stream position *pos*."""
        if self._done:
            return
        if self._lo <= pos < self._hi:
            self._selected.append(element)
        elif pos >= self._hi:
            self._done = True

    def finish(self) -> SecretaryResult:
        """Finalize at end of stream and return the result object."""
        return SecretaryResult(
            selected=frozenset(self._selected),
            traces=[],
            strategy=f"segment-{self.target}",
        )

    def hired_set(self) -> FrozenSet[Hashable]:
        """The policy's current hired set."""
        return frozenset(getattr(self, "_selected", ()))

    def config_dict(self) -> Dict[str, object]:
        """JSON-able constructor config; inverse of :meth:`from_config`."""
        return {"k": self.k, "target": self.target}

    def state_dict(self) -> Dict[str, object]:
        """JSON-able mutable state; inverse of :meth:`load_state`."""
        return {"selected": list(self._selected), "done": self._done}

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore mutable state from a :meth:`state_dict` payload."""
        self._selected = list(state["selected"])  # type: ignore[arg-type]
        self._done = bool(state["done"])


# -- Section 3.3: the matroid secretary guess dispatcher --------------------


class MatroidSecretaryPolicy(OnlinePolicy):
    """Algorithm 3 for a *given* guess ``k = |S*|`` (the wrapper draws it).

    Small guesses hire the best independent singleton of the first half;
    large guesses run Algorithm 1 on the first half with every hire kept
    independent in all matroids.  Matroids are a runtime dependency —
    re-inject them via ``from_config(config, matroids=...)`` on resume.
    """

    name = "matroid"

    def __init__(self, matroids: Sequence, k_guess: int) -> None:
        super().__init__()
        if not matroids:
            raise BudgetError("need at least one matroid; use Algorithm 1 for none")
        if k_guess <= 0:
            raise BudgetError(f"k_guess must be positive, got {k_guess}")
        self.matroids = list(matroids)
        self.k_guess = int(k_guess)

    def _independent(self, subset) -> bool:
        return all(m.is_independent(subset) for m in self.matroids)

    def _setup(self) -> None:
        r = max(1, max(m.rank() for m in self.matroids))
        log_r = max(1, math.ceil(math.log2(r))) if r > 1 else 1
        half = self._n // 2
        if self.k_guess <= max(1, log_r):
            self._inner: OnlinePolicy = BestSingletonPolicy(
                require_finite=True,
                limit=half,
                feasible=lambda a: self._independent(frozenset({a})),
            )
            self._strategy = "best-singleton"
        else:
            self._inner = SegmentedSubmodularPolicy(
                self.k_guess,
                window_n=half,
                can_take=lambda cur, a: self._independent(frozenset(cur) | {a}),
                strategy=f"segments-k={self.k_guess}",
            )
            self._strategy = self._inner.strategy
        self._inner.bind(self._oracle, self._n)

    @property
    def done(self) -> bool:
        """Whether the policy will hire nothing further."""
        if self.bound:
            return self._inner.done
        return self._done

    def observe(self, pos: int, element: Hashable) -> None:
        """Advance the policy by one arrival at stream position *pos*."""
        self._inner.observe(pos, element)

    def observe_batch(self, pos0: int, elements: Sequence[Hashable]) -> None:
        """Vectorized observe: consume one revealed minibatch."""
        self._inner.observe_batch(pos0, elements)

    def finish(self) -> SecretaryResult:
        """Finalize at end of stream and return the result object."""
        result = self._inner.finish()
        return SecretaryResult(
            selected=result.selected,
            traces=result.traces,
            strategy=self._strategy,
        )

    def hired_set(self) -> FrozenSet[Hashable]:
        """The policy's current hired set."""
        inner = getattr(self, "_inner", None)
        return frozenset() if inner is None else inner.hired_set()

    def frontier(self) -> List[Hashable]:
        """Elements a resumed policy may still query (hires + pending)."""
        inner = getattr(self, "_inner", None)
        return [] if inner is None else inner.frontier()

    def config_dict(self) -> Dict[str, object]:
        """JSON-able constructor config; inverse of :meth:`from_config`."""
        return {"k_guess": self.k_guess}

    def state_dict(self) -> Dict[str, object]:
        """JSON-able mutable state; inverse of :meth:`load_state`."""
        return {"inner": self._inner.state_dict()}

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore mutable state from a :meth:`state_dict` payload."""
        self._inner.load_state(state["inner"])  # type: ignore[arg-type]


# -- registry ---------------------------------------------------------------

POLICIES: Dict[str, Type[OnlinePolicy]] = {}


def register_policy(cls: Type[OnlinePolicy]) -> Type[OnlinePolicy]:
    """Register a policy constructor under *name*."""
    if not cls.name:
        raise InvalidInstanceError("policy class must set a non-empty name")
    POLICIES[cls.name] = cls
    return cls


def policy_names() -> Tuple[str, ...]:
    """Sorted names of every registered policy."""
    return tuple(sorted(POLICIES))


def make_policy(name: str, config: Mapping[str, object], **deps) -> OnlinePolicy:
    """Rebuild a registered policy from its checkpoint config."""
    cls = POLICIES.get(name)
    if cls is None:
        raise InvalidInstanceError(
            f"unknown policy {name!r}; known: {policy_names()}"
        )
    return cls.from_config(config, **deps)


#: The policy names :func:`build_policy` knows.
SESSION_POLICIES = ("monotone", "nonmonotone", "classical", "robust",
                    "bottleneck", "knapsack", "subadditive")


def build_policy(
    name: str, n: int, k: int, rng=None,
    deps: Optional[Mapping[str, object]] = None,
) -> OnlinePolicy:
    """Build policy *name* for an *n*-arrival stream and hire budget *k*.

    The one table sessions, engine cells and the paper wrappers build
    their policies from.  Every coin (Algorithm 2's half, the knapsack
    rule's heads, the subadditive rule's strategy and segment) is drawn
    from ``as_generator(rng)``; *deps* holds the element map the rule
    reads: ``values`` for the robust and bottleneck rules, the reduced
    ``weights`` for the knapsack rule.  A missing map or an unknown
    *name* raises :class:`~repro.errors.InvalidInstanceError`.
    """
    gen = as_generator(rng)

    def needs(key: str):
        """The *key* map from *deps*, which the rule cannot run without."""
        if (deps or {}).get(key) is None:
            raise InvalidInstanceError(
                f"policy {name!r} needs its {key!r} map in deps"
            )
        return deps[key]  # type: ignore[index]

    if name == "monotone":
        return SegmentedSubmodularPolicy(k)
    if name == "nonmonotone":
        return nonmonotone_half_policy(n, k, bool(gen.random() < 0.5))
    if name == "classical":
        return BestSingletonPolicy(strict=True)
    if name == "robust":
        return RobustTopKPolicy(needs("values"), k)
    if name == "bottleneck":
        return BottleneckPolicy(needs("values"), k)
    if name == "knapsack":
        return KnapsackSecretaryPolicy(
            needs("weights"), heads=bool(gen.random() < 0.5)
        )
    if name == "subadditive":
        if gen.random() < 0.5:
            return BestSingletonPolicy()
        n_segments = max(1, -(-n // k))  # ceil(n / k)
        return SubadditiveSegmentPolicy(k, int(gen.integers(n_segments)))
    raise InvalidInstanceError(
        f"unknown online policy {name!r}; known: {SESSION_POLICIES}"
    )


for _cls in (
    SegmentedSubmodularPolicy,
    BestSingletonPolicy,
    RobustTopKPolicy,
    BottleneckPolicy,
    KnapsackSecretaryPolicy,
    SubadditiveSegmentPolicy,
    MatroidSecretaryPolicy,
):
    register_policy(_cls)
