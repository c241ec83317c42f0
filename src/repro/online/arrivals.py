"""Pluggable arrival processes — how elements reach an online policy.

The paper's model is a single uniform-random permutation; the runtime
generalises that into a registry of *arrival processes*, each a builder
``(utility, seed, **params) -> ArrivalSchedule``:

``uniform``
    The paper's model.  Bit-identical to the order
    :class:`~repro.secretary.stream.SecretaryStream` draws for the same
    seed, so every legacy experiment replays exactly.
``sorted_desc`` / ``sorted_asc``
    Adversarial deterministic orders by singleton value (descending
    defeats observation windows: the best element arrives first).
``bursty``
    The uniform permutation delivered in random minibatches (geometric
    sizes) — arrivals within a burst are interviewed together, which is
    what lets the driver score a whole burst in one kernel call.
``poisson``
    The uniform permutation with exponential interarrival timestamps;
    arrivals sharing an integer tick form one minibatch (a service-style
    "drain the queue once per tick" pattern).
``sliding_window``
    Replay of the sorted-descending order through a bounded shuffle
    buffer of size ``window`` — locally shuffled, globally sorted, the
    classic "almost sorted" replay trace.  An element can arrive at most
    ``window - 1`` positions earlier than its sorted position.

All randomness is seed-derived (child seeds via
:func:`repro.engine.hashing.derive_seed`), so a schedule is a pure
function of ``(utility, process, seed, params)`` and its
:meth:`ArrivalSchedule.fingerprint` pins instance provenance the same
way the engine's instance fingerprints do.  That is also what lets
:func:`build_arrival_source` memoise what it builds for an integer seed
on the utility itself: every later start or resume of the same stream
over the same utility object gets a fresh source in O(1), and the memo
is freed with the utility.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _json_string
from typing import Callable, Dict, FrozenSet, Hashable, Iterator, List, Mapping, Optional, Tuple

from repro.core.submodular import SetFunction
from repro.errors import InvalidInstanceError
from repro.rng import as_generator, random_permutation

__all__ = [
    "ArrivalSchedule",
    "ArrivalFingerprint",
    "ArrivalSource",
    "ScheduleSource",
    "BurstySource",
    "ARRIVAL_PROCESSES",
    "ARRIVAL_SOURCES",
    "register_arrival_process",
    "register_arrival_source",
    "build_arrival_schedule",
    "build_arrival_source",
    "as_arrival_source",
    "source_from_spec",
    "arrival_process_names",
]

SCHEDULE_FORMAT = "repro-arrival-schedule/1"

FINGERPRINT_FORMAT = "repro-arrival-fingerprint/2"

SOURCE_SPEC_FORMAT = "repro-arrival-source/1"


def _canonical(payload) -> str:
    """Canonical JSON (same convention as ``engine.hashing``), inlined
    so per-arrival fingerprint updates never cross the engine import."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _require(value, kind, field: str, what: str):
    """*value* if it is a *kind* (and not a bool), else an error naming *field*."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InvalidInstanceError(
            f"checkpoint field {field!r} must be {what}, got {value!r:.60}"
        )
    return value


def _require_param(value, name: str, what: str, ok: Callable[[float], bool],
                   kind=(int, float)):
    """*value* if it is a *kind* of JSON number (not a bool) passing
    *ok*, else an error naming process parameter *name*."""
    try:
        valid = (isinstance(value, kind) and not isinstance(value, bool)
                 and ok(float(value)))
    except OverflowError:  # an int too large for a float
        valid = False
    if not valid:
        raise InvalidInstanceError(
            f"arrival process parameter {name!r} must be {what}, got {value!r:.60}"
        )
    return value


def _check_mean_batch(mean_batch) -> None:
    """The bursty processes' one ``mean_batch`` check."""
    _require_param(mean_batch, "mean_batch", "a finite number >= 1",
                   lambda v: math.isfinite(v) and v >= 1.0)


def _state_position(state: Mapping[str, object], name: str,
                    n: Optional[int]) -> int:
    """``state[name]`` as a stream position in ``[0, n]``, or an error
    naming ``source.state.<name>``."""
    value = _require(state.get(name), int, f"source.state.{name}", "an integer")
    if value < 0 or (n is not None and value > n):
        raise InvalidInstanceError(
            f"checkpoint field 'source.state.{name}': {name} {value} "
            f"outside stream of {n}"
        )
    return value


class ArrivalFingerprint:
    """Incrementally-maintained content hash of an arrival stream.

    A chained SHA-256: the chain starts from a canonical-JSON header
    ``(process, seed, params)`` and folds in one record per arrival —
    ``(repr(element), starts_new_batch, timestamp)`` — so the digest
    after *c* arrivals is a pure function of the stream's prefix.  The
    ``(chain, count)`` pair is plain JSON-able state: a suspended source
    resumes the hash in O(1) instead of replaying the prefix, and a
    fully drained source's digest equals
    :meth:`ArrivalSchedule.fingerprint` of the materialized schedule
    (the property the fingerprint-equivalence suite pins).
    """

    def __init__(self, header: Dict[str, object], *, chain: Optional[str] = None,
                 count: int = 0) -> None:
        self._header = dict(header)
        if chain is None:
            chain = hashlib.sha256(
                _canonical(self._header).encode("utf-8")
            ).hexdigest()
        self._chain = str(chain)
        self._count = int(count)

    @classmethod
    def for_stream(cls, process: str, seed, params: Dict[str, object],
                   ) -> "ArrivalFingerprint":
        """Fresh fingerprint chain for one (process, seed, params) stream."""
        return cls({
            "format": FINGERPRINT_FORMAT,
            "process": process,
            "seed": seed,
            "params": dict(params),
        })

    def update(self, element: Hashable, new_batch: bool,
               timestamp: Optional[float]) -> None:
        """Extend the chain with one revealed arrival.

        The record is ``_canonical([repr(element), bool(new_batch),
        timestamp])``, built by hand from the encoders ``json.dumps``
        itself uses (only an unusual timestamp goes through it).
        """
        if timestamp is None:
            stamp = "null"
        elif type(timestamp) is float and math.isfinite(timestamp):
            stamp = float.__repr__(timestamp)
        else:  # ints, float subclasses; NaN and ±inf raise ValueError
            stamp = _canonical(timestamp)
        record = (f"[{_json_string(repr(element))},"
                  f"{'true' if new_batch else 'false'},{stamp}]")
        self._chain = hashlib.sha256(
            (self._chain + record).encode("utf-8")
        ).hexdigest()
        self._count += 1

    @property
    def digest(self) -> str:
        """Current chain digest (hex SHA-256)."""
        return self._chain

    @property
    def count(self) -> int:
        """Arrivals hashed into the chain so far."""
        return self._count

    def state_dict(self) -> Dict[str, object]:
        """JSON-able chain state; inverse of :meth:`from_state`."""
        return {"chain": self._chain, "count": self._count}

    @classmethod
    def from_state(cls, header: Dict[str, object],
                   state: Dict[str, object]) -> "ArrivalFingerprint":
        """Resume a chain from its checkpointed (chain, count) state."""
        return cls(header, chain=str(state["chain"]), count=int(state["count"]))  # type: ignore[arg-type]


@dataclass
class ArrivalSchedule:
    """A fully materialised arrival plan over a ground set.

    ``order`` enumerates the arrivals; ``batch_sizes`` partitions it
    into the minibatches the driver reveals together (all 1 for
    per-arrival processes); ``timestamps`` optionally attaches arrival
    times (Poisson process).  The schedule is plain data — JSON-able
    whenever the elements are — which is what makes checkpoints
    self-contained.
    """

    process: str
    seed: Optional[int]
    order: List[Hashable]
    batch_sizes: List[int]
    timestamps: Optional[List[float]] = None
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if sum(self.batch_sizes) != len(self.order):
            raise InvalidInstanceError(
                f"batch sizes sum to {sum(self.batch_sizes)}, "
                f"order has {len(self.order)} arrivals"
            )
        if any(b <= 0 for b in self.batch_sizes):
            raise InvalidInstanceError("batch sizes must be positive")
        if self.timestamps is not None and len(self.timestamps) != len(self.order):
            raise InvalidInstanceError("one timestamp per arrival required")

    @property
    def n(self) -> int:
        """Total stream length."""
        return len(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def batches(self, start: int = 0) -> Iterator[Tuple[int, List[Hashable]]]:
        """Yield ``(first_position, elements)`` minibatches from *start*.

        A *start* inside a batch yields the batch's unconsumed tail
        first — how a run resumed mid-burst continues without replaying
        decided arrivals.
        """
        pos = 0
        for size in self.batch_sizes:
            end = pos + size
            if end > start:
                lo = max(pos, start)
                yield lo, self.order[lo:end]
            pos = end

    def payload(self) -> Dict[str, object]:
        """JSON-able round-trippable form (checkpoints embed this)."""
        for e in self.order:
            if not isinstance(e, (str, int)):
                raise InvalidInstanceError(
                    f"schedule with element {e!r} is not JSON round-trippable; "
                    "checkpointable streams need str/int elements"
                )
        return {
            "format": SCHEDULE_FORMAT,
            "process": self.process,
            "seed": self.seed,
            "order": list(self.order),
            "batch_sizes": list(self.batch_sizes),
            "timestamps": None if self.timestamps is None else list(self.timestamps),
            # Sorted so every renderer of the payload (checkpoint files,
            # ``repro online inspect``, docs examples) prints the same
            # key order regardless of how the params dict was assembled.
            "params": dict(sorted(self.params.items())),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ArrivalSchedule":
        """Rebuild from a checkpoint-embedded JSON payload."""
        _require(payload, Mapping, "schedule", "an object")
        if payload.get("format") != SCHEDULE_FORMAT:
            raise InvalidInstanceError(
                f"not a {SCHEDULE_FORMAT} payload: {payload.get('format')!r}"
            )
        null = type(None)
        order = _require(payload.get("order"), list, "schedule.order", "a list")
        for e in order:
            _require(e, (str, int), "schedule.order", "a list of strings and integers")
        sizes = _require(payload.get("batch_sizes"), list, "schedule.batch_sizes", "a list")
        for b in sizes:
            _require(b, int, "schedule.batch_sizes", "a list of integers")
        times = _require(payload.get("timestamps"), (list, null), "schedule.timestamps",
                         "a list or null")
        for t in times or ():
            _require(t, (int, float), "schedule.timestamps", "a list of numbers")
        params = _require(payload.get("params"), (Mapping, null), "schedule.params",
                          "an object or null")
        return cls(
            process=_require(payload.get("process"), str, "schedule.process", "a string"),
            seed=_require(payload.get("seed"), (int, null), "schedule.seed",
                          "an integer or null"),
            order=list(order),
            batch_sizes=list(sizes),
            timestamps=None if times is None else [float(t) for t in times],
            params=dict(params or {}),
        )

    def fingerprint(self) -> str:
        """Stable content hash of the schedule (provenance anchor).

        Defined as the fully-advanced :class:`ArrivalFingerprint` chain,
        so a lazily-yielding :class:`ArrivalSource` that emits the same
        stream reaches the same digest without ever materializing.
        """
        fp = ArrivalFingerprint.for_stream(self.process, self.seed, self.params)
        pos = 0
        for size in self.batch_sizes:
            for i in range(pos, pos + size):
                fp.update(
                    self.order[i], i == pos,
                    None if self.timestamps is None else self.timestamps[i],
                )
            pos += size
        return fp.digest


ProcessBuilder = Callable[..., ArrivalSchedule]

ARRIVAL_PROCESSES: Dict[str, ProcessBuilder] = {}


def register_arrival_process(name: str, builder: ProcessBuilder) -> ProcessBuilder:
    """Register *builder* under *name* (last registration wins)."""
    if not name:
        raise InvalidInstanceError("arrival process needs a non-empty name")
    ARRIVAL_PROCESSES[name] = builder
    return builder


def arrival_process_names() -> Tuple[str, ...]:
    """Registered process names, sorted (stable CLI/docs order)."""
    return tuple(sorted(ARRIVAL_PROCESSES))


def build_arrival_schedule(
    process: str, utility: SetFunction, seed, **params
) -> ArrivalSchedule:
    """Build *process*'s schedule over *utility*'s ground set."""
    builder = ARRIVAL_PROCESSES.get(process)
    if builder is None:
        raise InvalidInstanceError(
            f"unknown arrival process {process!r}; known: {arrival_process_names()}"
        )
    try:
        return builder(utility, seed, **params)
    except TypeError as exc:
        # An unexpected keyword (user-supplied --process-params) is a
        # usage error, not an internal failure.
        raise InvalidInstanceError(
            f"bad parameters for arrival process {process!r}: {exc}"
        ) from exc


# -- builders ---------------------------------------------------------------
#
# ``seed`` may be an int (the reproducible path: child streams derive
# through engine hashing), ``None`` (OS entropy), or a live
# ``numpy.random.Generator`` — the latter draws order and batching
# sequentially from the caller's stream, which is how the legacy
# ``rng=Generator`` entry points stay bit-identical.


def _sorted_ground(utility: SetFunction) -> List[Hashable]:
    return sorted(utility.ground_set, key=repr)


def _seed_field(seed) -> Optional[int]:
    """What the schedule records as provenance (Generators are opaque)."""
    return int(seed) if isinstance(seed, (int,)) else None


def _child_gen(seed, label: str):
    """A generator for one independent aspect (batching, timestamps)."""
    from repro.engine.hashing import derive_seed  # lazy: avoids import cycle

    if seed is None or isinstance(seed, int):
        return as_generator(None if seed is None else derive_seed(int(seed), label))
    return as_generator(seed)  # live Generator: draw sequentially


def _uniform_order(utility: SetFunction, seed) -> List[Hashable]:
    """The exact permutation ``SecretaryStream`` draws for this seed."""
    return random_permutation(_sorted_ground(utility), as_generator(seed))


def _by_singleton_value(
    utility: SetFunction, descending: bool
) -> List[Hashable]:
    ground = _sorted_ground(utility)
    scored = [(utility.value(frozenset({e})), e) for e in ground]
    scored.sort(key=lambda t: ((-t[0] if descending else t[0]), repr(t[1])))
    return [e for _, e in scored]


def uniform_process(utility: SetFunction, seed) -> ArrivalSchedule:
    """The paper's arrival model: a seed-derived uniform permutation."""
    order = _uniform_order(utility, seed)
    return ArrivalSchedule(
        process="uniform", seed=_seed_field(seed), order=order,
        batch_sizes=[1] * len(order),
    )


def sorted_desc_process(utility: SetFunction, seed) -> ArrivalSchedule:
    """Adversarial order: elements arrive best-first."""
    order = _by_singleton_value(utility, descending=True)
    return ArrivalSchedule(
        process="sorted_desc", seed=_seed_field(seed), order=order,
        batch_sizes=[1] * len(order),
    )


def sorted_asc_process(utility: SetFunction, seed) -> ArrivalSchedule:
    """Adversarial order: elements arrive worst-first."""
    order = _by_singleton_value(utility, descending=False)
    return ArrivalSchedule(
        process="sorted_asc", seed=_seed_field(seed), order=order,
        batch_sizes=[1] * len(order),
    )


def bursty_process(
    utility: SetFunction, seed, *, mean_batch: float = 4.0
) -> ArrivalSchedule:
    """Uniform order delivered in geometric-size minibatches.

    The arrival *order* reuses the uniform process's permutation for the
    same seed (only the batching differs), so switching a cell from
    ``uniform`` to ``bursty`` isolates the effect of burst delivery.
    """
    _check_mean_batch(mean_batch)
    order = _uniform_order(utility, seed)
    return _bursty_schedule(order, seed, mean_batch)


def _bursty_schedule(order: List[Hashable], seed,
                     mean_batch: float) -> ArrivalSchedule:
    """*order* cut into the geometric minibatches the seed's
    ``"bursty-batches"`` child draws (the same draws
    :class:`BurstySource` makes one batch at a time)."""
    gen = _child_gen(seed, "bursty-batches")
    sizes: List[int] = []
    remaining = len(order)
    while remaining > 0:
        size = min(remaining, int(gen.geometric(1.0 / mean_batch)))
        sizes.append(max(1, size))
        remaining -= sizes[-1]
    return ArrivalSchedule(
        process="bursty", seed=_seed_field(seed), order=order, batch_sizes=sizes,
        params={"mean_batch": mean_batch},
    )


def poisson_process(
    utility: SetFunction, seed, *, rate: float = 2.0
) -> ArrivalSchedule:
    """Uniform order with Poisson-process timestamps, batched per tick.

    Interarrival gaps are Exponential(rate); arrivals whose timestamps
    share an integer tick are delivered as one minibatch (the service
    pattern of draining a queue once per unit of time).
    """
    _require_param(rate, "rate", "a finite number > 0",
                   lambda v: math.isfinite(v) and v > 0.0)
    order = _uniform_order(utility, seed)
    gen = _child_gen(seed, "poisson-times")
    gaps = gen.exponential(scale=1.0 / rate, size=len(order))
    times = [float(t) for t in gaps.cumsum()]
    if times and not math.isfinite(times[-1]):
        raise InvalidInstanceError(
            f"arrival process parameter 'rate' {rate!r} gives non-finite timestamps"
        )
    # Group consecutive arrivals by tick.
    sizes: List[int] = []
    current_tick: Optional[int] = None
    for t in times:
        tick = math.floor(t)
        if tick == current_tick:
            sizes[-1] += 1
        else:
            sizes.append(1)
            current_tick = tick
    return ArrivalSchedule(
        process="poisson", seed=_seed_field(seed), order=order, batch_sizes=sizes,
        timestamps=times, params={"rate": rate},
    )


def sliding_window_process(
    utility: SetFunction, seed, *, window: int = 5
) -> ArrivalSchedule:
    """Sorted-descending replay through a size-*window* shuffle buffer.

    Fill a buffer with the next ``window`` elements of the sorted order,
    repeatedly emit a uniformly random buffer member and refill — the
    standard model of a nearly-sorted trace (each element arrives at
    most ``window - 1`` positions before its sorted position).
    """
    _require_param(window, "window", "an integer >= 1", lambda v: v >= 1.0, kind=int)
    source = _by_singleton_value(utility, descending=True)
    gen = _child_gen(seed, "sliding-window")
    buffer: List[Hashable] = []
    order: List[Hashable] = []
    i = 0
    while i < len(source) or buffer:
        while i < len(source) and len(buffer) < window:
            buffer.append(source[i])
            i += 1
        j = int(gen.integers(len(buffer)))
        order.append(buffer.pop(j))
    return ArrivalSchedule(
        process="sliding_window", seed=_seed_field(seed), order=order,
        batch_sizes=[1] * len(order), params={"window": window},
    )


def replay_process(utility: SetFunction, seed, *, payload) -> ArrivalSchedule:
    """Verbatim replay of a recorded schedule payload.

    *payload* is an :meth:`ArrivalSchedule.payload` dict (order +
    batches + timestamps); the replayed schedule reproduces it exactly,
    so recorded traces round-trip through the same runtime as synthetic
    processes.  The payload itself becomes the process parameter — a
    replay stream is reconstructible from its recipe alone, like every
    other process (at the price of an O(n) recipe, which is inherent to
    a recorded trace).
    """
    recorded = ArrivalSchedule.from_payload(payload)
    if frozenset(recorded.order) != utility.ground_set:
        raise InvalidInstanceError(
            "replay payload does not enumerate the utility's ground set exactly"
        )
    return ArrivalSchedule(
        process="replay", seed=_seed_field(seed), order=recorded.order,
        batch_sizes=recorded.batch_sizes, timestamps=recorded.timestamps,
        params={"payload": dict(payload)},
    )


register_arrival_process("uniform", uniform_process)
register_arrival_process("sorted_desc", sorted_desc_process)
register_arrival_process("sorted_asc", sorted_asc_process)
register_arrival_process("bursty", bursty_process)
register_arrival_process("poisson", poisson_process)
register_arrival_process("sliding_window", sliding_window_process)
register_arrival_process("replay", replay_process)


# -- arrival sources ---------------------------------------------------------
#
# The streaming side of the registry: an ``ArrivalSource`` yields the
# same batches a materialized ``ArrivalSchedule`` would, but lazily,
# with a cursor and an incrementally-maintained fingerprint — so a
# suspended stream serialises as ``(spec, cursor, fingerprint state,
# a few source-specific extras)`` instead of the whole order, and
# resumes in O(1) stream work instead of O(cursor).


class ArrivalSource:
    """A resumable, lazily-yielding arrival stream.

    Subclasses implement :meth:`_emit` — return the next slice of the
    current minibatch (never crossing a batch boundary) — plus the
    state-dict extras they need to resume without replaying the prefix.
    The base class owns the cursor and the fingerprint chain.
    """

    def __init__(self, process: str, seed: Optional[int],
                 params: Dict[str, object], n: Optional[int]) -> None:
        self.process = str(process)
        self.seed = seed
        self.params = dict(params)
        self._n = n
        self._cursor = 0
        self._fp = ArrivalFingerprint.for_stream(self.process, self.seed,
                                                 self.params)
        # The last ground set ``order`` was checked against; copies made
        # by :meth:`_clone` share the cell (see :meth:`enumerates`).
        self._checked_ground: List[Optional[FrozenSet]] = [None]

    def _clone(self) -> "ArrivalSource":
        """A cursor-0 copy sharing this source's immutable stream tables.

        :func:`build_arrival_source` hands out clones of the pristine
        source it memoised: each has its own cursor, params dict and
        fingerprint chain.  That function memoises only the types in
        ``_CLONE_SAFE``, whose overrides reset every other mutable field.
        """
        clone = copy.copy(self)
        clone.params = dict(self.params)
        clone._cursor = 0
        clone._fp = ArrivalFingerprint.for_stream(self.process, self.seed,
                                                  self.params)
        return clone

    # -- stream state ---------------------------------------------------

    @property
    def n(self) -> Optional[int]:
        """Total arrivals, or ``None`` for an unbounded source."""
        return self._n

    @property
    def cursor(self) -> int:
        """Arrivals consumed so far."""
        return self._cursor

    @property
    def exhausted(self) -> bool:
        """Whether the stream has no arrivals left."""
        return self._n is not None and self._cursor >= self._n

    @property
    def order(self) -> Optional[List[Hashable]]:
        """The full arrival order when knowable up front, else ``None``."""
        return None

    def enumerates(self, ground_set: FrozenSet) -> bool:
        """Whether :attr:`order` lists exactly *ground_set* (unknown: yes).

        The O(n) comparison runs once per (stream, ground-set object):
        the last ground set that passed is remembered in a cell all
        clones of a memoised source share (no set of the order is kept).
        """
        order = self.order
        if order is None or self._checked_ground[0] is ground_set:
            return True
        if frozenset(order) != ground_set:
            return False
        self._checked_ground[0] = ground_set
        return True

    # -- consumption ----------------------------------------------------

    def _emit(self, limit: Optional[int]):
        """Next ``(elements, timestamps_or_None, starts_new_batch)`` slice
        of at most *limit* arrivals, never crossing a batch boundary;
        ``None`` when drained.  Must not advance the public cursor."""
        raise NotImplementedError

    def take(self, limit: Optional[int] = None):
        """Consume up to *limit* arrivals of the current minibatch.

        Returns ``(first_position, elements, timestamps_or_None)`` and
        advances cursor + fingerprint, or ``None`` when the stream is
        drained (or *limit* is 0).  A batch larger than *limit* is
        truncated — the next ``take`` resumes mid-batch.
        """
        if limit is not None and int(limit) <= 0:
            return None
        emitted = self._emit(None if limit is None else int(limit))
        if emitted is None:
            return None
        elements, stamps, starts_batch = emitted
        pos0 = self._cursor
        for i, element in enumerate(elements):
            self._fp.update(
                element, bool(starts_batch) and i == 0,
                None if stamps is None else stamps[i],
            )
        self._cursor = pos0 + len(elements)
        return pos0, list(elements), (None if stamps is None else list(stamps))

    def batches(self) -> Iterator[Tuple[int, List[Hashable]]]:
        """Drain the remaining stream one whole minibatch at a time."""
        while True:
            step = self.take(None)
            if step is None:
                return
            yield step[0], step[1]

    # -- resumable state ------------------------------------------------

    def spec(self) -> Dict[str, object]:
        """How to rebuild this source: ``(process, seed, params)``.

        Params are emitted in sorted key order so a rendered spec
        (checkpoint files, ``repro online inspect``, docs examples) is
        deterministic across runs.
        """
        return {
            "format": SOURCE_SPEC_FORMAT,
            "process": self.process,
            "seed": self.seed,
            "params": dict(sorted(self.params.items())),
        }

    def _extra_state(self) -> Dict[str, object]:
        return {}

    def _restore_extra(self, state: Dict[str, object]) -> None:
        """Check, then apply, the extras of :meth:`_extra_state`; errors
        name ``source.state.<extra>``."""

    def state_dict(self) -> Dict[str, object]:
        """JSON-able suspend state: cursor + fingerprint chain + extras."""
        state: Dict[str, object] = {
            "cursor": self._cursor,
            "fingerprint": self._fp.state_dict(),
        }
        state.update(self._extra_state())
        return state

    @staticmethod
    def check_state(state, n: Optional[int] = None) -> None:
        """Check the suspend-state fields every source restores.

        *state* must be an object with a JSON-integer ``cursor`` in
        ``[0, n]`` and a ``{"chain": str, "count": int}`` fingerprint
        whose count is the cursor (every arrival taken is hashed once,
        so a moved cursor would resume a different stream); else
        :class:`~repro.errors.InvalidInstanceError` names
        ``source.state.<name>``.  Subclass extras are checked on restore.
        """
        _require(state, Mapping, "source.state", "an object")
        cursor = _state_position(state, "cursor", n)
        fingerprint = _require(state.get("fingerprint"), Mapping,
                               "source.state.fingerprint", "an object")
        _require(fingerprint.get("chain"), str,
                 "source.state.fingerprint.chain", "a string")
        count = _require(fingerprint.get("count"), int,
                         "source.state.fingerprint.count", "an integer")
        if count != cursor:
            raise InvalidInstanceError(
                f"checkpoint field 'source.state.fingerprint.count': the "
                f"chain hashes {count} arrivals, but the cursor is {cursor}"
            )

    def restore(self, state: Mapping[str, object]) -> None:
        """O(1) resume: jump to the saved cursor without replaying.

        Every field is checked before any is applied (:meth:`check_state`,
        then the subclass extras), so a damaged *state* raises, naming
        the field, and leaves the cursor and chain as they were.
        """
        self.check_state(state, self._n)
        self._restore_extra(state)
        self._cursor = int(state["cursor"])  # type: ignore[arg-type]
        self._fp = ArrivalFingerprint.from_state(
            {
                "format": FINGERPRINT_FORMAT,
                "process": self.process,
                "seed": self.seed,
                "params": dict(self.params),
            },
            state["fingerprint"],  # type: ignore[arg-type]
        )

    def fingerprint(self) -> str:
        """Digest of the consumed prefix (= the schedule fingerprint
        once the stream is fully drained)."""
        return self._fp.digest

    def materialize(self) -> ArrivalSchedule:
        """The equivalent fully-materialized schedule (legacy view)."""
        raise NotImplementedError


class ScheduleSource(ArrivalSource):
    """Source view over a (deterministically rebuildable) schedule.

    The adapter that keeps every registered process available as a
    source: the schedule is built eagerly — O(n) memory, once per stream
    and utility when it comes from :func:`build_arrival_source` — but
    consumption, cursor, and fingerprint follow the source
    contract.  Only :func:`build_arrival_source` may pass
    ``rebuildable=True`` — it just built the schedule from exactly the
    ``(process, seed, params)`` triple the spec records, so the spec
    alone reconstructs it and suspend state stays O(1).  Every other
    construction path (hand-built schedules, pre-sharded schedules,
    live-Generator seeds) embeds the schedule payload in the spec, an
    O(n) spec, because resuming such a spec through the builder could
    produce a *different* stream (or a source class whose state layout
    does not match).
    """

    def __init__(self, schedule: ArrivalSchedule, *,
                 rebuildable: bool = False) -> None:
        super().__init__(schedule.process, schedule.seed, schedule.params,
                         schedule.n)
        self._rebuildable = bool(rebuildable)
        self._schedule = schedule
        # Batch start positions (len = #batches + 1) as a compact array.
        self._starts = array("q", accumulate(schedule.batch_sizes, initial=0))

    @property
    def order(self) -> List[Hashable]:
        """The materialized arrival order (forces lazy generation)."""
        return self._schedule.order

    def _emit(self, limit: Optional[int]):
        cursor = self._cursor
        if cursor >= self._schedule.n:
            return None
        b = bisect_right(self._starts, cursor) - 1
        start, end = self._starts[b], self._starts[b + 1]
        hi = end if limit is None else min(end, cursor + limit)
        elements = self._schedule.order[cursor:hi]
        ts = self._schedule.timestamps
        stamps = None if ts is None else ts[cursor:hi]
        return elements, stamps, cursor == start

    def spec(self) -> Dict[str, object]:
        """JSON-able stream identity: process name, seed, sorted params."""
        spec = super().spec()
        if not self._rebuildable:
            spec["schedule"] = self._schedule.payload()
        return spec

    def materialize(self) -> ArrivalSchedule:
        """The full remaining stream as an :class:`ArrivalSchedule`."""
        return self._schedule


class BurstySource(ArrivalSource):
    """The bursty process as a genuinely lazy source.

    The uniform permutation is precomputed (it is one vectorized draw),
    but geometric batch sizes are drawn one at a time exactly as the
    eager builder draws them — and the generator's ``bit_generator``
    state rides in the suspend state, so resume continues the RNG
    mid-stream with no replay and no re-draw.
    """

    def __init__(self, utility: SetFunction, seed, *,
                 mean_batch: float = 4.0) -> None:
        _check_mean_batch(mean_batch)
        order = _uniform_order(utility, seed)
        super().__init__("bursty", _seed_field(seed),
                         {"mean_batch": mean_batch}, len(order))
        self.mean_batch = mean_batch
        self._order = order
        self._gen = _child_gen(seed, "bursty-batches")
        self._batch_end = 0
        self._materialized: Optional[ArrivalSchedule] = None

    def _clone(self) -> "BurstySource":
        clone = super()._clone()
        clone._gen = _child_gen(self.seed, "bursty-batches")
        clone._batch_end = 0
        clone._materialized = None
        return clone  # type: ignore[return-value]

    @property
    def order(self) -> List[Hashable]:
        """The materialized arrival order (forces lazy generation)."""
        return self._order

    def _emit(self, limit: Optional[int]):
        if self._cursor >= len(self._order):
            return None
        starts = False
        if self._cursor >= self._batch_end:
            remaining = len(self._order) - self._cursor
            size = min(remaining, int(self._gen.geometric(1.0 / self.mean_batch)))
            self._batch_end = self._cursor + max(1, size)
            starts = True
        hi = (self._batch_end if limit is None
              else min(self._batch_end, self._cursor + limit))
        return self._order[self._cursor:hi], None, starts

    def _extra_state(self) -> Dict[str, object]:
        return {
            "batch_end": self._batch_end,
            "rng_state": self._gen.bit_generator.state,
        }

    def _restore_extra(self, state: Dict[str, object]) -> None:
        batch_end = _state_position(state, "batch_end", self._n)
        try:
            self._gen.bit_generator.state = state.get("rng_state")
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise InvalidInstanceError(
                f"checkpoint field 'source.state.rng_state' is not a state "
                f"of this stream's bit generator: {exc}"
            ) from exc
        self._batch_end = batch_end

    def materialize(self) -> ArrivalSchedule:
        """The full stream as an :class:`ArrivalSchedule`."""
        if self._materialized is None:
            self._materialized = _bursty_schedule(
                self._order, self.seed, self.mean_batch
            )
        return self._materialized


SourceBuilder = Callable[..., ArrivalSource]

ARRIVAL_SOURCES: Dict[str, SourceBuilder] = {}


def register_arrival_source(name: str, builder: SourceBuilder) -> SourceBuilder:
    """Register a native (lazy) source for an arrival process.

    :func:`build_arrival_source` calls *builder* afresh on every build
    unless it returns one of the built-in source types, which it
    memoises per utility and clones (see ``_CLONE_SAFE``).
    """
    if not name:
        raise InvalidInstanceError("arrival source needs a non-empty name")
    ARRIVAL_SOURCES[name] = builder
    return builder


def build_arrival_source(
    process: str, utility: SetFunction, seed, **params
) -> ArrivalSource:
    """Build *process* as a resumable source over *utility*'s ground set.

    Processes with a registered native source (and a reproducible seed)
    get genuine lazy yielding; everything else — including live-Generator
    seeds, whose draws must stay sequential with the caller's stream —
    falls back to a :class:`ScheduleSource` over the eager builder, so
    every registered process is available through the source API.

    For an integer seed the first build of a ``_CLONE_SAFE`` type is
    memoised in *utility*'s ``__dict__`` (so it is freed with the
    utility), keyed by process, registered builder, seed and JSON
    params; each call returns a clone with its own cursor, fingerprint
    chain and RNG over the shared, never-mutated tables.  That makes a
    resume O(selected) in time.  Any other source type is built afresh.
    """
    if not isinstance(seed, int):
        # Live Generators and None seeds are opaque: the spec cannot
        # rebuild the stream, so the source embeds the payload.
        return ScheduleSource(build_arrival_schedule(process, utility, seed, **params))
    native = ARRIVAL_SOURCES.get(process)

    def build() -> ArrivalSource:
        """Build the stream afresh (the memo's miss path)."""
        if native is None:
            return ScheduleSource(
                build_arrival_schedule(process, utility, seed, **params),
                rebuildable=True,
            )
        try:
            return native(utility, seed, **params)
        except TypeError as exc:
            raise InvalidInstanceError(
                f"bad parameters for arrival process {process!r}: {exc}"
            ) from exc

    builder = native or ARRIVAL_PROCESSES.get(process)
    key = _memo_key(process, builder, seed, params)
    attrs = getattr(utility, "__dict__", None)
    if attrs is None or key is None:
        return build()
    memo = attrs.setdefault("_arrival_sources", {})
    pristine = memo.get(key)
    if pristine is None:
        pristine = build()
        if type(pristine) not in _CLONE_SAFE:
            return pristine
        memo[key] = pristine
        # A resume rebuilds from the spec, which records the params the
        # stream resolved (defaults included): file the build under
        # those too, so a recipe and its checkpoints share one build.
        spec_key = _memo_key(process, builder, seed, pristine.params)
        if spec_key is not None:
            memo.setdefault(spec_key, pristine)
    return pristine._clone()


#: Source types whose :meth:`ArrivalSource._clone` resets all their
#: mutable state, so one memoised build can back every clone.  A
#: subclass may add state its parent's ``_clone`` does not know about,
#: so the test is on the exact type.
_CLONE_SAFE = (ScheduleSource, BurstySource)


def _memo_key(process: str, builder, seed: int, params: Dict[str, object]):
    """Memo key of one build, or ``None`` when *params* are not JSON values."""
    try:
        return (process, builder, seed, _canonical(params))
    except (TypeError, ValueError):
        return None


def as_arrival_source(arrivals) -> ArrivalSource:
    """Coerce a schedule (legacy callers) or source to a source."""
    if isinstance(arrivals, ArrivalSource):
        return arrivals
    if isinstance(arrivals, ArrivalSchedule):
        return ScheduleSource(arrivals)
    raise InvalidInstanceError(
        f"expected an ArrivalSchedule or ArrivalSource, got {type(arrivals).__name__}"
    )


def source_from_spec(spec: Dict[str, object], utility: SetFunction) -> ArrivalSource:
    """Rebuild a source from its :meth:`ArrivalSource.spec` payload.

    The single resume entry point: handles the embedded-schedule
    fallback (opaque seeds) and shard lanes (the ``"shard"`` block names
    a lane of the parent stream; see
    :class:`~repro.online.sharding.PartitionLaneSource`).  A shard block
    that is not an object of JSON integers raises
    :class:`~repro.errors.InvalidInstanceError` naming the field.
    """
    if not isinstance(spec, dict) or "process" not in spec:
        raise InvalidInstanceError("checkpoint carries no rebuildable source spec")
    if spec.get("schedule") is not None:
        base: ArrivalSource = ScheduleSource(
            ArrivalSchedule.from_payload(spec["schedule"])  # type: ignore[arg-type]
        )
    else:
        base = build_arrival_source(
            str(spec["process"]), utility, spec.get("seed"),
            **dict(spec.get("params") or {}),  # type: ignore[arg-type]
        )
    if spec.get("shard") is None:
        return base
    # Imported lazily: sharding imports this module.
    from repro.online.sharding import (
        PartitionMap,
        ShardSource,
        partition_lane_source,
    )

    shard = _require(spec["shard"], Mapping, "source.shard", "an object")
    index = _require(shard.get("index"), int, "source.shard.index",
                     "an integer")
    if shard.get("partition") is not None:
        # A resharded lane: the spec carries the full epoch history.
        return partition_lane_source(
            base, index, PartitionMap.from_payload(shard["partition"]),
        )
    return ShardSource(
        base, index,
        _require(shard.get("num_shards"), int, "source.shard.num_shards",
                 "an integer"),
        salt=_require(shard.get("salt", 0), int, "source.shard.salt",
                      "an integer"),
    )


register_arrival_source("bursty", BurstySource)
