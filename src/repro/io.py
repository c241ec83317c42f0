"""JSON serialization for instances and schedules.

A downstream user needs to get problems *into* the library and results
*out of* it without writing Python constructors by hand; this module
defines a stable, versioned JSON interchange format used by the CLI
(:mod:`repro.cli`) and usable from any language.

Format (version 1)::

    {
      "format": "repro-instance/1",
      "processors": ["cpu0", "cpu1"],
      "horizon": 12,
      "cost_model": {"kind": "affine", "restart_cost": 3.0, "rate": 1.0},
      "jobs": [
        {"id": "compile", "value": 5.0,
         "slots": [["cpu0", 0], ["cpu0", 1], ["cpu1", 5]]}
      ],
      "candidate_intervals": [["cpu0", 0, 3]]          // optional
    }

Cost-model kinds: ``affine``, ``per_processor``, ``time_of_use``,
``superlinear``, ``table`` (plus ``unavailable`` wrapping any of them).
Processor ids are strings in the interchange format (JSON keys must
be); loading preserves them as given.  Loading checks the type of every
field it reads and names the field (``jobs[3].slots[0]``) when one is
wrong.

:func:`read_json` is the one reader for every JSON file the CLI takes:
instances, checkpoints, tenant specs, fault plans and bench reports.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Any, Dict

from repro.errors import InvalidInstanceError
from repro.scheduling.instance import Job, ScheduleInstance
from repro.scheduling.intervals import AwakeInterval
from repro.scheduling.power import (
    AffineCost,
    CostModel,
    PerProcessorRateCost,
    SuperlinearCost,
    TableCost,
    TimeOfUseCost,
    UnavailabilityCost,
)
from repro.scheduling.schedule import Schedule

__all__ = [
    "instance_to_dict",
    "instance_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "dump_instance",
    "dump_json_atomic",
    "load_instance",
    "read_json",
]

_INSTANCE_FORMAT = "repro-instance/1"
_SCHEDULE_FORMAT = "repro-schedule/1"

_REQUIRED = object()
_NUMBER = (int, float)
_ID = (str, int)  # processor and job ids


def _check(value, kind, what: str, field: str):
    """*value* if it is a *kind* (and not a bool), else an error naming *field*."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InvalidInstanceError(
            f"instance field {field!r} must be {what}, got {value!r:.60}"
        )
    return value


def _field(data: Dict[str, Any], name: str, kind, what: str, default=_REQUIRED,
           where: str = ""):
    """``data[name]`` checked by :func:`_check`; *where* prefixes the
    field's path, and a missing field takes *default* or is an error."""
    if name not in data:
        if default is _REQUIRED:
            raise InvalidInstanceError(f"instance field '{where}{name}' is missing")
        return default
    return _check(data[name], kind, what, where + name)


def _rows(data: Dict[str, Any], name: str, kinds, what: str, where: str = "",
          default=_REQUIRED) -> list:
    """``data[name]``: a list of rows, each a list whose entry ``j`` is a
    ``kinds[j]``; else an error naming the row."""
    rows = _field(data, name, list, "a list", default, where)
    for i, row in enumerate(rows):
        field = f"{where}{name}[{i}]"
        if not isinstance(row, list) or len(row) != len(kinds):
            raise InvalidInstanceError(
                f"instance field {field!r} must be {what}, got {row!r:.60}"
            )
        for value, kind in zip(row, kinds):
            _check(value, kind, what, field)
    return rows


# -- cost models -------------------------------------------------------


def _cost_model_to_dict(model: CostModel) -> Dict[str, Any]:
    if isinstance(model, UnavailabilityCost):
        return {
            "kind": "unavailable",
            "base": _cost_model_to_dict(model.base),
            "blocked": sorted([[str(p), int(t)] for p, t in model.blocked]),
        }
    if isinstance(model, AffineCost):
        return {"kind": "affine", "restart_cost": model.restart_cost, "rate": model.rate}
    if isinstance(model, PerProcessorRateCost):
        return {
            "kind": "per_processor",
            "rates": {str(p): r for p, r in model.rates.items()},
            "restart_costs": {str(p): c for p, c in model.restart_costs.items()},
        }
    if isinstance(model, TimeOfUseCost):
        return {
            "kind": "time_of_use",
            "prices": [float(x) for x in model.prices],
            "restart_cost": model.restart_cost,
            "per_processor_prices": {
                str(p): [float(x) for x in arr] for p, arr in model._per_proc.items()
            },
        }
    if isinstance(model, SuperlinearCost):
        return {
            "kind": "superlinear",
            "restart_cost": model.restart_cost,
            "exponent": model.exponent,
            "scale": model.scale,
        }
    if isinstance(model, TableCost):
        return {
            "kind": "table",
            "default": None if model.default == float("inf") else model.default,
            "entries": sorted(
                [[str(iv.processor), iv.start, iv.end, c] for iv, c in model.table.items()],
            ),
        }
    raise InvalidInstanceError(
        f"cost model {type(model).__name__} has no JSON representation"
    )


def _price(value, what: str, field: str):
    """*value* if it is a number and not NaN, else an error naming *field*."""
    _check(value, _NUMBER, what, field)
    if value != value:  # NaN
        raise InvalidInstanceError(f"instance field {field!r} must be {what}, got NaN")
    return value


def _cost_model_from_dict(data: Dict[str, Any], where: str = "cost_model.") -> CostModel:
    def num(name: str, default=_REQUIRED):
        value = _field(data, name, _NUMBER, "a number", default, where)
        return _price(value, "a number", where + name)

    def numbers(value, field: str) -> list:
        _check(value, list, "a list of numbers", field)
        return [_price(v, "a list of numbers", field) for v in value]

    def number_map(name: str) -> dict:
        values = _field(data, name, dict, "an object", where=where)
        return {p: _price(v, "a number", f"{where}{name}.{p}")
                for p, v in values.items()}

    kind = data.get("kind")
    if kind == "affine":
        return AffineCost(num("restart_cost"), num("rate", 1.0))
    if kind == "per_processor":
        return PerProcessorRateCost(number_map("rates"), number_map("restart_costs"))
    if kind == "time_of_use":
        per_proc = _field(data, "per_processor_prices", (dict, type(None)),
                          "an object", None, where)
        return TimeOfUseCost(
            numbers(_field(data, "prices", list, "a list", where=where), where + "prices"),
            num("restart_cost", 0.0),
            {p: numbers(a, f"{where}per_processor_prices.{p}")
             for p, a in (per_proc or {}).items()} or None,
        )
    if kind == "superlinear":
        restart_cost, exponent = num("restart_cost"), num("exponent")
        if math.isinf(exponent):
            raise InvalidInstanceError(
                f"instance field '{where}exponent' must be a finite number, got {exponent}"
            )
        return SuperlinearCost(restart_cost, exponent, num("scale", 1.0))
    if kind == "table":
        default = _field(data, "default", (*_NUMBER, type(None)), "a number or null",
                         None, where)
        if default is not None:
            _price(default, "a number or null", where + "default")
        entries = _rows(data, "entries", (_ID, int, int, _NUMBER),
                        "a [processor, start, end, cost] row", where, [])
        for i, (_, _, _, cost) in enumerate(entries):
            _price(cost, "a [processor, start, end, cost] row", f"{where}entries[{i}]")
        return TableCost(
            {AwakeInterval(p, s, e): float(c) for p, s, e, c in entries},
            default=float("inf") if default is None else float(default),
        )
    if kind == "unavailable":
        base = _field(data, "base", dict, "an object", where=where)
        blocked = _rows(data, "blocked", (_ID, int), "a [processor, time] pair", where, [])
        return UnavailabilityCost(
            _cost_model_from_dict(base, f"{where}base."), [(p, t) for p, t in blocked]
        )
    raise InvalidInstanceError(f"instance field '{where}kind': unknown cost model kind {kind!r}")


# -- instances ----------------------------------------------------------


def instance_to_dict(instance: ScheduleInstance) -> Dict[str, Any]:
    """Serialise an instance (processor/job ids stringified)."""
    out: Dict[str, Any] = {
        "format": _INSTANCE_FORMAT,
        "processors": [str(p) for p in instance.processors],
        "horizon": instance.horizon,
        "cost_model": _cost_model_to_dict(instance.cost_model),
        "jobs": [
            {
                "id": str(job.id),
                "value": job.value,
                "slots": sorted([[str(p), int(t)] for p, t in job.slots]),
            }
            for job in instance.jobs
        ],
    }
    if instance._candidates is not None:
        out["candidate_intervals"] = sorted(
            [[str(iv.processor), iv.start, iv.end] for iv in instance._candidates]
        )
    return out


def instance_from_dict(data: Dict[str, Any]) -> ScheduleInstance:
    """The instance an :func:`instance_to_dict` payload describes.

    Every field is type-checked as it is read; a missing or mistyped one
    raises :class:`InvalidInstanceError` naming it.
    """
    _check(data, dict, "an object", "<instance>")
    if data.get("format") != _INSTANCE_FORMAT:
        raise InvalidInstanceError(
            f"expected format {_INSTANCE_FORMAT!r}, got {data.get('format')!r}"
        )
    processors = _field(data, "processors", list, "a list")
    for i, p in enumerate(processors):
        _check(p, _ID, "a string or integer", f"processors[{i}]")
    horizon = _field(data, "horizon", int, "an integer")
    jobs = []
    for n, job in enumerate(_field(data, "jobs", list, "a list", [])):
        where = f"jobs[{n}]."
        _check(job, dict, "an object", f"jobs[{n}]")
        slots = _rows(job, "slots", (_ID, int), "a [processor, time] pair", where)
        jobs.append(Job(
            id=_field(job, "id", _ID, "a string or integer", where=where),
            slots=frozenset((p, t) for p, t in slots),
            value=float(_field(job, "value", _NUMBER, "a number", 1.0, where)),
        ))
    candidates = None
    if "candidate_intervals" in data:
        candidates = [
            AwakeInterval(p, s, e) for p, s, e in _rows(
                data, "candidate_intervals", (_ID, int, int),
                "a [processor, start, end] triple",
            )
        ]
    return ScheduleInstance(
        processors=processors,
        jobs=jobs,
        horizon=horizon,
        cost_model=_cost_model_from_dict(
            _field(data, "cost_model", dict, "an object")
        ),
        candidate_intervals=candidates,
    )


# -- schedules ----------------------------------------------------------


def schedule_to_dict(schedule: Schedule) -> Dict[str, Any]:
    return {
        "format": _SCHEDULE_FORMAT,
        "intervals": sorted(
            [[str(iv.processor), iv.start, iv.end] for iv in schedule.intervals]
        ),
        "assignment": {
            str(j): [str(p), int(t)] for j, (p, t) in schedule.assignment.items()
        },
    }


def schedule_from_dict(data: Dict[str, Any]) -> Schedule:
    if data.get("format") != _SCHEDULE_FORMAT:
        raise InvalidInstanceError(
            f"expected format {_SCHEDULE_FORMAT!r}, got {data.get('format')!r}"
        )
    return Schedule(
        intervals=[AwakeInterval(p, int(s), int(e)) for p, s, e in data.get("intervals", [])],
        assignment={j: (p, int(t)) for j, (p, t) in data.get("assignment", {}).items()},
    )


# -- file helpers --------------------------------------------------------


def dump_instance(instance: ScheduleInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2, sort_keys=True)


def load_instance(path: str) -> ScheduleInstance:
    """The instance in the JSON file at *path*; errors name the file."""
    data = read_json(path, "instance file")
    try:
        return instance_from_dict(data)
    except InvalidInstanceError as exc:
        raise InvalidInstanceError(f"instance file {path}: {exc}") from exc


def read_json(path: str, what: str) -> Any:
    """Parse the JSON file at *path*, which the caller calls *what*.

    A truncated, hand-damaged or non-UTF-8 file, a directory, or a file
    this process may not read raises :class:`InvalidInstanceError`
    naming it, so the CLI exits 2 with one line instead of a traceback.
    A missing file raises :class:`FileNotFoundError`, which callers
    handle themselves.  One ``open`` and one ``json.load``: tenant
    checkpoints are read through here per admission.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except (IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        raise InvalidInstanceError(
            f"{what} {path} cannot be read ({exc.strerror})"
        ) from exc
    with fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            kind = "JSON" if isinstance(exc, json.JSONDecodeError) else "UTF-8"
            raise InvalidInstanceError(
                f"{what} {path} is corrupt or truncated (not valid {kind}: {exc})"
            ) from exc


def dump_json_atomic(payload: Any, path: str, *, mid_write_hook=None) -> None:
    """Write *payload* as JSON to *path* crash-safely.

    The payload is encoded first, as compact canonical JSON on one line
    (sorted keys, no whitespace, a trailing newline), so a payload that
    cannot be encoded raises before any file exists.  The text is then
    written to a temp file in the target directory (same filesystem, so
    the final ``os.replace`` is atomic) and renamed into place — a
    process killed mid-write can only ever leave a stray temp file
    behind, never a truncated *path*.  Checkpoints ride on this: the
    file a resume reads is always either the previous complete payload
    or the new complete payload.

    *mid_write_hook* (when given) runs after the temp file is fully
    written but before the atomic rename — the torn-write window.  The
    fault-injection layer uses it to hard-kill a process exactly there
    and prove the guarantee above empirically.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        # mkstemp creates 0600 files; restore the umask-governed mode a
        # plain open() would have given, so replacing a checkpoint does
        # not silently strip group/other read access.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        if mid_write_hook is not None:
            mid_write_hook()
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
