"""Damaged JSON input files exit 2 with one line naming the file and field.

Covers every file the CLI reads through :func:`repro.io.read_json`:
instance files (``solve``, ``prize``, ``check``), tenant spec files and
fault plans (``online serve``), and bench baselines (``bench
--baseline``).  A truncated or non-UTF-8 file, or a field of the wrong
type, must never surface as a decoder or ``ValueError`` traceback.
"""

import json

import pytest

from repro.cli import main
from repro.errors import InvalidInstanceError
from repro.io import instance_to_dict
from repro.online.faults import FAULT_PLAN_FORMAT, load_fault_plan
from repro.workloads.jobs import random_multi_interval_instance

DROP = object()

#: (path into the instance payload, new value or DROP, field named).
INSTANCE_DAMAGE = [
    (("jobs", 0, "id"), DROP, "jobs[0].id"),
    (("jobs", 0, "slots"), 5, "jobs[0].slots"),
    (("jobs", 0, "slots", 0), ["P0"], "jobs[0].slots[0]"),
    (("jobs", 0, "slots", 0, 1), 2.5, "jobs[0].slots[0]"),
    (("jobs", 0, "slots", 0, 1), "5", "jobs[0].slots[0]"),
    (("horizon",), 12.5, "horizon"),
    (("horizon",), "12", "horizon"),
    (("processors",), DROP, "processors"),
    (("jobs",), 7, "jobs"),
    (("jobs", 0), "j0", "jobs[0]"),
    (("cost_model",), 5, "cost_model"),
    (("cost_model", "restart_cost"), DROP, "cost_model.restart_cost"),
    (("cost_model", "kind"), "quantum", "cost_model.kind"),
    (("jobs", 0, "value"), "x", "jobs[0].value"),
    (("cost_model", "rate"), "x", "cost_model.rate"),
    (("candidate_intervals",), [["P0", 0]], "candidate_intervals[0]"),
]


def _instance_payload():
    return instance_to_dict(random_multi_interval_instance(6, 2, 12, rng=1))


def _damage(payload, path, value):
    *head, last = path
    target = payload
    for key in head:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return payload


def _exits_2_naming(argv, capsys, *names):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for name in names:
        assert name in err, (name, err)
    return err


class TestInstanceFiles:
    @pytest.mark.parametrize("path, value, field", INSTANCE_DAMAGE, ids=[
        f"{field}-{'missing' if value is DROP else type(value).__name__}"
        for _, value, field in INSTANCE_DAMAGE
    ])
    def test_a_bad_field_exits_2_naming_file_and_field(
        self, tmp_path, capsys, path, value, field
    ):
        file = tmp_path / "inst.json"
        file.write_text(json.dumps(_damage(_instance_payload(), path, value)))
        _exits_2_naming(["solve", str(file)], capsys, str(file), f"'{field}'")

    def test_a_nested_cost_model_field_is_named_by_its_path(self, tmp_path, capsys):
        payload = _instance_payload()
        payload["cost_model"] = {"kind": "unavailable", "blocked": [["P0", 1]],
                                 "base": {"kind": "superlinear", "restart_cost": 1.0}}
        file = tmp_path / "inst.json"
        file.write_text(json.dumps(payload))
        _exits_2_naming(["check", str(file)], capsys, "'cost_model.base.exponent'")

    def test_a_non_object_payload_exits_2(self, tmp_path, capsys):
        file = tmp_path / "inst.json"
        file.write_text("[1, 2]")
        _exits_2_naming(["check", str(file)], capsys, str(file))

    @pytest.mark.parametrize("argv", [["solve"], ["prize", "--target", "3"], ["check"]],
                             ids=["solve", "prize", "check"])
    @pytest.mark.parametrize("damage, what", [
        (lambda text: text[: len(text) // 2].encode(), "not valid JSON"),
        (lambda text: b"\xff\xfe" + text.encode(), "not valid UTF-8"),
    ], ids=["truncated", "non-utf8"])
    def test_a_corrupt_file_exits_2(self, tmp_path, capsys, argv, damage, what):
        file = tmp_path / "inst.json"
        file.write_bytes(damage(json.dumps(_instance_payload())))
        _exits_2_naming([argv[0], str(file), *argv[1:]], capsys, str(file), what)

    def test_the_undamaged_file_loads(self, tmp_path):
        file = tmp_path / "inst.json"
        file.write_text(json.dumps(_instance_payload()))
        assert main(["check", str(file)]) == 0


def _spec(tmp_path):
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps([{"id": "a", "n": 12, "k": 2}]))
    return str(path)


def _plan(top, rule):
    rule = {"site": "serve.feed", "kind": "latency", "delay": 0.001, **rule}
    return {"format": FAULT_PLAN_FORMAT, **top, "rules": [rule]}


class TestServeInputs:
    def test_a_non_utf8_spec_file_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "fleet.json"
        spec.write_bytes(b'[{"id": "\xff"}]')
        _exits_2_naming(["online", "serve", str(spec)], capsys, str(spec),
                        "not valid UTF-8")

    def test_a_non_utf8_fault_plan_exits_2(self, tmp_path, capsys):
        plan = tmp_path / "p.json"
        plan.write_bytes(b'{"format": "\xff"}')
        _exits_2_naming(["online", "serve", _spec(tmp_path), "--fault-plan", str(plan)],
                        capsys, str(plan), "not valid UTF-8")

    @pytest.mark.parametrize("top, rule, field", [
        ({"seed": "abc"}, {"at": [1]}, "'seed'"),
        ({"seed": 1.5}, {"at": [1]}, "'seed'"),
        ({}, {"at": "abc"}, "'at'"),
        ({}, {"at": [1, "2"]}, "'at'"),
        ({}, {"rate": "abc"}, "'rate'"),
        ({}, {"at": [1], "delay": "abc"}, "'delay'"),
        ({"retry": {"max_attempts": "abc"}}, {"at": [1]}, "'retry.max_attempts'"),
    ], ids=["seed-str", "seed-float", "at-str", "at-item-str", "rate-str",
            "delay-str", "retry-str"])
    def test_a_bad_fault_plan_number_exits_2_naming_it(
        self, tmp_path, capsys, top, rule, field
    ):
        plan = tmp_path / "p.json"
        plan.write_text(json.dumps(_plan(top, rule)))
        _exits_2_naming(["online", "serve", _spec(tmp_path), "--fault-plan", str(plan)],
                        capsys, str(plan), field)

    @pytest.mark.parametrize("top, rule, field", [
        ({}, {"at": [1], "delay": float("inf")}, "'delay'"),
        ({"retry": {"base_delay": float("nan")}}, {"at": [1]}, "base_delay"),
    ], ids=["delay-inf", "base-delay-nan"])
    def test_a_non_finite_delay_is_refused_before_any_serve(self, tmp_path, top, rule,
                                                             field):
        # Checked on the loader, not through a serve: before the check,
        # an infinite latency delay made the serve sleep forever.
        plan = tmp_path / "p.json"
        plan.write_text(json.dumps(_plan(top, rule)))
        with pytest.raises(InvalidInstanceError, match=field) as exc:
            load_fault_plan(str(plan))
        assert str(plan) in str(exc.value)


class TestBenchBaseline:
    @pytest.mark.parametrize("content, what", [
        (b'{"format": "repro-bench/1", "cells": {', "not valid JSON"),
        (b'{"format": "\xff"}', "not valid UTF-8"),
    ], ids=["truncated", "non-utf8"])
    def test_a_corrupt_baseline_exits_2(self, tmp_path, capsys, monkeypatch,
                                        content, what):
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "base.json"
        baseline.write_bytes(content)
        assert main(["bench", "--profile", "smoke", "--baseline", str(baseline)]) == 2
        err = capsys.readouterr().err
        assert str(baseline) in err and what in err, err
