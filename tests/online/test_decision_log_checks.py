"""A checkpoint's ``decisions`` and ``frontier`` are checked before use.

``frontier`` must be a list of JSON scalars and ``decisions`` a list of
``[position, element]`` pairs whose position is a JSON integer in
``[0, cursor)``.  Anything else is a clean
:class:`~repro.errors.InvalidInstanceError` naming the field, checked
before any of the checkpoint is applied: ``repro online resume`` exits
2, a serve quarantines only that tenant (exit 3), and ``repro online
inspect`` exits 2 on a ``policy`` that is not an object or a
``decisions``/``frontier`` that is not a list.
"""

import json

import pytest

from repro.cli import main
from repro.errors import InvalidInstanceError
from repro.online.checkpoint import tenant_checkpoint_path
from repro.online.session import resume_session

RUN = ["online", "run", "--policy", "monotone", "--family", "coverage",
       "--n", "50", "--k", "3", "--seed", "1", "--process", "bursty",
       "--max-arrivals", "20"]

RESULT_KEYS = ("selected", "value", "oracle_calls", "decisions")


@pytest.fixture(scope="module")
def suspended(tmp_path_factory):
    """A checkpoint file the CLI wrote 20 arrivals into a bursty stream."""
    path = tmp_path_factory.mktemp("ck") / "f.json"
    assert main(RUN + ["--checkpoint", str(path)]) == 0
    return json.loads(path.read_text(encoding="utf-8"))


def _write_damaged(tmp_path, ck, damage):
    ck = json.loads(json.dumps(ck))
    damage(ck)
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(ck), encoding="utf-8")
    return str(path)


RESUME_DAMAGE = [
    pytest.param(lambda ck: ck.update(decisions=5), "'decisions'", id="int-decisions"),
    pytest.param(lambda ck: ck.update(decisions={"0": "s1"}), "'decisions'",
                 id="object-decisions"),
    pytest.param(lambda ck: ck.update(decisions=[5]), "'decisions'", id="non-pair-entry"),
    pytest.param(lambda ck: ck.update(decisions=[[0, "s1", 2]]), "'decisions'",
                 id="triple-entry"),
    pytest.param(lambda ck: ck.update(decisions=[["0", "s1"]]), "'decisions'",
                 id="str-position"),
    pytest.param(lambda ck: ck.update(decisions=[[True, "s1"]]), "'decisions'",
                 id="bool-position"),
    pytest.param(lambda ck: ck.update(decisions=[[-1, "s1"]]), "'decisions'",
                 id="negative-position"),
    pytest.param(lambda ck: ck.update(decisions=[[ck["cursor"], "s1"]]), "'decisions'",
                 id="position-at-cursor"),
    pytest.param(lambda ck: ck.update(decisions=[[0, ["s1"]]]), "'decisions'",
                 id="list-element"),
    pytest.param(lambda ck: ck.update(frontier=5), "'frontier'", id="int-frontier"),
    pytest.param(lambda ck: ck.update(frontier=None), "'frontier'", id="null-frontier"),
    pytest.param(lambda ck: ck.update(frontier=[{"s": 1}]), "'frontier'",
                 id="object-element"),
]


@pytest.mark.parametrize("damage,field", RESUME_DAMAGE)
def test_cli_resume_exits_2_naming_the_field(tmp_path, capsys, suspended, damage, field):
    path = _write_damaged(tmp_path, suspended, damage)
    assert main(["online", "resume", path]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("damage,field", RESUME_DAMAGE[:1] + RESUME_DAMAGE[-3:])
def test_resume_session_names_the_field(suspended, damage, field):
    ck = json.loads(json.dumps(suspended))
    damage(ck)
    with pytest.raises(InvalidInstanceError, match=field):
        resume_session(ck)


def test_an_undamaged_log_resumes(tmp_path, capsys, suspended):
    path = _write_damaged(tmp_path, suspended, lambda ck: None)
    assert main(["online", "resume", path]) == 0


@pytest.mark.parametrize("damage,field", [
    pytest.param(lambda ck: ck.update(policy="x"), "'policy'", id="str-policy"),
    pytest.param(lambda ck: ck.update(decisions=5), "'decisions'", id="int-decisions"),
    pytest.param(lambda ck: ck.update(frontier=5), "'frontier'", id="int-frontier"),
])
def test_cli_inspect_exits_2_naming_the_field(tmp_path, capsys, suspended, damage, field):
    path = _write_damaged(tmp_path, suspended, damage)
    assert main(["online", "inspect", path]) == 2
    assert field in capsys.readouterr().err


def test_a_serve_quarantines_only_the_tenant_with_a_damaged_log(tmp_path, capsys):
    fleet = {
        "defaults": {"family": "coverage", "n": 60, "k": 3, "policy": "monotone"},
        "tenants": [{"id": "a", "seed": 41}, {"id": "b", "seed": 42}],
    }
    spec = tmp_path / "fleet.json"
    spec.write_text(json.dumps(fleet), encoding="utf-8")
    root = str(tmp_path / "ckd")
    assert main(["online", "serve", str(spec), "--checkpoint-dir", root,
                 "--memory-budget", "1", "--park-arrivals", "10"]) == 0
    clean = json.loads(capsys.readouterr().out)
    path = tenant_checkpoint_path(root, "b")
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["decisions"] = 5
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert main(["online", "serve", str(spec), "--checkpoint-dir", root, "--resume"]) == 3
    report = json.loads(capsys.readouterr().out)
    victim = report["tenants"]["b"]
    assert victim["state"] == "quarantined"
    assert "'decisions'" in victim["error"]
    healthy = report["tenants"]["a"]
    assert healthy["finished"], healthy.get("error")
    for key in RESULT_KEYS:
        assert healthy[key] == clean["tenants"]["a"][key], key
