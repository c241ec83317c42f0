"""A checkpoint's ``policy.config`` and ``policy.state`` fail cleanly.

``policy.config`` rebuilds the policy and ``policy.state`` restores its
state machine.  A config the constructor refuses, or one the rebuilt
policy's ``config_dict()`` does not reproduce (a dropped or added key,
a value the constructor coerces), or a state the policy cannot load,
raises :class:`~repro.errors.InvalidInstanceError` naming the block; so
does a state whose hires differ from the decision log, or one that
names an element the frontier does not re-reveal.  ``repro online
resume`` then exits 2, and a serve quarantines only that tenant (exit
3).  A replaced config value the constructor stores unchanged
(``window_n: null``) resumes, and so does a state value that loads by
coercion (``bool("no")``).
"""

import copy
import functools
import inspect
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.errors import InvalidInstanceError
from repro.online.checkpoint import tenant_checkpoint_path
from repro.online.policies import POLICIES
from repro.online.session import SESSION_POLICIES, resume_session, start_session

RUN = ["online", "run", "--policy", "monotone", "--family", "coverage",
       "--n", "50", "--k", "3", "--seed", "1", "--process", "bursty",
       "--max-arrivals", "20"]

RESULT_KEYS = ("selected", "value", "oracle_calls", "decisions")

#: (policy, seed, cut): both faces of every coin (nonmonotone's half,
#: knapsack's heads, subadditive's strategy), and the knapsack tails
#: rule in both phases (it collects until arrival 20 of 40).
CASES = (
    ("monotone", 0, 15), ("monotone", 1, 30),
    ("nonmonotone", 1, 15), ("nonmonotone", 3, 30),
    ("classical", 0, 30), ("robust", 0, 25), ("bottleneck", 0, 30),
    ("knapsack", 0, 30), ("knapsack", 3, 15), ("knapsack", 3, 30),
    ("subadditive", 0, 30), ("subadditive", 3, 15),
)

#: Replacement values: a string, null, a list and an object.
VALUES = ("x", None, [], ["x"], {}, {"x": 1})


@functools.lru_cache(maxsize=None)
def _suspended(policy, seed, cut):
    session = start_session(policy=policy, family="coverage", n=40, k=3,
                            seed=seed, process="bursty")
    return json.dumps(session.advance(cut).checkpoint())


def test_the_cases_cover_every_session_policy_and_coin_face():
    assert {case[0] for case in CASES} == set(SESSION_POLICIES)
    configs = [json.loads(_suspended(*case))["policy"] for case in CASES]
    assert {c["config"].get("heads") for c in configs} >= {True, False}
    assert {"first-half", "second-half"} <= {c["config"].get("strategy") for c in configs}
    assert {"collect", "filter"} <= {c["state"].get("phase") for c in configs}
    assert any("target" in c["config"] for c in configs)


@st.composite
def damaged(draw):
    """A suspended checkpoint with one ``policy.config``/``policy.state``
    key dropped, added, or replaced by a non-scalar value."""
    case = draw(st.sampled_from(CASES))
    block = draw(st.sampled_from(("config", "state")))
    ck = json.loads(_suspended(*case))
    target = ck["policy"][block]
    mutation = draw(st.sampled_from(("drop", "add", "replace")))
    if mutation == "add":
        target["bogus"] = 1
    else:
        key = draw(st.sampled_from(sorted(target)))
        if mutation == "drop":
            del target[key]
        else:
            target[key] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    return block, mutation, ck


@settings(max_examples=200, deadline=None)
@given(damaged())
def test_a_damaged_policy_block_resumes_or_is_refused_by_name(case):
    block, mutation, ck = case
    if block == "config" and mutation != "replace":
        with pytest.raises(InvalidInstanceError, match="'policy.config'"):
            resume_session(ck)
        return
    try:
        session = resume_session(ck)
    except InvalidInstanceError as exc:
        # A config edit can leave a state the rebuilt policy cannot
        # load, so it may be refused under either block's name.
        named = ("policy.state",) if block == "state" else ("policy.config", "policy.state")
        assert any(f"'{name}'" in str(exc) for name in named), str(exc)
        return
    session.advance()
    assert session.finished
    json.dumps(session.summary())
    json.dumps(session.checkpoint())


def _defaulted_keys():
    """(policy, seed, cut, key) for each session policy's config keys
    that its constructor would fill in with a default (the last case
    that has the key).  A required key (``k``) was refused before."""
    cases = {}
    for case in CASES:
        spec = json.loads(_suspended(*case))["policy"]
        params = inspect.signature(POLICIES[spec["name"]]).parameters
        for key in spec["config"]:
            if params[key].default is not inspect.Parameter.empty:
                cases[case[0], key] = (*case, key)
    return sorted(cases.values())


@pytest.mark.parametrize("policy,seed,cut,key", _defaulted_keys())
def test_a_dropped_config_key_is_refused_not_defaulted(policy, seed, cut, key):
    ck = json.loads(_suspended(policy, seed, cut))
    del ck["policy"]["config"][key]
    with pytest.raises(InvalidInstanceError, match="'policy.config' does not round-trip"):
        resume_session(ck)


def test_a_config_value_the_constructor_stores_unchanged_still_resumes():
    ck = json.loads(_suspended("nonmonotone", 3, 30))
    assert ck["policy"]["config"]["window_n"] == 20
    ck["policy"]["config"]["window_n"] = None
    assert resume_session(ck).advance().finished


@pytest.fixture(scope="module")
def suspended_file(tmp_path_factory):
    """A checkpoint file the CLI wrote 20 arrivals into a bursty stream."""
    path = tmp_path_factory.mktemp("ck") / "f.json"
    assert main(RUN + ["--checkpoint", str(path)]) == 0
    return json.loads(path.read_text(encoding="utf-8"))


def _set(block, key, value):
    return lambda ck: ck["policy"][block].__setitem__(key, value)


@pytest.mark.parametrize("damage,field", [
    pytest.param(_set("config", "bogus", 1), "'policy.config'", id="unknown-config-key"),
    pytest.param(_set("config", "k", "x"), "'policy.config'", id="str-k"),
    pytest.param(_set("config", "skip", None), "'policy.config'", id="null-skip"),
    pytest.param(_set("config", "subsample", 0.5), "'policy.config'",
                 id="deleted-subsample-key"),
    pytest.param(lambda ck: ck["policy"]["config"].pop("strategy"), "'policy.config'",
                 id="no-strategy"),
    pytest.param(_set("state", "seg", "x"), "'policy.state'", id="str-seg"),
    pytest.param(lambda ck: ck["policy"]["state"].pop("threshold"), "'policy.state'",
                 id="no-threshold"),
    pytest.param(_set("state", "traces", 5), "'policy.state'", id="int-traces"),
    pytest.param(_set("state", "selected", []), "'policy.state'", id="hires-erased"),
])
def test_cli_resume_exits_2_naming_the_block(tmp_path, capsys, suspended_file, damage, field):
    ck = json.loads(json.dumps(suspended_file))
    damage(ck)
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(ck), encoding="utf-8")
    assert main(["online", "resume", str(path)]) == 2
    assert field in capsys.readouterr().err


def test_a_serve_quarantines_only_the_tenant_with_a_damaged_config(tmp_path, capsys):
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
    payload["policy"]["config"]["bogus"] = 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert main(["online", "serve", str(spec), "--checkpoint-dir", root, "--resume"]) == 3
    report = json.loads(capsys.readouterr().out)
    victim = report["tenants"]["b"]
    assert victim["state"] == "quarantined"
    assert "'policy.config'" in victim["error"]
    healthy = report["tenants"]["a"]
    assert healthy["finished"], healthy.get("error")
    for key in RESULT_KEYS:
        assert healthy[key] == clean["tenants"]["a"][key], key
