"""A checkpoint's ``source`` block is checked before a resume trusts it.

Three contracts.  A damaged ``source.state`` (a non-integer cursor or
``batch_end``, a malformed fingerprint, an RNG state the bit generator
refuses, or a cursor moved away from the fingerprint chain's count) is
a clean :class:`~repro.errors.InvalidInstanceError` naming
``source.state.<field>``, so ``repro online resume`` exits 2 and a serve
quarantines only that tenant.  A sharded manifest whose entries are not
objects, whose ``num_shards``, ``salt`` or ``limit`` is mistyped, or
whose entry's ``source.shard`` block names another lane or topology is
refused the same way, naming the field.  And a ``source`` block whose
process, seed or params disagree with the embedded recipe, or that
embeds a schedule, is refused instead of silently resuming a different
stream.
"""

import json

import pytest

from repro.cli import main
from repro.errors import InvalidInstanceError
from repro.online.checkpoint import tenant_checkpoint_path
from repro.online.serving import ServingLoop, load_tenant_specs
from repro.online.session import (
    reshard_session,
    resume_any_session,
    resume_session,
    start_session,
    start_sharded_session,
)

RUN = dict(policy="monotone", family="coverage", n=200, k=4, seed=1,
           process="bursty")

FLEET = {
    "defaults": {"family": "coverage", "n": 60, "k": 3, "process": "bursty"},
    "tenants": [
        {"id": "b-1", "policy": "monotone", "seed": 31},
        {"id": "b-2", "policy": "robust", "seed": 32},
        {"id": "u-3", "policy": "monotone", "seed": 33, "process": "uniform"},
        {"id": "s-4", "policy": "monotone", "seed": 34, "shards": 2},
    ],
}

RESULT_KEYS = ("selected", "value", "oracle_calls", "decisions")


def _suspended():
    """A JSON round-tripped mid-stream bursty checkpoint."""
    ck = start_session(**RUN).advance(60).checkpoint()
    return json.loads(json.dumps(ck))


STATE_DAMAGE = [
    pytest.param(lambda s: s.update(rng_state="x"), "'source.state.rng_state'",
                 id="str-rng-state"),
    pytest.param(lambda s: s["rng_state"].update(bit_generator="MT19937"),
                 "'source.state.rng_state'", id="foreign-bit-generator"),
    pytest.param(lambda s: s["rng_state"].pop("state"),
                 "'source.state.rng_state'", id="rng-state-without-state"),
    pytest.param(lambda s: s.pop("batch_end"), "'source.state.batch_end'",
                 id="no-batch-end"),
    pytest.param(lambda s: s.update(batch_end="q"), "'source.state.batch_end'",
                 id="str-batch-end"),
    pytest.param(lambda s: s.update(batch_end=201), "'source.state.batch_end'",
                 id="batch-end-past-stream"),
    pytest.param(lambda s: s.update(fingerprint=None),
                 "'source.state.fingerprint'", id="null-fingerprint"),
    pytest.param(lambda s: s["fingerprint"].update(chain=7),
                 "'source.state.fingerprint.chain'", id="int-chain"),
    pytest.param(lambda s: s["fingerprint"].update(count="60"),
                 "'source.state.fingerprint.count'", id="str-count"),
    pytest.param(lambda s: s.update(cursor=True), "'source.state.cursor'",
                 id="bool-cursor"),
    pytest.param(lambda s: s.update(cursor=60.0), "'source.state.cursor'",
                 id="float-cursor"),
]


class TestDamagedSourceState:
    @pytest.mark.parametrize("damage,field", STATE_DAMAGE)
    def test_resume_session_names_the_field(self, damage, field):
        ck = _suspended()
        damage(ck["source"]["state"])
        with pytest.raises(InvalidInstanceError, match=field):
            resume_session(ck)

    def test_non_object_state_is_named(self):
        ck = _suspended()
        ck["source"]["state"] = "x"
        with pytest.raises(InvalidInstanceError, match="'source.state'"):
            resume_session(ck)

    def test_a_failed_restore_leaves_the_source_as_it_was(self):
        session = start_session(**RUN).advance(60)
        source = session.run.source
        before = source.fingerprint()
        state = json.loads(json.dumps(source.state_dict()))
        state["cursor"], state["rng_state"] = 10, "x"
        with pytest.raises(InvalidInstanceError):
            source.restore(state)
        assert (source.cursor, source.fingerprint()) == (60, before)

    def test_cli_resume_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        ck = _suspended()
        ck["source"]["state"]["rng_state"] = "x"
        path.write_text(json.dumps(ck), encoding="utf-8")
        assert main(["online", "resume", str(path)]) == 2
        assert "'source.state.rng_state'" in capsys.readouterr().err

    def test_cli_inspect_exits_2_on_a_malformed_fingerprint(self, tmp_path,
                                                            capsys):
        path = tmp_path / "one.json"
        ck = _suspended()
        ck["source"]["state"]["fingerprint"] = "x"
        path.write_text(json.dumps(ck), encoding="utf-8")
        assert main(["online", "inspect", str(path)]) == 2
        assert "'source.state.fingerprint'" in capsys.readouterr().err

    @pytest.mark.parametrize("shift", [100, 5, -5])
    @pytest.mark.parametrize("command", ["resume", "inspect"])
    def test_a_moved_cursor_exits_2(self, tmp_path, capsys, shift, command):
        # Moving both cursors together used to resume a different
        # stream; the chain still counts the arrivals really taken.
        path = tmp_path / "one.json"
        ck = json.loads(json.dumps(
            start_session(**{**RUN, "process": "uniform"}).advance(60)
            .checkpoint()
        ))
        ck["cursor"] += shift
        ck["source"]["state"]["cursor"] += shift
        path.write_text(json.dumps(ck), encoding="utf-8")
        assert main(["online", command, str(path)]) == 2
        assert "'source.state.fingerprint.count'" in capsys.readouterr().err


def _sharded_suspended():
    """A JSON round-tripped two-shard manifest suspended mid-batch."""
    ck = start_sharded_session(**RUN, shards=2).advance(60).checkpoint()
    return json.loads(json.dumps(ck))


def _lane(ck, i=0):
    return ck["shards"][i]["source"]


def _move_lane_cursor(ck, shift):
    ck["shards"][0]["cursor"] += shift
    _lane(ck)["state"]["cursor"] += shift


SHARD_DAMAGE = [
    pytest.param(lambda ck: _lane(ck).update(shard="x"),
                 "'shards[0].source.shard'", id="str-shard-block"),
    pytest.param(lambda ck: _lane(ck).pop("shard"),
                 "'shards[0].source.shard'", id="no-shard-block"),
    pytest.param(lambda ck: _lane(ck)["shard"].update(index=1),
                 "'shards[0].source.shard'", id="other-lane-index"),
    pytest.param(lambda ck: _lane(ck)["shard"].update(index="a"),
                 "'shards[0].source.shard'", id="str-index"),
    pytest.param(lambda ck: _lane(ck)["shard"].update(num_shards=3),
                 "'shards[0].source.shard'", id="other-num-shards"),
    pytest.param(lambda ck: _lane(ck)["shard"].pop("num_shards"),
                 "'shards[0].source.shard'", id="no-num-shards"),
    pytest.param(lambda ck: _lane(ck)["shard"].update(salt=1),
                 "'shards[0].source.shard'", id="other-salt"),
    pytest.param(lambda ck: _lane(ck)["shard"].update(salt=None),
                 "'shards[0].source.shard'", id="null-salt"),
    pytest.param(lambda ck: _move_lane_cursor(ck, 1),
                 "'source.state.fingerprint.count'", id="lane-cursor-ahead"),
    pytest.param(lambda ck: _move_lane_cursor(ck, -1),
                 "'source.state.fingerprint.count'", id="lane-cursor-behind"),
    pytest.param(lambda ck: ck.update(num_shards="x"), "'num_shards'",
                 id="str-manifest-num-shards"),
    pytest.param(lambda ck: ck.update(salt=None), "'salt'",
                 id="null-manifest-salt"),
    pytest.param(lambda ck: ck.update(limit="q"), "'limit'",
                 id="str-manifest-limit"),
    pytest.param(lambda ck: ck.update(shards=[1, 2]), "'shards[0]'",
                 id="non-object-entries"),
]


class TestDamagedShardLaneState:
    @pytest.mark.parametrize("damage,field", SHARD_DAMAGE)
    def test_cli_resume_exits_2_naming_the_field(self, tmp_path, capsys,
                                                 damage, field):
        path = tmp_path / "sharded.json"
        ck = _sharded_suspended()
        damage(ck)
        path.write_text(json.dumps(ck), encoding="utf-8")
        assert main(["online", "resume", str(path)]) == 2
        assert field in capsys.readouterr().err

    def test_a_resharded_lane_names_its_partition_field(self):
        ck = json.loads(json.dumps(reshard_session(_sharded_suspended(), 3)))
        resume_any_session(json.loads(json.dumps(ck)))  # undamaged: fine
        ck["partition"]["epochs"][1]["consumed"] = ["a"]
        with pytest.raises(InvalidInstanceError,
                           match=r"'partition\.epochs\[1\]\.consumed'"):
            resume_any_session(ck)

    def test_a_lane_block_from_another_epoch_history_is_refused(self):
        ck = json.loads(json.dumps(reshard_session(_sharded_suspended(), 3)))
        _lane(ck, 1)["shard"]["partition"]["epochs"][1]["consumed"][0] -= 1
        with pytest.raises(InvalidInstanceError,
                           match=r"'shards\[1\]\.source\.shard'"):
            resume_any_session(ck)

    @pytest.mark.parametrize("damage,field", [
        pytest.param(lambda ck: ck["shards"][0].update(cursor="x"),
                     "'shards[0].cursor'", id="str-cursor"),
        pytest.param(lambda ck: ck["shards"][0].update(source="x"),
                     "'shards[0].source'", id="str-source"),
        pytest.param(lambda ck: _move_lane_cursor(ck, 1),
                     "'source.state.fingerprint.count'", id="moved-cursor"),
    ])
    def test_cli_reshard_exits_2_naming_the_field(self, tmp_path, capsys,
                                                  damage, field):
        path = tmp_path / "sharded.json"
        ck = _sharded_suspended()
        damage(ck)
        path.write_text(json.dumps(ck), encoding="utf-8")
        assert main(["online", "reshard", str(path), "--shards", "3"]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("edit,field", [
        pytest.param(
            lambda ck: _lane(ck)["shard"].update(num_shards="x"),
            "'shards[0].source.shard'", id="lane-num-shards",
        ),
        pytest.param(lambda ck: ck.update(salt=None), "'salt'",
                     id="manifest-salt"),
    ])
    def test_cli_serve_exits_3_with_the_damaged_shard_lane_quarantined(
        self, tmp_path, capsys, clean_serve, edit, field
    ):
        spec = tmp_path / "fleet.json"
        spec.write_text(json.dumps(FLEET), encoding="utf-8")
        root = _serve_then_edit(tmp_path, "s-4", edit)
        assert main(["online", "serve", str(spec), "--checkpoint-dir", root,
                     "--resume"]) == 3
        report = json.loads(capsys.readouterr().out)
        quarantined = {tid for tid, t in report["tenants"].items()
                       if t["state"] == "quarantined"}
        assert quarantined == {"s-4"}
        assert field in report["tenants"]["s-4"]["error"]
        want = json.loads(json.dumps(clean_serve))
        for tid in ("b-1", "b-2", "u-3"):
            for key in RESULT_KEYS:
                assert report["tenants"][tid][key] == want["tenants"][tid][key]


def _serve_then_edit(tmp_path, tenant, edit):
    """Serve FLEET with checkpoints, edit one tenant's file, return root."""
    root = str(tmp_path / "ckpt")
    ServingLoop(load_tenant_specs(FLEET), checkpoint_root=root).serve()
    path = tenant_checkpoint_path(root, tenant)
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return root


@pytest.fixture(scope="module")
def clean_serve():
    return ServingLoop(load_tenant_specs(FLEET)).serve()


@pytest.mark.parametrize("tenant,edit,field", [
    pytest.param("b-2", lambda ck: ck["source"]["state"].update(rng_state="x"),
                 "'source.state.rng_state'", id="damaged-rng-state"),
    pytest.param("b-1", lambda ck: ck["source"]["state"].pop("batch_end"),
                 "'source.state.batch_end'", id="missing-batch-end"),
    pytest.param("u-3", lambda ck: ck["source"].update(process="sorted_desc"),
                 "'source.process'", id="tampered-process"),
    pytest.param("s-4",
                 lambda ck: ck["shards"][1]["source"].update(seed=5),
                 "'shards[1].source.seed'", id="tampered-shard-seed"),
    pytest.param("s-4",
                 lambda ck: ck["shards"][0]["source"]["shard"].update(index=1),
                 "'shards[0].source.shard'", id="shard-block-of-another-lane"),
])
def test_serve_quarantines_only_the_bad_tenant(tmp_path, clean_serve,
                                               tenant, edit, field):
    root = _serve_then_edit(tmp_path, tenant, edit)
    report = ServingLoop(load_tenant_specs(FLEET), checkpoint_root=root,
                         resume=True).serve()
    victim = report["tenants"][tenant]
    assert victim["state"] == "quarantined"
    assert "checkpoint resume failed" in victim["error"]
    assert field in victim["error"]
    assert report["totals"]["quarantined"] == 1
    for tid, want in clean_serve["tenants"].items():
        if tid == tenant:
            continue
        got = report["tenants"][tid]
        assert got["finished"], (tid, got.get("error"))
        for key in RESULT_KEYS:
            assert got[key] == want[key], (tid, key)


TAMPER = [
    pytest.param(lambda src: src.update(seed=src["seed"] + 1), "'source.seed'",
                 id="seed"),
    pytest.param(lambda src: src.update(process="sorted_desc"),
                 "'source.process'", id="process"),
    pytest.param(lambda src: src.update(params={"mean_batch": 2.0}),
                 "'source.params'", id="params"),
    pytest.param(lambda src: src.update(params={}), "'source.params'",
                 id="dropped-params"),
    pytest.param(lambda src: src.update(schedule={"format": "x"}),
                 "'source.schedule'", id="embedded-schedule"),
]


class TestSourceBlockMatchesRecipe:
    @pytest.mark.parametrize("tamper,field", TAMPER)
    def test_cli_resume_exits_2(self, tmp_path, capsys, tamper, field):
        path = tmp_path / "one.json"
        ck = _suspended()
        tamper(ck["source"])
        path.write_text(json.dumps(ck), encoding="utf-8")
        assert main(["online", "resume", str(path)]) == 2
        assert field in capsys.readouterr().err

    def test_untampered_block_resumes(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(_suspended()), encoding="utf-8")
        assert main(["online", "resume", str(path)]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["selected"] == start_session(**RUN).advance().summary()[
            "selected"]

    def test_sharded_manifest_entry_is_checked(self):
        from repro.online.session import start_sharded_session

        ck = json.loads(json.dumps(
            start_sharded_session(**RUN, shards=2).advance(60).checkpoint()
        ))
        resume_any_session(json.loads(json.dumps(ck)))  # untampered: fine
        ck["shards"][1]["source"]["process"] = "uniform"
        with pytest.raises(InvalidInstanceError,
                           match=r"'shards\[1\]\.source\.process'"):
            resume_any_session(ck)

    def test_cli_serve_exits_3_with_the_tampered_tenant_quarantined(
        self, tmp_path, capsys
    ):
        spec = tmp_path / "fleet.json"
        spec.write_text(json.dumps(FLEET), encoding="utf-8")
        root = str(tmp_path / "ck")
        assert main(["online", "serve", str(spec), "--checkpoint-dir", root]) == 0
        capsys.readouterr()
        path = tenant_checkpoint_path(root, "b-1")
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["source"]["seed"] += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        assert main(["online", "serve", str(spec), "--checkpoint-dir", root,
                     "--resume"]) == 3
        report = json.loads(capsys.readouterr().out)
        quarantined = {tid for tid, t in report["tenants"].items()
                       if t["state"] == "quarantined"}
        assert quarantined == {"b-1"}
        assert "'source.seed'" in report["tenants"]["b-1"]["error"]
