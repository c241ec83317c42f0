"""Schema-v1 checkpoints are refused with a clean error.

These tests hand-build *genuine* v1 payloads — full embedded schedule,
no source spec, no decision log, no frontier — exactly as the first
checkpointing releases wrote them, and assert that every entry point
refuses them with an :class:`~repro.errors.InvalidInstanceError` saying
so: the session and driver resumes, sharded manifests (v1, and v2 with
a v1 entry), and the CLI's ``resume``, ``inspect`` and ``reshard``
(exit 2).  A serve quarantines the tenant whose checkpoint is v1.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.oracle import CountingOracle
from repro.errors import InvalidInstanceError
from repro.online.arrivals import build_arrival_schedule
from repro.online.checkpoint import (
    SUPPORTED_CHECKPOINT_VERSIONS,
    make_checkpoint,
    resume_run,
    tenant_checkpoint_path,
)
from repro.online.driver import OnlineRun
from repro.online.policies import SegmentedSubmodularPolicy
from repro.online.serving import ServingLoop, load_tenant_specs
from repro.online.session import (
    resume_any_session,
    resume_session,
    start_session,
    start_sharded_session,
)
from repro.workloads.secretary_streams import coverage_utility

N, K, SEED = 16, 3, 20100612

UNSUPPORTED = "schema version 1 .* no longer supported"


def _roundtrip(payload):
    return json.loads(json.dumps(payload, sort_keys=True))


def _as_v1(session, *, drop_marker=False):
    """Rewrite a live session's state as the payload a v1 release wrote."""
    v2 = session.checkpoint()
    v1 = {
        "format": "repro-online-checkpoint/1",
        "cursor": v2["cursor"],
        "schedule": session.run.source.materialize().payload(),
        "policy": v2["policy"],
        "instance": v2["instance"],
    }
    if not drop_marker:
        v1["schema_version"] = 1
    return _roundtrip(v1)


def _shard_entry_as_v1(run, v2_entry):
    return {
        "format": "repro-online-checkpoint/1",
        "schema_version": 1,
        "cursor": v2_entry["cursor"],
        "schedule": run.source.materialize().payload(),
        "policy": v2_entry["policy"],
    }


def _v1_manifest():
    session = start_sharded_session(
        policy="monotone", family="coverage", n=30, k=3, seed=5,
        process="bursty", shards=3,
    ).advance(11)
    v2 = session.checkpoint()
    return _roundtrip({
        "format": v2["format"],
        "schema_version": 1,
        "num_shards": v2["num_shards"],
        "salt": v2["salt"],
        "limit": v2["limit"],
        "shards": [
            _shard_entry_as_v1(run, entry)
            for run, entry in zip(session.run.runs, v2["shards"])
        ],
        "instance": v2["instance"],
    })


class TestUnshardedV1:
    @pytest.mark.parametrize("policy", ["monotone", "classical", "knapsack"])
    @pytest.mark.parametrize("process", ["uniform", "bursty"])
    def test_v1_is_refused(self, policy, process):
        session = start_session(policy=policy, family="additive", n=N, k=K,
                                seed=SEED, process=process).advance(5)
        with pytest.raises(InvalidInstanceError, match=UNSUPPORTED):
            resume_session(_as_v1(session))

    def test_missing_schema_version_means_version_one(self):
        session = start_session(policy="monotone", family="coverage", n=N,
                                k=K, seed=5, process="bursty").advance(7)
        v1 = _as_v1(session, drop_marker=True)
        assert "schema_version" not in v1
        with pytest.raises(InvalidInstanceError, match=UNSUPPORTED):
            resume_any_session(v1)

    def test_unsupported_version_lists_supported(self):
        session = start_session(n=12, k=2, seed=1).advance(3)
        ck = session.checkpoint()
        ck["schema_version"] = 7
        supported = ", ".join(str(v) for v in SUPPORTED_CHECKPOINT_VERSIONS)
        with pytest.raises(InvalidInstanceError, match=f"supported: {supported}"):
            resume_session(_roundtrip(ck))


class TestShardedV1:
    def test_v1_manifest_is_refused(self):
        v1 = _v1_manifest()
        for entry in v1["shards"]:
            assert "source" not in entry and "schedule" in entry
        with pytest.raises(InvalidInstanceError,
                           match="sharded checkpoint is " + UNSUPPORTED):
            resume_any_session(v1)

    def test_mixed_manifest_v1_and_v2_entries_is_refused(self):
        """Every entry is version-checked, not just the manifest."""
        session = start_sharded_session(
            policy="monotone", family="additive", n=24, k=3, seed=9,
            process="bursty", shards=2,
        ).advance(9)
        mixed = session.checkpoint()
        mixed["shards"][0] = _shard_entry_as_v1(session.run.runs[0],
                                                mixed["shards"][0])
        with pytest.raises(InvalidInstanceError,
                           match=r"entry shards\[0\] is " + UNSUPPORTED):
            resume_any_session(_roundtrip(mixed))


class TestDriverLevelV1:
    def test_raw_v1_payload_through_resume_run(self):
        fn = coverage_utility(20, 8, rng=np.random.default_rng(2))
        schedule = build_arrival_schedule("bursty", fn, 7, mean_batch=3.0)
        run = OnlineRun(
            CountingOracle(fn), schedule, SegmentedSubmodularPolicy(K)
        ).run(5)
        v1 = _roundtrip({
            "format": "repro-online-checkpoint/1",
            "schema_version": 1,
            "cursor": 5,
            "schedule": schedule.payload(),
            "policy": make_checkpoint(run)["policy"],
        })
        with pytest.raises(InvalidInstanceError, match=UNSUPPORTED):
            resume_run(v1, CountingOracle(fn))


class TestCliV1:
    @pytest.fixture
    def v1_file(self, tmp_path):
        session = start_session(policy="monotone", family="coverage", n=N,
                                k=K, seed=5, process="bursty").advance(7)
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(_as_v1(session)), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("command", ["resume", "inspect"])
    def test_flat_v1_exits_2(self, v1_file, command, capsys):
        assert main(["online", command, v1_file]) == 2
        assert "no longer supported" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["resume"], ["inspect"],
                                         ["reshard", "--shards", "2"]])
    def test_v1_manifest_exits_2(self, tmp_path, command, capsys):
        path = tmp_path / "v1-manifest.json"
        path.write_text(json.dumps(_v1_manifest()), encoding="utf-8")
        assert main(["online", command[0], str(path), *command[1:]]) == 2
        assert "no longer supported" in capsys.readouterr().err


def test_serve_quarantines_a_v1_tenant(tmp_path):
    fleet = {
        "defaults": {"family": "coverage", "n": 30, "k": 3},
        "tenants": [{"id": "old", "policy": "monotone", "seed": 3},
                    {"id": "new", "policy": "monotone", "seed": 4}],
    }
    specs = load_tenant_specs(fleet)
    want = ServingLoop(specs).serve()["tenants"]["new"]
    root = str(tmp_path / "ck")
    ServingLoop(load_tenant_specs(fleet), checkpoint_root=root).serve()
    path = tenant_checkpoint_path(root, "old")
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["schema_version"] = 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    report = ServingLoop(load_tenant_specs(fleet), checkpoint_root=root,
                         resume=True).serve()
    assert report["tenants"]["old"]["state"] == "quarantined"
    assert "no longer supported" in report["tenants"]["old"]["error"]
    for key in ("selected", "value", "oracle_calls"):
        assert report["tenants"]["new"][key] == want[key]
