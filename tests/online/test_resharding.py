"""Elastic shard topology: partition maps and offline S -> S' resharding.

The PR's pinned contract, layer by layer:

- :class:`PartitionMap` replays its epoch history deterministically —
  consumed prefixes stay pinned to their lanes in consumption order and
  every unconsumed element lands in exactly one lane's suffix.
- ``reshard_session`` keeps every consumed arrival, hire, and
  fingerprint chain exactly where it was: an S -> S' -> S round trip is
  byte-identical to never resharding, and a resume through a reshard
  hop matches the straight-through run on hires, value, and
  oracle-call counts — at every suspend point.
- Never-resharded manifests keep the v2 schema byte-for-byte; resharded
  ones bump to v3 and carry the epoch history across further
  suspend/resume hops.
"""

import json

import pytest

from repro.cli import main
from repro.errors import InvalidInstanceError
from repro.online.arrivals import arrival_process_names, source_from_spec
from repro.online.checkpoint import (
    SHARDED_MANIFEST_SCHEMA_VERSION,
    SUPPORTED_MANIFEST_VERSIONS,
)
from repro.online.session import (
    SESSION_POLICIES,
    reshard_session,
    resume_any_session,
    start_sharded_session,
    start_session,
)
from repro.online.sharding import (
    PartitionMap,
    partition_from_manifest,
    partition_lane_source,
    shard_of,
)

from tests.online.procutil import process_params

N, K, SEED = 16, 3, 20100612
ALL_PROCESSES = arrival_process_names()


def _params(process, family="additive", n=N, seed=SEED):
    if process != "replay":
        return {}
    from repro.online.session import build_workload

    fn, _ = build_workload({"family": family, "n": n, "seed": seed})
    return process_params(process, fn)


def _canon(payload):
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def _rt(payload):
    return json.loads(_canon(payload))


class TestPartitionMap:
    def test_base_map_matches_plain_hash(self):
        pm = PartitionMap.base(4, salt=9)
        assert pm.single_epoch and pm.epoch == 0
        assert pm.num_shards == 4 and pm.salt == 9
        for e in ("a", "b", 17, "s3"):
            assert pm.assign(e) == shard_of(e, 4, 9)

    def test_payload_round_trip(self):
        pm = PartitionMap.base(2, salt=1).reshard(5, [3, 0], salt=7)
        back = PartitionMap.from_payload(_rt(pm.payload()))
        assert back.payload() == pm.payload()
        assert back.epoch == 1 and back.num_shards == 5 and back.salt == 7

    def test_reshard_salt_defaults_to_current(self):
        pm = PartitionMap.base(2, salt=42).reshard(4, [1, 1])
        assert pm.salt == 42

    def test_lane_streams_pins_consumed_and_splits_suffix_exactly_once(self):
        order = [f"e{i}" for i in range(20)]
        base = PartitionMap.base(2, salt=0)
        lanes0 = [base.assign(e) for e in order]
        consumed = [3, 2]
        pm = base.reshard(4, consumed)
        streams = pm.lane_streams(order)
        assert len(streams) == pm.lane_count() == 4
        # Pinned prefixes are exactly each lane's first `consumed`
        # positions, in the order the lane consumed them.
        for a in (0, 1):
            expect = [p for p in range(20) if lanes0[p] == a][:consumed[a]]
            assert streams[a][0] == expect
        assert streams[2][0] == [] and streams[3][0] == []
        # Every position lands in exactly one lane, pinned or suffix.
        seen = sorted(
            p for pinned, suffix in streams for p in (*pinned, *suffix)
        )
        assert seen == list(range(20))
        # Unconsumed positions re-hash under the newest epoch.
        pinned_set = {p for pinned, _ in streams for p in pinned}
        for a, (_, suffix) in enumerate(streams):
            for p in suffix:
                assert p not in pinned_set
                assert pm.assign(order[p]) == a

    def test_round_trip_reshard_restores_assignment(self):
        order = [f"e{i}" for i in range(18)]
        base = PartitionMap.base(3, salt=5)
        pm = base.reshard(6, [2, 1, 2]).reshard(3, [2, 1, 2, 0, 0, 0])
        streams = pm.lane_streams(order)
        # With nothing consumed during the 6-lane epoch, the suffix
        # assignment under the final epoch equals the base hash.
        for a, (_, suffix) in enumerate(streams[:3]):
            for p in suffix:
                assert base.assign(order[p]) == a
        assert all(not s for _, s in streams[3:])

    def test_validation_errors(self):
        with pytest.raises(InvalidInstanceError, match="at least one epoch"):
            PartitionMap([])
        with pytest.raises(InvalidInstanceError, match="num_shards"):
            PartitionMap.base(0)
        with pytest.raises(InvalidInstanceError, match="epoch 0"):
            PartitionMap([{"num_shards": 2, "salt": 0, "consumed": [1]}])
        with pytest.raises(InvalidInstanceError, match="consumed"):
            PartitionMap([{"num_shards": 2, "salt": 0}, {"num_shards": 3}])
        with pytest.raises(InvalidInstanceError, match="epochs"):
            PartitionMap.from_payload({"nope": []})
        pm = PartitionMap.base(2).reshard(2, [50, 0])
        with pytest.raises(InvalidInstanceError, match="exceeds the stream"):
            pm.lane_streams([f"e{i}" for i in range(6)])


class TestReshardSession:
    @pytest.mark.parametrize("policy", SESSION_POLICIES)
    @pytest.mark.parametrize("process", ALL_PROCESSES)
    def test_round_trip_matches_straight_through(self, policy, process):
        kwargs = dict(policy=policy, family="additive", n=N, k=K, seed=7,
                      process=process, shards=2,
                      process_params=_params(process))
        straight = start_sharded_session(**kwargs).advance().summary()
        session = start_sharded_session(**kwargs).advance(N // 2)
        ck = _rt(session.checkpoint())
        plain = resume_any_session(_rt(ck)).advance().summary()
        hop = reshard_session(_rt(reshard_session(ck, 4)), 2)
        got = resume_any_session(hop).advance().summary()
        # The round trip is byte-identical to a plain resume from the
        # same checkpoint (cursors, fingerprints, oracle accounting —
        # everything), and matches the straight-through run on every
        # decision-level key.  Final cursors and oracle totals may
        # differ from the *uninterrupted* run when a policy finishes
        # mid-batch (the straight run consumes to the batch end before
        # noticing) — the same established semantics as any resume.
        assert _canon(got) == _canon(plain)
        for key in ("selected", "value", "n_chosen"):
            assert got[key] == straight[key], (key, got[key], straight[key])

    @pytest.mark.parametrize("process", ALL_PROCESSES)
    def test_identity_reshard_is_byte_identical(self, process):
        session = start_sharded_session(
            n=N, k=K, seed=3, process=process, shards=2,
            process_params=_params(process),
        ).advance(6)
        ck = _rt(session.checkpoint())
        assert _canon(reshard_session(_rt(ck), 2)) == _canon(ck)

    def test_consumed_prefix_and_fingerprints_carried_verbatim(self):
        session = start_sharded_session(
            n=N, k=K, seed=5, process="bursty", shards=2,
        ).advance(9)
        ck = _rt(session.checkpoint())
        out = reshard_session(_rt(ck), 4)
        assert out["schema_version"] == SHARDED_MANIFEST_SCHEMA_VERSION
        for old, new in zip(ck["shards"], out["shards"]):
            assert new["cursor"] == old["cursor"]
            assert new["decisions"] == old["decisions"]
            assert new["policy"] == old["policy"]
            # The fingerprint chain re-anchors: the carried lane keeps
            # its chain verbatim and new arrivals extend it.
            assert (new["source"]["state"]["fingerprint"]
                    == old["source"]["state"]["fingerprint"])

    def test_suffix_split_exactly_once_across_lanes(self):
        from repro.online.session import build_workload

        session = start_sharded_session(
            n=N, k=K, seed=5, process="poisson", shards=2,
        ).advance(7)
        ck = _rt(session.checkpoint())
        fn, _ = build_workload(ck["instance"])
        out = reshard_session(_rt(ck), 3)
        orders = []
        total = 0
        for entry in out["shards"]:
            src = source_from_spec(entry["source"], fn)
            sched = src.materialize()
            total += len(sched.order)
            orders.extend(sched.order)
        assert total == N
        assert len(set(orders)) == N

    @pytest.mark.parametrize("policy,process", [
        ("monotone", "bursty"), ("nonmonotone", "poisson"),
    ])
    def test_resume_through_reshard_hop_at_every_suspend_point(
        self, policy, process
    ):
        kwargs = dict(policy=policy, n=N, k=K, seed=11, process=process,
                      shards=2)
        straight = start_sharded_session(**kwargs).advance().summary()
        for stop in range(1, N):
            session = start_sharded_session(**kwargs).advance(stop)
            if session.finished:
                break
            # A full S -> S' -> S hop at this suspend point (no progress
            # at the intermediate width, so the original assignment is
            # restored), then resume to completion.
            hop = reshard_session(_rt(session.checkpoint()), 3)
            back = reshard_session(_rt(hop), 2)
            summary = resume_any_session(_rt(back)).advance().summary()
            for key in ("selected", "value", "n_chosen"):
                assert summary[key] == straight[key], (stop, key)

    def test_schema_v3_survives_suspend_resume_hops(self):
        session = start_sharded_session(
            n=N, k=K, seed=9, process="bursty", shards=2,
        ).advance(6)
        out = reshard_session(_rt(session.checkpoint()), 4)
        resumed = resume_any_session(_rt(out)).advance(4)
        again = _rt(resumed.checkpoint())
        assert again["schema_version"] == SHARDED_MANIFEST_SCHEMA_VERSION
        pm = partition_from_manifest(again)
        assert pm.epoch == 1 and pm.num_shards == 4
        # and it reshards again, growing the history
        back = reshard_session(again, 2)
        assert partition_from_manifest(back).epoch == 2
        final = resume_any_session(back).advance().summary()
        assert final["finished"] is True

    def test_never_resharded_manifest_keeps_v2_bytes(self):
        session = start_sharded_session(
            n=N, k=K, seed=9, process="bursty", shards=2,
        ).advance(6)
        ck = _rt(session.checkpoint())
        assert ck["schema_version"] == 2
        assert "partition" not in ck
        assert 2 in SUPPORTED_MANIFEST_VERSIONS
        assert SHARDED_MANIFEST_SCHEMA_VERSION in SUPPORTED_MANIFEST_VERSIONS

    def test_grow_beyond_suffix_leaves_empty_fresh_lanes(self):
        session = start_sharded_session(
            n=12, k=2, seed=2, shards=2,
        ).advance(10)
        out = reshard_session(_rt(session.checkpoint()), 6)
        assert out["num_shards"] == 6
        summary = resume_any_session(out).advance().summary()
        assert summary["finished"] is True

    def test_reshard_errors(self):
        sharded = start_sharded_session(n=12, k=2, seed=1, shards=2)
        sharded.advance(4)
        ck = _rt(sharded.checkpoint())
        with pytest.raises(InvalidInstanceError, match="shards"):
            reshard_session(ck, 0)
        plain = start_session(n=12, k=2, seed=1).advance(4)
        with pytest.raises(InvalidInstanceError, match="sharded"):
            reshard_session(_rt(plain.checkpoint()), 2)

    def _hopped(self, hops, between):
        session = start_sharded_session(
            policy="monotone", family="additive", n=64, k=4, seed=3,
            process="bursty", shards=2,
        ).advance(20)
        ck = _rt(session.checkpoint())
        for shards in hops:
            ck = reshard_session(ck, shards)
            ck = _rt(resume_any_session(ck).advance(between).checkpoint())
        return ck

    def test_partition_wider_than_its_entries_is_refused(self):
        ck = self._hopped([3], 0)
        summary = resume_any_session(_rt(ck)).advance().summary()
        assert (summary["n"], summary["selected"]) == (64, ["s21", "s24", "s33", "s38"])
        # Spread the unconsumed stream over lanes no entry holds: a
        # resume would silently drop every arrival hashed to them.
        ck["partition"]["epochs"][-1]["num_shards"] = 10**6
        for entry in ck["shards"]:
            entry["source"]["shard"]["partition"]["epochs"][-1]["num_shards"] = 10**6
        with pytest.raises(InvalidInstanceError, match="'partition'"):
            resume_any_session(ck)

    def test_a_shrink_keeps_retired_lanes_that_hold_state(self):
        ck = self._hopped([3, 1], 20)
        pm = partition_from_manifest(ck)
        assert pm.num_shards == 1 < len(ck["shards"]) <= pm.lane_count()
        summary = resume_any_session(ck).advance().summary()
        assert summary["finished"] and summary["cursor"] == 64

    def test_partition_lane_source_spec_round_trip(self):
        from repro.online.session import build_workload

        session = start_sharded_session(
            n=N, k=K, seed=4, process="bursty", shards=2,
        ).advance(8)
        ck = _rt(session.checkpoint())
        fn, _ = build_workload(ck["instance"])
        pm = partition_from_manifest(ck).reshard(
            3, [entry["cursor"] for entry in ck["shards"]]
        )
        parent = source_from_spec(
            {k: v for k, v in ck["shards"][0]["source"].items()
             if k not in ("shard", "state")},
            fn,
        )
        lane = partition_lane_source(parent, 1, pm)
        spec = _rt(lane.spec())
        back = source_from_spec(spec, fn)
        assert _canon(back.spec()) == _canon(spec)
        assert back.materialize().order == lane.materialize().order


class TestReshardCLI:
    def _run_suspended(self, tmp_path, capsys, shards="2"):
        ck = str(tmp_path / "m.json")
        assert main([
            "online", "run", "--policy", "monotone", "--process", "bursty",
            "--n", "30", "--k", "4", "--seed", "5", "--shards", shards,
            "--max-arrivals", "12", "--checkpoint", ck,
        ]) == 0
        capsys.readouterr()
        return ck

    def test_reshard_resume_round_trip(self, tmp_path, capsys):
        ck = self._run_suspended(tmp_path, capsys)
        out = str(tmp_path / "m4.json")
        assert main(["online", "reshard", ck, "--shards", "4",
                     "--output", out]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_shards"] == 4
        assert payload["partition_epoch"] == 1
        assert payload["schema_version"] == SHARDED_MANIFEST_SCHEMA_VERSION

        assert main(["online", "inspect", out]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["partition"]["epoch"] == 1
        assert [e["num_shards"] for e in info["partition"]["history"]] \
            == [2, 4]
        assert info["shards"][0]["shard"]["partition_epoch"] == 1

        assert main(["online", "resume", out,
                     "--checkpoint", str(tmp_path / "m4b.json")]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["finished"] is True

    def test_reshard_rejects_bad_inputs(self, tmp_path, capsys):
        ck = self._run_suspended(tmp_path, capsys)
        assert main(["online", "reshard", ck, "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err
        plain = str(tmp_path / "plain.json")
        assert main(["online", "run", "--n", "20", "--max-arrivals", "5",
                     "--checkpoint", plain]) == 0
        capsys.readouterr()
        assert main(["online", "reshard", plain, "--shards", "2"]) == 2
        assert "sharded" in capsys.readouterr().err

    def test_run_resume_flag_validation(self, tmp_path, capsys):
        assert main(["online", "run", "--n", "10",
                     "--max-arrivals", "-5"]) == 2
        assert "--max-arrivals" in capsys.readouterr().err
        ck = self._run_suspended(tmp_path, capsys)
        assert main(["online", "resume", ck, "--max-arrivals", "-1"]) == 2
        assert "--max-arrivals" in capsys.readouterr().err
        # There is no worker pool: argparse refuses the flag outright.
        with pytest.raises(SystemExit) as exc:
            main(["online", "resume", ck, "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
