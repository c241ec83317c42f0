"""`repro online run/resume` and the session layer behind them."""

import json

import pytest

from repro.cli import main
from repro.errors import InvalidInstanceError
from repro.online.session import SESSION_POLICIES, start_session


class TestSessionLayer:
    @pytest.mark.parametrize("policy", SESSION_POLICIES)
    def test_every_policy_runs_every_family_smoke(self, policy):
        for family in ("additive", "coverage"):
            session = start_session(policy=policy, family=family, n=12, k=2,
                                    seed=3).advance()
            summary = session.summary()
            assert summary["finished"] is True
            assert summary["n_chosen"] == len(summary["selected"])
            assert summary["oracle_calls"] >= 0

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidInstanceError, match="family"):
            start_session(family="nope", n=10, k=2)

    def test_unknown_policy_rejected(self):
        with pytest.raises(InvalidInstanceError, match="policy"):
            start_session(policy="nope", n=10, k=2)

    def test_summary_before_finish_has_no_result(self):
        session = start_session(n=20, k=3, seed=1).advance(4)
        summary = session.summary()
        assert summary["finished"] is False
        assert "selected" not in summary


class TestOnlineCLI:
    def test_run_to_completion(self, capsys):
        assert main(["online", "run", "--n", "20", "--k", "3", "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["finished"] is True
        assert payload["process"] == "uniform"
        assert "checkpoint" not in payload

    def test_suspend_resume_round_trip(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.json")
        assert main([
            "online", "run", "--policy", "monotone", "--family", "coverage",
            "--n", "30", "--k", "3", "--seed", "5", "--process", "bursty",
            "--max-arrivals", "11", "--checkpoint", ck,
        ]) == 0
        suspended = json.loads(capsys.readouterr().out)
        assert suspended["finished"] is False
        assert suspended["cursor"] == 11
        assert suspended["checkpoint"] == ck

        assert main(["online", "resume", ck]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["finished"] is True
        assert resumed["cursor"] == 30

        # The resumed hires equal the uninterrupted run's.
        assert main([
            "online", "run", "--policy", "monotone", "--family", "coverage",
            "--n", "30", "--k", "3", "--seed", "5", "--process", "bursty",
        ]) == 0
        oneshot = json.loads(capsys.readouterr().out)
        assert resumed["selected"] == oneshot["selected"]
        assert resumed["value"] == oneshot["value"]

    def test_resume_overwrites_input_by_default(self, tmp_path, capsys):
        ck = str(tmp_path / "hop.json")
        assert main([
            "online", "run", "--n", "25", "--k", "2", "--seed", "2",
            "--max-arrivals", "5", "--checkpoint", ck,
        ]) == 0
        capsys.readouterr()
        assert main(["online", "resume", ck, "--max-arrivals", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        if not payload["finished"]:
            assert payload["checkpoint"] == ck
            with open(ck, "r", encoding="utf-8") as fh:
                assert json.load(fh)["cursor"] == payload["cursor"]

    def test_process_params_forwarded(self, capsys):
        assert main([
            "online", "run", "--n", "15", "--k", "2", "--seed", "4",
            "--process", "bursty", "--process-params", '{"mean_batch": 9.0}',
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["finished"] is True

    def test_unknown_process_is_clean_error(self, capsys):
        assert main(["online", "run", "--process", "warp"]) == 2
        err = capsys.readouterr().err
        assert "unknown arrival process" in err

    def test_malformed_process_params_is_clean_error(self, capsys):
        assert main(["online", "run", "--process-params", "{"]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert main(["online", "run", "--process-params", "[1, 2]"]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_unknown_process_param_is_clean_error(self, capsys):
        assert main([
            "online", "run", "--process", "bursty",
            "--process-params", '{"bogus": 1}',
        ]) == 2
        assert "bad parameters for arrival process" in capsys.readouterr().err

    def test_workload_knobs_forwarded(self, capsys):
        assert main([
            "online", "run", "--policy", "knapsack", "--n", "20", "--seed", "3",
            "--n-knapsacks", "4", "--distribution", "lognormal", "--aux", "0",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["finished"] is True


class TestShardedCLI:
    def test_sharded_suspend_resume_round_trip(self, tmp_path, capsys):
        ck = str(tmp_path / "shards.json")
        base = ["online", "run", "--policy", "monotone", "--family", "coverage",
                "--n", "30", "--k", "3", "--seed", "5", "--process", "bursty",
                "--shards", "3"]
        assert main(base + ["--max-arrivals", "11", "--checkpoint", ck]) == 0
        suspended = json.loads(capsys.readouterr().out)
        assert suspended["finished"] is False
        assert suspended["shards"] == 3
        assert suspended["cursor"] == 11
        assert sum(suspended["cursors"]) == 11

        assert main(["online", "resume", ck]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["finished"] is True
        assert resumed["n_chosen"] <= 3
        assert resumed["strategy"] == "sharded-merge"

        # Same hires as the uninterrupted sharded run.
        assert main(base) == 0
        oneshot = json.loads(capsys.readouterr().out)
        assert resumed["selected"] == oneshot["selected"]
        assert resumed["value"] == oneshot["value"]

    def test_checkpoint_write_is_atomic(self, tmp_path, capsys):
        """A suspend over an existing checkpoint replaces it whole."""
        ck = tmp_path / "hop.json"
        ck.write_text('{"sentinel": true}')
        assert main([
            "online", "run", "--n", "25", "--k", "2", "--seed", "2",
            "--max-arrivals", "5", "--checkpoint", str(ck),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(ck.read_text())
        assert payload["cursor"] == 5  # fully replaced, never merged/truncated
        assert not list(tmp_path.glob("*.tmp"))

    def test_corrupt_checkpoint_is_clean_exit_2(self, tmp_path, capsys):
        ck = tmp_path / "truncated.json"
        ck.write_text('{"format": "repro-online-checkpoint/1", "cursor')
        assert main(["online", "resume", str(ck)]) == 2
        err = capsys.readouterr().err
        assert "corrupt or truncated" in err
        assert str(ck) in err

    def test_non_utf8_checkpoint_is_clean_exit_2(self, tmp_path, capsys):
        ck = tmp_path / "garbage.json"
        ck.write_bytes(bytes.fromhex("fffe0067617262616765"))
        assert main(["online", "resume", str(ck)]) == 2
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err
        assert str(ck) in err

    def test_non_object_checkpoint_is_clean_exit_2(self, tmp_path, capsys):
        ck = tmp_path / "list.json"
        ck.write_text("[1, 2, 3]")
        assert main(["online", "resume", str(ck)]) == 2
        assert "not a JSON object" in capsys.readouterr().err

    def test_future_schema_version_is_clean_exit_2(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.json")
        assert main([
            "online", "run", "--n", "20", "--k", "2", "--seed", "1",
            "--max-arrivals", "6", "--checkpoint", ck,
        ]) == 0
        capsys.readouterr()
        with open(ck, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["schema_version"] = 99
        with open(ck, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        assert main(["online", "resume", ck]) == 2
        assert "schema version 99" in capsys.readouterr().err

    def test_inspect_plain_checkpoint(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.json")
        assert main([
            "online", "run", "--policy", "monotone", "--family", "coverage",
            "--n", "30", "--k", "3", "--seed", "5", "--process", "bursty",
            "--max-arrivals", "11", "--checkpoint", ck,
        ]) == 0
        capsys.readouterr()
        assert main(["online", "inspect", ck]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["format"] == "repro-online-checkpoint/1"
        assert info["schema_version"] == 2
        assert info["process"] == "bursty"
        assert info["cursor"] == 11
        assert isinstance(info["hired"], int)
        assert info["recipe"]["family"] == "coverage"
        assert info["embedded_schedule"] is False  # O(selected) payload
        # Inspect is read-only: the file still resumes afterwards.
        assert main(["online", "resume", ck]) == 0
        capsys.readouterr()

    def test_inspect_sharded_manifest(self, tmp_path, capsys):
        ck = str(tmp_path / "shards.json")
        assert main([
            "online", "run", "--n", "30", "--k", "3", "--seed", "5",
            "--shards", "3", "--max-arrivals", "11", "--checkpoint", ck,
        ]) == 0
        capsys.readouterr()
        assert main(["online", "inspect", ck]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["format"] == "repro-online-sharded-checkpoint/1"
        assert info["num_shards"] == 3
        assert len(info["shards"]) == 3
        assert info["cursor"] == 11
        for shard in info["shards"]:
            assert shard["schema_version"] == 2
            assert shard["shard"]["num_shards"] == 3

    def test_inspect_corrupt_checkpoint_is_clean_exit_2(self, tmp_path, capsys):
        ck = tmp_path / "truncated.json"
        ck.write_text('{"format": "repro-online-checkpoint/1", "cursor')
        assert main(["online", "inspect", str(ck)]) == 2
        err = capsys.readouterr().err
        assert "corrupt or truncated" in err
        assert str(ck) in err

    def test_inspect_non_utf8_checkpoint_is_clean_exit_2(self, tmp_path, capsys):
        ck = tmp_path / "garbage.json"
        ck.write_bytes(bytes.fromhex("fffe0067617262616765"))
        assert main(["online", "inspect", str(ck)]) == 2
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err
        assert str(ck) in err

    def test_inspect_unknown_format_is_clean_exit_2(self, tmp_path, capsys):
        ck = tmp_path / "other.json"
        ck.write_text('{"format": "something-else"}')
        assert main(["online", "inspect", str(ck)]) == 2
        assert "unknown format" in capsys.readouterr().err

    def test_bad_shard_and_worker_flags_rejected(self, capsys):
        assert main(["online", "run", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err
        # There is no worker pool: argparse refuses the flag outright.
        with pytest.raises(SystemExit) as exc:
            main(["online", "run", "--n", "10", "--shards", "2",
                  "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
