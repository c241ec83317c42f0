"""The asyncio serving layer: concurrency must not change any decision.

The contract under test: N tenants multiplexed through one
:class:`~repro.online.serving.ServingLoop` hire the same elements and
bill the same oracle-call counts as N sequential per-tenant sessions;
each lane feeds one step per loop pass and a slow lane holds one step,
stalling no other; idle and drain checkpoints resume to the
uninterrupted result.
"""

import asyncio
import json
import os

import pytest

from repro.cli import main
from repro.errors import InvalidInstanceError
from repro.online.checkpoint import (
    IdleCheckpointPolicy,
    list_tenant_checkpoints,
    read_tenant_checkpoint,
    tenant_checkpoint_path,
    write_tenant_checkpoint,
)
from repro.online.serving import ServingLoop, TenantSpec, load_tenant_specs
from repro.online.session import (
    WorkloadCache,
    start_sharded_session,
    workload_key,
)


MIXED_FLEET = {
    "defaults": {"family": "additive", "n": 36, "k": 3},
    "tenants": [
        {"id": "mono", "policy": "monotone", "seed": 11},
        {"id": "mono-bursty", "policy": "monotone", "seed": 11,
         "process": "bursty"},
        {"id": "robust", "policy": "robust", "seed": 12,
         "family": "coverage"},
        {"id": "classical", "policy": "classical", "seed": 13,
         "process": "sorted_desc"},
        {"id": "knapsack", "policy": "knapsack", "seed": 14},
        {"id": "nonmono", "policy": "nonmonotone", "seed": 15,
         "process": "poisson"},
        {"id": "sharded", "policy": "monotone", "seed": 16, "shards": 2,
         "process": "bursty"},
    ],
}


def sequential_summaries(specs):
    """Each tenant alone through the plain pull-based session layer."""
    out = {}
    for spec in specs:
        session = spec.start().advance()
        out[spec.tenant_id] = session.summary()
    return out


class TestConcurrentEqualsSequential:
    def test_mixed_fleet_bit_identical(self):
        specs = load_tenant_specs(MIXED_FLEET)
        report = ServingLoop(specs).serve()
        expected = sequential_summaries(specs)
        assert report["totals"]["finished"] == len(specs)
        for tid, got in report["tenants"].items():
            want = expected[tid]
            assert got["finished"] is True
            assert got["selected"] == want["selected"], tid
            assert got["value"] == want["value"], tid
            assert got["oracle_calls"] == want["oracle_calls"], tid
            assert got["cursor"] == want["cursor"], tid

    def test_shared_workload_cache_changes_no_counts(self):
        # Five tenants on one workload: the cache dedupes utility builds
        # and memoises values, yet per-tenant counts stay identical.
        specs = load_tenant_specs({
            "replicate": {"count": 5, "family": "coverage", "n": 24,
                          "k": 3, "policy": "robust", "seed_start": 0},
        })
        for spec in specs:
            spec.seed = 7  # same workload for every tenant
        cache = WorkloadCache()
        report = ServingLoop(specs, workload_cache=cache).serve()
        expected = sequential_summaries(specs)
        for tid, got in report["tenants"].items():
            assert got["selected"] == expected[tid]["selected"]
            assert got["oracle_calls"] == expected[tid]["oracle_calls"]
        stats = report["workload_cache"]
        assert stats["workloads"] == 1
        assert stats["workload_hits"] == 4

    def test_workload_cache_shares_instances_and_memoises(self):
        cache = WorkloadCache()
        recipe = {"family": "additive", "n": 12, "aux": 0, "seed": 3,
                  "distribution": "uniform", "policy": "monotone"}
        fn1, _, shared1 = cache.lookup(recipe)
        fn2, _, shared2 = cache.lookup({**recipe, "policy": "robust"})
        assert fn1 is fn2  # one utility object per workload key
        assert shared1 is shared2
        assert (cache.hits, cache.misses) == (1, 1)
        subset = frozenset(list(fn1.ground_set)[:2])
        first = shared1.value(subset)
        assert shared1.value(subset) == first
        assert shared1.hits == 1  # second query served from the cache
        assert len(cache) == 1
        assert cache.stats()["value_hits"] == 1

    def test_report_has_no_elastic_keys(self):
        # Every serve is the static lifecycle: a sharded tenant keeps one
        # lane per shard for the whole serve, so nothing reports rebinds.
        specs = [TenantSpec("flat", n=12, k=2, seed=1),
                 TenantSpec("sharded", n=12, k=2, seed=1, shards=2)]
        report = ServingLoop(specs).serve()
        assert "autoscale" not in report["totals"]
        assert "rebinds" not in report["totals"]
        for tenant in report["tenants"].values():
            assert "rebinds" not in tenant and "lanes" not in tenant

    @pytest.mark.parametrize("keyword, value", [
        ("autoscale", (1, 2)), ("batch_limit", 2),
    ])
    def test_removed_loop_keywords_are_refused(self, keyword, value):
        with pytest.raises(TypeError, match=keyword):
            ServingLoop([TenantSpec("t", n=10)], **{keyword: value})


class TestFairness:
    def test_each_lane_feeds_one_step_per_loop_pass(self):
        # Three equal-length single-arrival tenants: every loop pass
        # feeds each running lane exactly once, in tenant order, so the
        # feeds interleave in strict round-robin from first to last.
        fed = []

        class RecordingLoop(ServingLoop):
            async def _before_feed(self, tenant, lane):
                fed.append(tenant.spec.tenant_id)

        n = 12
        specs = load_tenant_specs({
            "defaults": {"family": "additive", "n": n, "k": n,
                         "policy": "robust"},
            "tenants": [{"id": tid, "seed": seed}
                        for seed, tid in enumerate("abc")],
        })
        report = RecordingLoop(specs).serve()
        assert all(t["batches"] == n for t in report["tenants"].values())
        assert "".join(fed) == "abc" * n


class TestBackpressure:
    def test_slow_lane_holds_one_step_and_stalls_no_other(self):
        fed = []

        class SlowOracleLoop(ServingLoop):
            async def _before_feed(self, tenant, lane):
                if tenant.spec.tenant_id == "slow":
                    await asyncio.sleep(0.001)
                fed.append(tenant.spec.tenant_id)

        specs = load_tenant_specs({
            "defaults": {"family": "additive", "n": 40, "k": 3,
                         "policy": "monotone"},
            "tenants": [{"id": "slow", "seed": 1},
                        {"id": "fast", "seed": 2}],
        })
        report = SlowOracleLoop(specs).serve()
        expected = sequential_summaries(specs)
        # The stalled lane holds the one step it took and takes no
        # other until that step is fed.
        assert report["tenants"]["slow"]["max_in_flight"] == 1
        assert report["tenants"]["fast"]["finished"] is True
        assert fed[-1] == "slow"  # the fast tenant finished first
        for tid in ("slow", "fast"):
            got = report["tenants"][tid]
            assert got["selected"] == expected[tid]["selected"]
            assert got["oracle_calls"] == expected[tid]["oracle_calls"]


class TestDrainAndResume:
    def drain_after(self, loop, min_arrivals):
        """Run *loop*, requesting drain once *min_arrivals* consumed."""
        async def run():
            task = asyncio.ensure_future(loop.serve_async())
            while not task.done():
                consumed = sum(t.arrivals for t in loop._tenants)
                if consumed >= min_arrivals:
                    loop.request_drain()
                    break
                await asyncio.sleep(0)
            return await task
        return asyncio.run(run())

    def test_drain_leaves_every_tenant_resumable(self, tmp_path):
        specs = load_tenant_specs(MIXED_FLEET)
        root = str(tmp_path / "ck")
        first = self.drain_after(
            ServingLoop(specs, checkpoint_root=root), 12
        )
        assert first["totals"]["drained"] is True
        # Every tenant snapshotted, finished or not.
        assert sorted(list_tenant_checkpoints(root)) == sorted(
            s.tenant_id for s in specs
        )
        resumed = ServingLoop(
            specs, checkpoint_root=root, resume=True
        ).serve()
        assert resumed["totals"]["resumed"] == len(specs)
        assert resumed["totals"]["finished"] == len(specs)
        expected = sequential_summaries(specs)
        for tid, got in resumed["tenants"].items():
            assert got["selected"] == expected[tid]["selected"], tid
            assert got["value"] == expected[tid]["value"], tid

    def test_idle_checkpoint_then_resume_mid_serve(self, tmp_path):
        specs = load_tenant_specs({
            "tenants": [{"id": "paced", "policy": "monotone",
                         "family": "additive", "n": 24, "k": 3,
                         "seed": 9}],
        })
        root = str(tmp_path / "ck")
        loop = ServingLoop(
            specs,
            checkpoint_root=root,
            idle_policy=IdleCheckpointPolicy(idle_seconds=0.01),
            pace_seconds=0.03,
        )

        async def run():
            task = asyncio.ensure_future(loop.serve_async())
            while not task.done():
                if any(t.idle_checkpoints > 0 and not t.finished
                       for t in loop._tenants):
                    loop.request_drain()
                await asyncio.sleep(0.005)
            return await task

        report = asyncio.run(run())
        assert report["totals"]["idle_checkpoints"] >= 1
        assert report["checkpoint_latency"]["count"] >= 1
        assert report["checkpoint_latency"]["max_seconds"] > 0
        resumed = ServingLoop(
            specs, checkpoint_root=root, resume=True
        ).serve()
        expected = sequential_summaries(specs)["paced"]
        got = resumed["tenants"]["paced"]
        assert got["finished"] is True
        assert got["selected"] == expected["selected"]
        assert got["value"] == expected["value"]

    def test_skewed_sharded_checkpoint_resumes_to_the_straight_run(
        self, tmp_path
    ):
        # Lane 1 ran dry before the suspend and lane 0 never started: the
        # resumed serve finishes lane 0 alone and bills the straight run.
        session = start_sharded_session(
            policy="monotone", family="additive", n=40, k=4, seed=7,
            shards=2,
        )
        session.advance_shard(1)
        remaining = [r.n - r.cursor for r in session.run.runs]
        assert remaining[1] == 0 and remaining[0] > 2
        root = str(tmp_path / "ck")
        write_tenant_checkpoint(session.checkpoint(), root, "hot")
        spec = TenantSpec("hot", policy="monotone", family="additive",
                          n=40, k=4, seed=7, shards=2)
        report = ServingLoop(
            [spec], checkpoint_root=root, resume=True
        ).serve()
        hot = report["tenants"]["hot"]
        want = sequential_summaries([spec])["hot"]
        assert hot["resumed"] is True and hot["finished"] is True
        assert hot["arrivals"] == remaining[0]
        for key in ("selected", "value", "oracle_calls", "cursor"):
            assert hot[key] == want[key], key


class TestResumeMatchesSpec:
    """A resume rebuilds the checkpoint's workload: it must be the spec's."""

    ORIGINAL = {"id": "a", "n": 60, "k": 4, "seed": 3}

    def serve(self, root, entry, **kwargs):
        return ServingLoop(load_tenant_specs([entry]), checkpoint_root=root,
                           **kwargs).serve()

    def test_changed_workload_quarantines_and_keeps_checkpoint(self,
                                                               tmp_path):
        root = str(tmp_path / "ck")
        self.serve(root, self.ORIGINAL)
        path = tenant_checkpoint_path(root, "a")
        with open(path, "rb") as fh:
            before = fh.read()
        changed = {**self.ORIGINAL, "n": 200, "k": 9, "seed": 5}
        report = self.serve(root, changed, resume=True)
        tenant = report["tenants"]["a"]
        assert tenant["state"] == "quarantined"
        assert report["totals"]["quarantined"] == 1
        for field in ("n: checkpoint 60, spec 200", "k: checkpoint 4, spec 9",
                      "seed: checkpoint 3, spec 5"):
            assert field in tenant["error"]
        assert "policy" not in tenant["error"]
        with open(path, "rb") as fh:
            assert fh.read() == before

    def test_changed_workload_exits_3(self, tmp_path, capsys):
        root = str(tmp_path / "ck")
        self.serve(root, self.ORIGINAL)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{**self.ORIGINAL, "process": "bursty"}]),
                        encoding="utf-8")
        assert main(["online", "serve", str(spec), "--checkpoint-dir", root,
                     "--resume"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert "process: checkpoint 'uniform', spec 'bursty'" in (
            report["tenants"]["a"]["error"])

    def test_unchanged_spec_resumes(self, tmp_path):
        root = str(tmp_path / "ck")
        first = self.serve(root, self.ORIGINAL)
        report = self.serve(root, self.ORIGINAL, resume=True)
        tenant = report["tenants"]["a"]
        assert tenant["state"] == "finished"
        assert tenant["resumed"] is True
        assert "error" not in tenant
        assert tenant["selected"] == first["tenants"]["a"]["selected"]

    def test_shard_count_is_exempt(self, tmp_path):
        root = str(tmp_path / "ck")
        self.serve(root, {**self.ORIGINAL, "shards": 2})
        report = self.serve(root, {**self.ORIGINAL, "shards": 3}, resume=True)
        assert report["tenants"]["a"]["state"] == "finished"


class TestTenantCheckpointLayout:
    def test_round_trip_and_listing(self, tmp_path):
        root = str(tmp_path)
        payload = {"format": "x", "cursor": 3}
        path = write_tenant_checkpoint(payload, root, "tenant/42 β")
        assert path == tenant_checkpoint_path(root, "tenant/42 β")
        assert os.path.exists(path)
        assert read_tenant_checkpoint(root, "tenant/42 β") == payload
        assert list_tenant_checkpoints(root) == {"tenant/42 β": path}

    def test_missing_reads_as_none(self, tmp_path):
        assert read_tenant_checkpoint(str(tmp_path), "ghost") is None
        assert list_tenant_checkpoints(str(tmp_path / "absent")) == {}

    @pytest.mark.parametrize("bad", ["", ".", ".."])
    def test_pathological_ids_rejected(self, tmp_path, bad):
        with pytest.raises(InvalidInstanceError):
            tenant_checkpoint_path(str(tmp_path), bad)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tenant_checkpoint_path(str(tmp_path), "t")
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        with pytest.raises(InvalidInstanceError, match="corrupt"):
            read_tenant_checkpoint(str(tmp_path), "t")


class TestIdleCheckpointPolicy:
    def test_due_needs_idle_time_and_progress(self):
        policy = IdleCheckpointPolicy(idle_seconds=0.5, min_progress=2)
        assert policy.due("t", cursor=2, idle_for=0.4) is False  # too busy
        assert policy.due("t", cursor=2, idle_for=0.6) is True
        policy.note_checkpoint("t", cursor=2)
        assert policy.due("t", cursor=3, idle_for=9.9) is False  # +1 < 2
        assert policy.due("t", cursor=4, idle_for=9.9) is True

    def test_validation(self):
        with pytest.raises(InvalidInstanceError):
            IdleCheckpointPolicy(idle_seconds=-1)
        with pytest.raises(InvalidInstanceError):
            IdleCheckpointPolicy(min_progress=0)


class TestSpecLoading:
    def test_bare_list_accepted(self):
        specs = load_tenant_specs([{"id": "a"}, {"id": "b"}])
        assert [s.tenant_id for s in specs] == ["a", "b"]

    def test_defaults_merge_under_entries(self):
        specs = load_tenant_specs({
            "defaults": {"n": 99, "policy": "robust"},
            "tenants": [{"id": "a", "policy": "classical"}],
        })
        assert specs[0].n == 99
        assert specs[0].policy == "classical"

    def test_replicate_expands_seeds_and_ids(self):
        specs = load_tenant_specs({
            "replicate": {"count": 3, "seed_start": 40,
                          "id_format": "u{seed}", "n": 10},
        })
        assert [s.tenant_id for s in specs] == ["u40", "u41", "u42"]
        assert [s.seed for s in specs] == [40, 41, 42]
        assert all(s.n == 10 for s in specs)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidInstanceError, match="duplicate"):
            load_tenant_specs([{"id": "a"}, {"id": "a"}])

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidInstanceError, match="unknown spec field"):
            load_tenant_specs([{"id": "a", "polciy": "monotone"}])

    def test_missing_id_rejected(self):
        with pytest.raises(InvalidInstanceError, match="'id'"):
            load_tenant_specs([{"policy": "monotone"}])

    def test_empty_spec_rejected(self):
        with pytest.raises(InvalidInstanceError, match="no tenants"):
            load_tenant_specs({"tenants": []})

    @pytest.mark.parametrize("field, value", [
        ("n", "abc"), ("n", 1.5), ("n", True), ("k", "3"), ("seed", 2.0),
        ("aux", False), ("n_knapsacks", "2"), ("shards", 1.0),
        ("shards", None),
    ])
    def test_integer_fields_take_json_integers_only(self, field, value):
        with pytest.raises(InvalidInstanceError,
                           match=f"tenant 'a': '{field}' must be a JSON "
                                 f"integer"):
            load_tenant_specs([{"id": "a", field: value}])

    def test_bad_default_names_the_tenant(self):
        with pytest.raises(InvalidInstanceError, match="tenant 'b': 'k'"):
            load_tenant_specs({"defaults": {"k": 2.0},
                               "tenants": [{"id": "b"}]})

    @pytest.mark.parametrize("params", [[1, 2], "x", None])
    def test_process_params_takes_an_object(self, params):
        with pytest.raises(InvalidInstanceError,
                           match="tenant 'a': 'process_params' must be a "
                                 "JSON object"):
            load_tenant_specs([{"id": "a", "process_params": params}])

    @pytest.mark.parametrize("stanza, match", [
        ({"count": "x"}, "'replicate.count' must be a JSON integer"),
        ({"count": True}, "'replicate.count' must be a JSON integer"),
        ({"count": 2, "seed_start": 1.5},
         "'replicate.seed_start' must be a JSON integer"),
        ({"count": 2, "id_format": "t-{foo}"}, "'replicate.id_format'"),
        ({"count": 2, "id_format": "t-{0}"}, "'replicate.id_format'"),
        ({"count": 2, "id_format": "t-{index[0]}"}, "'replicate.id_format'"),
        ({"count": 2, "id_format": 5}, "'replicate.id_format'"),
        ({"count": 2, "n": 1.5}, "tenant 'tenant-0000': 'n'"),
    ])
    def test_bad_replicate_stanza_rejected(self, stanza, match):
        with pytest.raises(InvalidInstanceError, match=match):
            load_tenant_specs({"replicate": stanza})

    def test_python_callers_keep_coercion(self):
        spec = TenantSpec("t", n=1.5, k="3", process_params=None)
        assert (spec.n, spec.k, spec.process_params) == (1, 3, {})

    def test_workload_key_splits_on_workload_fields_only(self):
        base = {"family": "additive", "n": 10, "aux": 0, "seed": 1,
                "distribution": "uniform", "policy": "monotone"}
        assert workload_key(base) == workload_key({**base, "policy": "robust",
                                                   "process": "bursty"})
        assert workload_key(base) != workload_key({**base, "seed": 2})
        assert workload_key(base) != workload_key({**base,
                                                   "policy": "knapsack"})


class TestServeCLI:
    def write_spec(self, tmp_path, payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_serve_matches_plain_run(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, {
            "tenants": [{"id": "solo", "policy": "monotone",
                         "family": "coverage", "n": 30, "k": 3, "seed": 5,
                         "process": "bursty"}],
        })
        root = str(tmp_path / "ck")
        assert main(["online", "serve", spec, "--checkpoint-dir", root]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main([
            "online", "run", "--policy", "monotone", "--family", "coverage",
            "--n", "30", "--k", "3", "--seed", "5", "--process", "bursty",
        ]) == 0
        oneshot = json.loads(capsys.readouterr().out)
        tenant = report["tenants"]["solo"]
        assert tenant["selected"] == oneshot["selected"]
        assert tenant["value"] == oneshot["value"]
        assert tenant["oracle_calls"] == oneshot["oracle_calls"]
        # The final snapshot landed in the tenant's directory.
        assert read_tenant_checkpoint(root, "solo") is not None

    def test_serve_report_output_file(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, {
            "replicate": {"count": 4, "n": 12, "k": 2, "seed_start": 0},
        })
        out = tmp_path / "report.json"
        assert main(["online", "serve", spec, "--output", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["totals"]["tenants"] == 4
        assert report["totals"]["finished"] == 4

    def test_bad_spec_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        assert main(["online", "serve", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_malformed_spec_field_exits_2(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, [{"id": "a", "n": "abc"}])
        assert main(["online", "serve", spec]) == 2
        err = capsys.readouterr().err
        assert f"spec file {spec}: tenant 'a': 'n'" in err

    def test_idle_seconds_requires_checkpoint_dir(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, [{"id": "a"}])
        assert main(["online", "serve", spec, "--idle-seconds", "0.1"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--autoscale", "1:2"), ("--batch-limit", "2"),
    ])
    def test_removed_serve_modes_are_unknown_flags(
        self, tmp_path, capsys, flag, value
    ):
        spec = self.write_spec(tmp_path, [{"id": "a"}])
        with pytest.raises(SystemExit) as exc:
            main(["online", "serve", spec, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestInspectParamsRendering:
    def test_params_rendered_sorted_with_containers_summarized(
            self, tmp_path, capsys):
        from tests.online.procutil import process_params
        from repro.online.session import start_session

        session = start_session(
            policy="monotone", n=20, k=3, seed=4, process="replay",
            process_params=process_params(
                "replay", start_session(n=20, seed=4).base
            ),
        ).advance(6)
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps(session.checkpoint()), encoding="utf-8")
        assert main(["online", "inspect", str(ck)]) == 0
        payload = json.loads(capsys.readouterr().out)
        params = payload["params"]
        assert list(params) == sorted(params)
        # The replay payload is summarized, not dumped wholesale.
        assert isinstance(params["payload"], str)
        assert params["payload"].startswith("<object:")

    def test_bursty_params_scalar_values_verbatim(self, tmp_path, capsys):
        from repro.online.session import start_session

        session = start_session(
            n=20, k=3, seed=4, process="bursty",
            process_params={"mean_batch": 5.0},
        ).advance(6)
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps(session.checkpoint()), encoding="utf-8")
        assert main(["online", "inspect", str(ck)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["mean_batch"] == 5.0
