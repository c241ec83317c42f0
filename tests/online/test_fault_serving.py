"""Tenant failure domains: faults cost retries, never correctness.

The contracts under test: injected transient faults leave every
tenant's hires, value, and oracle-call count bit-identical to an
unfaulted serve (rollback + retry re-bills each batch exactly once);
permanent faults quarantine exactly the struck tenant after
``max_strikes`` while the fleet keeps serving; a corrupt per-tenant
checkpoint, or one whose resume raises any library error, quarantines
that tenant on resume instead of aborting the fleet; backoff schedules are seed-deterministic across runs and across
a drain/resume hop; and a ``memory_budget`` caps resident sessions
without moving any result.
"""

import asyncio
import json
import shutil
import time

import pytest

from repro.errors import InvalidInstanceError
from repro.online import serving
from repro.online.checkpoint import IdleCheckpointPolicy, tenant_checkpoint_path
from repro.online.faults import FaultPlan, FaultRule, RetryPolicy
from repro.online.serving import ServingLoop, TenantSpec, load_tenant_specs

FLEET = {
    "defaults": {"family": "additive", "n": 36, "k": 3},
    "tenants": [
        {"id": "mono-a", "policy": "monotone", "seed": 21},
        {"id": "mono-b", "policy": "monotone", "seed": 22},
        {"id": "nonmono", "policy": "nonmonotone", "seed": 23},
        {"id": "sharded", "policy": "monotone", "seed": 24, "shards": 2},
    ],
}

RESULT_KEYS = ("selected", "value", "oracle_calls", "decisions")

FAST_RETRY = RetryPolicy(base_delay=0.0005, max_delay=0.002, jitter=0.1)


def specs():
    return load_tenant_specs(FLEET)


@pytest.fixture(scope="module")
def baseline():
    """One unfaulted serve of the module fleet."""
    return ServingLoop(specs()).serve()


def assert_results_match(baseline, report, *, skip=()):
    for tid, want in baseline["tenants"].items():
        if tid in skip:
            continue
        got = report["tenants"][tid]
        assert got["finished"], (tid, got.get("state"), got.get("error"))
        for key in RESULT_KEYS:
            assert got[key] == want[key], (tid, key)


class TestTransientFaultsAreInvisible:
    def test_feed_and_oracle_faults_bit_identical(self, baseline):
        plan = FaultPlan(seed=5, retry=FAST_RETRY, rules=(
            FaultRule("serve.feed", "transient", scope="mono-a", at=[1, 2]),
            FaultRule("oracle.batch", "transient", scope="nonmono",
                      rate=0.05),
            FaultRule("oracle.value", "transient", scope="sharded#s*",
                      rate=0.1),
            FaultRule("serve.feed", "latency", rate=0.2, delay=0.0005),
        ))
        report = ServingLoop(specs(), fault_plan=plan).serve()
        assert_results_match(baseline, report)
        assert report["totals"]["retries"] >= 1
        assert report["faults"]["fired"] >= 1
        assert report["totals"]["quarantined"] == 0

    def test_retried_tenant_reports_its_retries(self, baseline):
        plan = FaultPlan(retry=FAST_RETRY, rules=(
            FaultRule("serve.feed", "transient", scope="mono-b", at=[1]),
        ))
        report = ServingLoop(specs(), fault_plan=plan).serve()
        assert report["tenants"]["mono-b"]["retries"] == 1
        assert report["tenants"]["mono-a"]["retries"] == 0
        assert_results_match(baseline, report)


class TestQuarantine:
    @pytest.mark.parametrize("max_strikes", [1, 2, 3])
    def test_quarantined_after_exactly_max_strikes(self, baseline,
                                                   max_strikes):
        # An always-permanent rule on one tenant: it must be struck out
        # after exactly max_strikes faults, with every other tenant
        # bit-identical to the unfaulted serve.
        retry = RetryPolicy(base_delay=0.0005, max_delay=0.002,
                            max_attempts=10, max_strikes=max_strikes)
        plan = FaultPlan(retry=retry, rules=(
            FaultRule("serve.feed", "permanent", scope="mono-a", rate=1.0),
        ))
        report = ServingLoop(specs(), fault_plan=plan).serve()
        victim = report["tenants"]["mono-a"]
        assert victim["state"] == "quarantined"
        assert victim["strikes"] == max_strikes
        assert "permanent fault strikes" in victim["error"]
        assert not victim["finished"]
        assert report["totals"]["quarantined"] == 1
        assert_results_match(baseline, report, skip=("mono-a",))

    def test_exhausted_transient_retries_quarantine(self, baseline):
        retry = RetryPolicy(base_delay=0.0005, max_delay=0.002,
                            max_attempts=3)
        plan = FaultPlan(retry=retry, rules=(
            FaultRule("serve.feed", "transient", scope="mono-b", rate=1.0),
        ))
        report = ServingLoop(specs(), fault_plan=plan).serve()
        victim = report["tenants"]["mono-b"]
        assert victim["state"] == "quarantined"
        assert "persisted through 3 feed attempts" in victim["error"]
        assert_results_match(baseline, report, skip=("mono-b",))

    def test_finalize_skips_quarantined_tenants(self, tmp_path, baseline):
        # The quarantined tenant's durable checkpoint (none here, so no
        # file at all) must not be overwritten with post-fault state.
        plan = FaultPlan(retry=FAST_RETRY, rules=(
            FaultRule("serve.feed", "permanent", scope="mono-a", rate=1.0),
        ))
        root = str(tmp_path / "ckpt")
        report = ServingLoop(specs(), checkpoint_root=root,
                             fault_plan=plan).serve()
        assert report["tenants"]["mono-a"]["state"] == "quarantined"
        import os
        assert not os.path.exists(tenant_checkpoint_path(root, "mono-a"))
        assert os.path.exists(tenant_checkpoint_path(root, "mono-b"))


class TestCorruptCheckpointIsolation:
    """The satellite bugfix: one bad file must not abort the fleet."""

    def _serve_then_corrupt(self, tmp_path, text):
        root = str(tmp_path / "ckpt")
        ServingLoop(specs(), checkpoint_root=root).serve()
        path = tenant_checkpoint_path(root, "mono-b")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return root, path

    def test_truncated_checkpoint_quarantines_one_tenant(self, tmp_path,
                                                         baseline):
        root, path = self._serve_then_corrupt(
            tmp_path, '{"format": "repro-tenant-checkp')
        report = ServingLoop(specs(), checkpoint_root=root,
                             resume=True).serve()
        victim = report["tenants"]["mono-b"]
        assert victim["state"] == "quarantined"
        assert "unreadable checkpoint" in victim["error"]
        assert report["totals"]["quarantined"] == 1
        assert_results_match(baseline, report, skip=("mono-b",))
        # The corrupt evidence survives for post-mortem inspection.
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read().startswith('{"format"')

    def test_wrong_format_checkpoint_quarantines_cleanly(self, tmp_path,
                                                         baseline):
        root, _ = self._serve_then_corrupt(
            tmp_path, json.dumps({"format": "something-else/1"}) + "\n")
        report = ServingLoop(specs(), checkpoint_root=root,
                             resume=True).serve()
        victim = report["tenants"]["mono-b"]
        assert victim["state"] == "quarantined"
        assert victim["error"]
        assert_results_match(baseline, report, skip=("mono-b",))


class TestDamagedCheckpointIsolation:
    """Non-UTF-8 bytes or a malformed policy block quarantine one tenant."""

    NOT_UTF8 = bytes.fromhex("fffe0067617262616765")

    @staticmethod
    def _serve_clean(tmp_path):
        root = str(tmp_path / "ckpt")
        ServingLoop(specs(), checkpoint_root=root).serve()
        return root

    def test_non_utf8_checkpoint_quarantines_one_tenant(self, tmp_path,
                                                        baseline):
        root = self._serve_clean(tmp_path)
        path = tenant_checkpoint_path(root, "nonmono")
        with open(path, "wb") as fh:
            fh.write(self.NOT_UTF8)
        report = ServingLoop(specs(), checkpoint_root=root,
                             resume=True).serve()
        victim = report["tenants"]["nonmono"]
        assert victim["state"] == "quarantined"
        assert "unreadable checkpoint" in victim["error"]
        assert "not valid UTF-8" in victim["error"]
        assert path in victim["error"]
        assert report["totals"]["quarantined"] == 1
        assert_results_match(baseline, report, skip=("nonmono",))
        with open(path, "rb") as fh:
            assert fh.read() == self.NOT_UTF8

    @pytest.mark.parametrize("tenant,damage,field", [
        pytest.param("mono-b", lambda ck: ck.pop("policy"), "'policy'",
                     id="no-policy"),
        pytest.param("mono-b", lambda ck: ck["policy"].update(config=None),
                     "'policy.config'", id="null-config"),
        pytest.param("mono-b", lambda ck: ck.update(cursor="x"), "'cursor'",
                     id="str-cursor"),
        pytest.param("sharded", lambda ck: ck["shards"][0].pop("policy"),
                     "'policy'", id="shard-no-policy"),
    ])
    def test_malformed_policy_block_quarantines_one_tenant(
        self, tmp_path, baseline, tenant, damage, field
    ):
        root = self._serve_clean(tmp_path)
        path = tenant_checkpoint_path(root, tenant)
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        damage(payload)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        report = ServingLoop(specs(), checkpoint_root=root,
                             resume=True).serve()
        victim = report["tenants"][tenant]
        assert victim["state"] == "quarantined"
        assert "checkpoint resume failed" in victim["error"]
        assert field in victim["error"]
        assert report["totals"]["quarantined"] == 1
        assert_results_match(baseline, report, skip=(tenant,))

    def test_cli_serve_resume_exits_3_with_one_tenant_quarantined(
        self, tmp_path, capsys, baseline
    ):
        from repro.cli import main

        spec = tmp_path / "fleet.json"
        spec.write_text(json.dumps(FLEET), encoding="utf-8")
        root = str(tmp_path / "ckpt")
        assert main(["online", "serve", str(spec),
                     "--checkpoint-dir", root]) == 0
        capsys.readouterr()
        path = tenant_checkpoint_path(root, "mono-a")
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        del payload["policy"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        assert main(["online", "serve", str(spec), "--checkpoint-dir", root,
                     "--resume"]) == 3
        report = json.loads(capsys.readouterr().out)
        quarantined = {tid for tid, t in report["tenants"].items()
                       if t["state"] == "quarantined"}
        assert quarantined == {"mono-a"}
        assert "'policy'" in report["tenants"]["mono-a"]["error"]
        assert_results_match(json.loads(json.dumps(baseline)), report,
                             skip=("mono-a",))


    def test_a_library_error_on_resume_quarantines_one_tenant(
        self, tmp_path, capsys
    ):
        # b's policy claims a hire that never arrived: the checkpoint
        # passes validation, and its resume raises OracleError.
        from repro.cli import main

        fleet = {
            "defaults": {"family": "coverage", "n": 60, "k": 3,
                         "policy": "monotone"},
            "tenants": [{"id": "a", "seed": 41}, {"id": "b", "seed": 42}],
        }
        spec = tmp_path / "fleet.json"
        spec.write_text(json.dumps(fleet), encoding="utf-8")
        clean, damaged = str(tmp_path / "clean"), str(tmp_path / "damaged")
        hires = []

        def drain_after_two_hires(tenant_id, position, element):
            hires.append(tenant_id)
            if len(hires) == 2:
                loop.request_drain()

        loop = ServingLoop(load_tenant_specs(fleet), checkpoint_root=clean,
                           on_decision=drain_after_two_hires)
        assert loop.serve()["totals"]["drained"] is True
        shutil.copytree(clean, damaged)
        path = tenant_checkpoint_path(damaged, "b")
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["policy"]["state"]["selected"].append("s9999")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        assert main(["online", "serve", str(spec), "--checkpoint-dir", clean,
                     "--resume"]) == 0
        want = json.loads(capsys.readouterr().out)
        assert main(["online", "serve", str(spec), "--checkpoint-dir",
                     damaged, "--resume"]) == 3
        got = json.loads(capsys.readouterr().out)
        victim = got["tenants"]["b"]
        assert victim["state"] == "quarantined"
        assert "checkpoint resume failed" in victim["error"]
        assert "have not arrived" in victim["error"]
        assert got["tenants"]["a"]["finished"] is True
        for key in RESULT_KEYS:
            assert got["tenants"]["a"][key] == want["tenants"]["a"][key], key

    def test_a_programming_error_on_resume_still_propagates(
        self, tmp_path, monkeypatch
    ):
        root = self._serve_clean(tmp_path)

        def broken_resume(*args, **kwargs):
            raise TypeError("a bug, not a damaged checkpoint")

        monkeypatch.setattr(serving, "resume_any_session", broken_resume)
        with pytest.raises(TypeError, match="a bug"):
            ServingLoop(specs(), checkpoint_root=root, resume=True).serve()


class TestBackoffDeterminism:
    PLAN_KWARGS = dict(seed=11, retry=FAST_RETRY, rules=(
        FaultRule("serve.feed", "transient", scope="mono-a", at=[1, 2, 4]),
        FaultRule("oracle.batch", "transient", scope="sharded#s0",
                  rate=0.08),
    ))

    def test_identical_runs_identical_schedules(self):
        reports = [
            ServingLoop(specs(),
                        fault_plan=FaultPlan(**self.PLAN_KWARGS)).serve()
            for _ in range(2)
        ]
        a, b = reports
        assert a["faults"] == b["faults"]
        for tid in a["tenants"]:
            assert (a["tenants"][tid]["retry_delays"]
                    == b["tenants"][tid]["retry_delays"]), tid
            assert (a["tenants"][tid]["retries"]
                    == b["tenants"][tid]["retries"]), tid

    def test_delays_match_the_stateless_schedule(self):
        # Every recorded backoff equals RetryPolicy.delay recomputed from
        # (plan seed, scope, attempt) alone — nothing in process state —
        # which is what makes the schedule identical across a
        # checkpoint/resume hop.
        plan = FaultPlan(**self.PLAN_KWARGS)
        report = ServingLoop(specs(), fault_plan=plan).serve()
        delays = report["tenants"]["mono-a"]["retry_delays"]
        assert len(delays) == 3
        want = [plan.retry.delay(plan.seed, "mono-a", a)
                for a in (1, 2, 1)]  # at=[1,2] back-to-back, then at=[4]
        assert delays == want

    def test_schedule_survives_a_drain_resume_hop(self, tmp_path, baseline):
        # Phase 1 drains mid-serve (after the first faulted feed); phase
        # 2 resumes under the same plan.  Run the two-phase serve twice:
        # the faulted tenant's backoff schedule must repeat in both
        # phases, and the final results must match the unfaulted
        # baseline.  (The plan uses only at-based rules on one tenant:
        # a rate-based rule's *fired set* depends on how far its stream
        # got before the wall-clock drain point, which is timing, not
        # schedule.)
        plan_kwargs = dict(seed=11, retry=FAST_RETRY, rules=(
            FaultRule("serve.feed", "transient", scope="mono-a",
                      at=[1, 2, 4]),
        ))

        def two_phase(root):
            class DrainAfterFirstRetry(ServingLoop):
                async def _before_feed(self, tenant, lane):
                    if (tenant.spec.tenant_id == "mono-a"
                            and tenant.retries >= 1):
                        self.request_drain()

            p1 = DrainAfterFirstRetry(
                specs(), checkpoint_root=root,
                fault_plan=FaultPlan(**plan_kwargs)).serve()
            p2 = ServingLoop(
                specs(), checkpoint_root=root, resume=True,
                fault_plan=FaultPlan(**plan_kwargs)).serve()
            return p1, p2

        a1, a2 = two_phase(str(tmp_path / "run-a"))
        b1, b2 = two_phase(str(tmp_path / "run-b"))
        assert a1["totals"]["drained"] and b1["totals"]["drained"]
        for phase_a, phase_b in ((a1, b1), (a2, b2)):
            assert phase_a["faults"] == phase_b["faults"]
            for tid in phase_a["tenants"]:
                assert (phase_a["tenants"][tid]["retry_delays"]
                        == phase_b["tenants"][tid]["retry_delays"]), tid
        assert_results_match(baseline, a2)


class TestDrainWakesFaultSleeps:
    @pytest.mark.parametrize("plan", [
        FaultPlan(rules=(FaultRule("serve.feed", "latency", at=[2], delay=1e6),)),
        FaultPlan(retry=RetryPolicy(base_delay=1e6, max_delay=1e6),
                  rules=(FaultRule("serve.feed", "transient", at=[2]),)),
    ], ids=["latency", "backoff"])
    def test_a_drain_cuts_an_injected_sleep_short(self, plan):
        # The lane sleeps on its second feed for the plan's 10^6 s; a
        # drain 0.2 s in must wake it, and the lane then feeds its step
        # and stops as after the sleep.
        loop = ServingLoop([TenantSpec("t", n=12)], fault_plan=plan)

        async def serve():
            asyncio.get_running_loop().call_later(0.2, loop.request_drain)
            return await loop.serve_async()

        started = time.perf_counter()
        report = asyncio.run(asyncio.wait_for(serve(), 10.0))  # fail, not hang
        assert time.perf_counter() - started < 2.0
        tenant = report["tenants"]["t"]
        assert tenant["state"] == "drained"
        assert tenant["arrivals"] == 2
        assert report["faults"]["fired"] == 1


class TestMemoryBudget:
    def test_budgeted_serve_bit_identical(self, tmp_path, baseline):
        report = ServingLoop(
            specs(), checkpoint_root=str(tmp_path / "ckpt"),
            memory_budget=2, park_arrivals=12,
        ).serve()
        assert_results_match(baseline, report)
        totals = report["totals"]
        assert totals["memory_budget"] == 2
        assert totals["max_resident"] <= 2
        assert totals["parks"] >= 1
        assert totals["rehydrations"] == totals["parks"]

    def test_budget_of_one_serializes_the_fleet(self, tmp_path, baseline):
        report = ServingLoop(
            specs(), checkpoint_root=str(tmp_path / "ckpt"),
            memory_budget=1, park_arrivals=10,
        ).serve()
        assert_results_match(baseline, report)
        assert report["totals"]["max_resident"] == 1

    def test_budget_without_parking_runs_each_to_completion(self, tmp_path,
                                                            baseline):
        report = ServingLoop(
            specs(), checkpoint_root=str(tmp_path / "ckpt"),
            memory_budget=2,
        ).serve()
        assert_results_match(baseline, report)
        assert report["totals"]["parks"] == 0

    def test_budget_composes_with_faults(self, tmp_path, baseline):
        plan = FaultPlan(retry=FAST_RETRY, rules=(
            FaultRule("serve.feed", "transient", scope="mono-a", at=[1]),
        ))
        report = ServingLoop(
            specs(), checkpoint_root=str(tmp_path / "ckpt"),
            memory_budget=2, park_arrivals=12, fault_plan=plan,
        ).serve()
        assert_results_match(baseline, report)
        assert report["tenants"]["mono-a"]["retries"] == 1

    def test_validation(self, tmp_path):
        with pytest.raises(InvalidInstanceError, match="checkpoint_root"):
            ServingLoop([TenantSpec("t", n=10)], memory_budget=2)
        with pytest.raises(InvalidInstanceError, match="mutually exclusive"):
            ServingLoop(
                [TenantSpec("t", n=10)],
                checkpoint_root=str(tmp_path),
                memory_budget=2,
                idle_policy=IdleCheckpointPolicy(),
            )
        with pytest.raises(InvalidInstanceError, match="park_arrivals"):
            ServingLoop([TenantSpec("t", n=10)], park_arrivals=5)
        with pytest.raises(InvalidInstanceError, match="memory_budget"):
            ServingLoop(
                [TenantSpec("t", n=10)],
                checkpoint_root=str(tmp_path), memory_budget=0,
            )


class TestSignalHandlers:
    def test_serve_async_installs_and_removes_both_handlers(self):
        import signal as signal_mod

        seen = {}

        async def run():
            loop = ServingLoop([TenantSpec("t", n=12)])
            ev_loop = asyncio.get_running_loop()
            original_add = ev_loop.add_signal_handler

            def spy_add(sig, cb, *args):
                seen[sig] = cb
                return original_add(sig, cb, *args)

            ev_loop.add_signal_handler = spy_add
            await loop.serve_async(install_signals=True)

        asyncio.run(run())
        assert set(seen) == {signal_mod.SIGINT, signal_mod.SIGTERM}
