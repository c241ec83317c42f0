"""Checkpoint/resume: suspend anywhere, resume exactly.

The satellite property the PR promises: for **each policy × each
arrival process**, suspending at *every* arrival position, JSON
round-tripping the checkpoint, and resuming in a fresh session
reproduces the uninterrupted run's hired set exactly.  The matroid
policy (not a session policy — its matroids are a runtime dependency)
gets the same sweep through the lower-level :func:`resume_run` with
re-injected deps.
"""

import json

import numpy as np
import pytest

from repro.core.oracle import CountingOracle
from repro.matroids.uniform import UniformMatroid
from repro.online.arrivals import arrival_process_names, build_arrival_schedule
from repro.online.checkpoint import make_checkpoint, resume_run
from repro.online.driver import OnlineRun
from repro.online.policies import MatroidSecretaryPolicy
from repro.online.session import (
    SESSION_POLICIES,
    resume_session,
    start_session,
)
from repro.workloads.secretary_streams import coverage_utility

from tests.online.procutil import process_params

ALL_PROCESSES = arrival_process_names()
N, K, SEED = 14, 3, 20100612


def _roundtrip(payload):
    return json.loads(json.dumps(payload, sort_keys=True))


def _session_process_params(process, family="additive", n=N, seed=SEED):
    """Per-process ``process_params`` for a session over this workload."""
    from repro.online.session import build_workload

    if process != "replay":
        return {}
    fn, _ = build_workload({"family": family, "n": n, "seed": seed})
    return process_params(process, fn)


@pytest.mark.parametrize("process", ALL_PROCESSES)
@pytest.mark.parametrize("policy", SESSION_POLICIES)
def test_suspend_everywhere_resume_exact(policy, process):
    """Every cut point of every policy × process reproduces the full run."""
    kwargs = dict(policy=policy, family="additive", n=N, k=K, seed=SEED,
                  process=process,
                  process_params=_session_process_params(process))
    full = start_session(**kwargs).advance()
    assert full.finished
    want = full.run.result().selected

    for cut in range(N + 1):
        session = start_session(**kwargs).advance(cut)
        if not session.finished:
            assert session.run.cursor == cut
        resumed = resume_session(_roundtrip(session.checkpoint())).advance()
        assert resumed.finished
        got = resumed.run.result().selected
        assert got == want, (policy, process, cut)


@pytest.mark.parametrize("process", ALL_PROCESSES)
@pytest.mark.parametrize("k_guess", [1, 4])
def test_matroid_policy_resume_with_deps(process, k_guess):
    """Matroid deps re-inject through resume_run's ``deps`` hook."""
    fn = coverage_utility(N, 6, rng=np.random.default_rng(1))
    matroids = [UniformMatroid(fn.ground_set, 3)]
    schedule = build_arrival_schedule(
        process, fn, 5, **process_params(process, fn)
    )

    def fresh_run():
        return OnlineRun(
            CountingOracle(fn), schedule, MatroidSecretaryPolicy(matroids, k_guess)
        )

    want = fresh_run().run().result().selected
    for cut in range(N + 1):
        run = fresh_run().run(cut)
        ck = _roundtrip(make_checkpoint(run))
        resumed = resume_run(ck, CountingOracle(fn), deps={"matroids": matroids})
        got = resumed.run().result().selected
        assert got == want, (process, k_guess, cut)


@pytest.mark.parametrize("policy_name", ["robust", "bottleneck", "knapsack"])
def test_int_element_streams_survive_json(policy_name):
    """Value/weight-keyed policies keep int element identity through JSON.

    JSON object keys are strings, so a dict-keyed map would come back
    with "0" while the schedule's order kept 0 (KeyError on resume).
    The maps are never written: resume re-injects them through ``deps``.
    """
    from repro.core.functions import AdditiveFunction
    from repro.online.policies import (
        BottleneckPolicy,
        KnapsackSecretaryPolicy,
        RobustTopKPolicy,
    )

    values = {i: float(1 + (7 * i) % 11) for i in range(10)}
    fn = AdditiveFunction(values)
    schedule = build_arrival_schedule("uniform", fn, 3)

    weights = {e: 0.4 for e in values}
    deps = {"weights": weights} if policy_name == "knapsack" else {"values": values}

    def policy():
        if policy_name == "robust":
            return RobustTopKPolicy(values, 3)
        if policy_name == "bottleneck":
            return BottleneckPolicy(values, 2)
        return KnapsackSecretaryPolicy(weights, heads=False)

    want = OnlineRun(CountingOracle(fn), schedule, policy()).run().result().selected
    run = OnlineRun(CountingOracle(fn), schedule, policy()).run(4)
    ck = _roundtrip(make_checkpoint(run))
    assert not {"values", "weights"} & set(ck["policy"]["config"])
    resumed = resume_run(ck, CountingOracle(fn), deps=deps)
    got = resumed.run().result().selected
    assert got == want


def test_checkpoint_is_json_strict():
    """-inf thresholds and traces survive strict JSON (no NaN/Infinity)."""
    session = start_session(policy="monotone", family="coverage", n=20, k=3,
                            seed=3, process="bursty").advance(7)
    text = json.dumps(session.checkpoint(), sort_keys=True, allow_nan=False)
    resumed = resume_session(json.loads(text)).advance()
    assert resumed.finished


def test_checkpoint_records_instance_recipe():
    session = start_session(policy="robust", family="additive", n=12, k=2, seed=9)
    ck = session.advance(4).checkpoint()
    assert ck["format"] == "repro-online-checkpoint/1"
    assert ck["instance"]["policy"] == "robust"
    assert ck["instance"]["seed"] == 9
    assert ck["cursor"] == 4


def test_resume_without_recipe_rejected():
    from repro.errors import InvalidInstanceError

    session = start_session(n=10, k=2, seed=1).advance(3)
    ck = session.checkpoint()
    del ck["instance"]
    with pytest.raises(InvalidInstanceError, match="workload recipe"):
        resume_session(ck)


def test_resume_rejects_wrong_format():
    from repro.errors import InvalidInstanceError

    fn = coverage_utility(8, 4, rng=np.random.default_rng(1))
    with pytest.raises(InvalidInstanceError, match="checkpoint"):
        resume_run({"format": "bogus"}, fn)


def test_resume_rejects_bad_cursor():
    from repro.errors import InvalidInstanceError

    session = start_session(n=10, k=2, seed=1).advance(3)
    ck = _roundtrip(session.checkpoint())
    ck["cursor"] = 99
    with pytest.raises(InvalidInstanceError, match="cursor"):
        resume_session(ck)


@pytest.mark.parametrize("policy,dep", [
    ("robust", "values"), ("bottleneck", "values"), ("knapsack", "weights"),
])
def test_embedded_map_of_an_older_checkpoint_is_ignored(policy, dep):
    """Older files embedded the map as ``[[element, value], ...]`` pairs.

    Resume rebuilds it from the recipe instead: a corrupted embedded
    copy changes nothing.
    """
    kwargs = dict(policy=policy, family="additive", n=40, k=3, seed=4)
    want = start_session(**kwargs).advance().summary()
    ck = _roundtrip(start_session(**kwargs).advance(25).checkpoint())
    assert dep not in ck["policy"]["config"]
    ck["policy"]["config"][dep] = [[f"s{i}", 1e9] for i in range(40)]
    got = resume_session(ck).advance().summary()
    assert (got["selected"], got["value"], got["oracle_calls"]) == (
        want["selected"], want["value"], want["oracle_calls"])


@pytest.mark.parametrize("name,config,dep", [
    ("robust_topk", {"k": 2}, "values"),
    ("bottleneck", {"k": 2}, "values"),
    ("knapsack", {"heads": False, "density_divisor": 6.0}, "weights"),
])
def test_from_config_requires_the_workload_map(name, config, dep):
    from repro.errors import InvalidInstanceError
    from repro.online.policies import make_policy

    with pytest.raises(InvalidInstanceError, match=f"{name!r}.*{dep!r}"):
        make_policy(name, config)
    policy = make_policy(name, config, **{dep: {"a": 0.5}})
    assert getattr(policy, dep) == {"a": 0.5}


@pytest.mark.parametrize("policy", ["monotone", "robust", "knapsack"])
@pytest.mark.parametrize("damage,field", [
    pytest.param(lambda ck: ck.pop("policy"), "'policy'", id="no-policy"),
    pytest.param(lambda ck: ck["policy"].update(config=None),
                 "'policy.config'", id="null-config"),
    pytest.param(lambda ck: ck["policy"].update(state=[1]),
                 "'policy.state'", id="list-state"),
    pytest.param(lambda ck: ck["policy"].update(name=7), "'policy.name'",
                 id="int-name"),
    pytest.param(lambda ck: ck.update(cursor="x"), "'cursor'", id="str-cursor"),
    pytest.param(lambda ck: ck.update(cursor=True), "'cursor'",
                 id="bool-cursor"),
    pytest.param(lambda ck: ck.update(cursor=3.0), "'cursor'",
                 id="float-cursor"),
])
def test_resume_rejects_malformed_policy_block_and_cursor(policy, damage, field):
    """A damaged ``policy`` block or ``cursor`` is a clean error naming it."""
    from repro.errors import InvalidInstanceError

    session = start_session(policy=policy, n=12, k=2, seed=1).advance(3)
    ck = _roundtrip(session.checkpoint())
    damage(ck)
    with pytest.raises(InvalidInstanceError, match=field):
        resume_session(ck)


def test_sharded_resume_rejects_malformed_shard_policy_block():
    """Shard entries of a manifest reach the same checks."""
    from repro.errors import InvalidInstanceError
    from repro.online.session import resume_any_session, start_sharded_session

    session = start_sharded_session(
        policy="knapsack", n=16, k=2, seed=3, shards=2
    ).advance(5)
    ck = _roundtrip(session.checkpoint())
    ck["shards"][1]["policy"] = None
    with pytest.raises(InvalidInstanceError, match="'policy'"):
        resume_any_session(ck)


def test_oracle_frontier_restored_no_peeking():
    """A resumed run re-reveals only the frontier, and still no peeking.

    The v2 O(selected) contract: resume reveals the checkpointed
    frontier (the hired set plus whatever the policy may still query) —
    a subset of the consumed prefix, not the whole prefix — and the
    arrival oracle keeps refusing anything that never arrived.
    """
    from repro.errors import OracleError

    session = start_session(policy="monotone", family="coverage", n=16, k=3,
                            seed=2).advance(5)
    resumed = resume_session(_roundtrip(session.checkpoint()))
    order = resumed.run.source.materialize().order
    frontier = frozenset(resumed.run.policy.frontier())
    assert resumed.run.oracle.arrived == frontier
    assert frontier <= frozenset(order[:5])
    with pytest.raises(OracleError, match="not arrived"):
        resumed.run.oracle.value(frozenset({order[10]}))


def test_oracle_calls_accumulate_across_resume():
    """A resumed session reports cumulative calls, not post-resume only.

    The classical policy issues exactly one counted query per observed
    arrival and restores no evaluator state, so suspend/resume must
    report the same total as the uninterrupted run.
    """
    kwargs = dict(policy="classical", family="additive", n=20, k=1, seed=4)
    oneshot = start_session(**kwargs).advance()
    want = oneshot.summary()["oracle_calls"]
    assert want > 0

    hop1 = start_session(**kwargs).advance(7)
    hop2 = resume_session(_roundtrip(hop1.checkpoint())).advance(6)
    hop3 = resume_session(_roundtrip(hop2.checkpoint())).advance()
    assert hop3.summary()["oracle_calls"] == want
    assert hop3.run.result().selected == oneshot.run.result().selected


@pytest.mark.parametrize("policy", SESSION_POLICIES)
def test_oracle_calls_exact_across_resume_every_policy(policy):
    """Resume must not inflate call counts, for any policy.

    Policies that restore evaluator state bill re-derivation queries in
    ``load_state``; the session layer nets that restore overhead out of
    the prior-calls carry, so the cumulative total equals the
    uninterrupted run's *exactly* — restores are an accounting no-op,
    not billable oracle work.
    """
    kwargs = dict(policy=policy, family="additive", n=20, k=3, seed=4)
    want = start_session(**kwargs).advance().summary()["oracle_calls"]

    hop1 = start_session(**kwargs).advance(7)
    hop2 = resume_session(_roundtrip(hop1.checkpoint())).advance(6)
    hop3 = resume_session(_roundtrip(hop2.checkpoint())).advance()
    assert hop3.summary()["oracle_calls"] == want


def test_oracle_calls_exact_across_sharded_resume():
    """The same exact-total contract over the sharded runtime.

    Every shard's resume bills its own restore overhead; the sharded
    session nets the sum, so a suspend/resume hop leaves the merged
    call count identical to an uninterrupted sharded run's.
    """
    from repro.online.session import resume_sharded_session, start_sharded_session

    kwargs = dict(policy="monotone", family="additive", n=24, k=3, seed=9,
                  shards=2)
    want = start_sharded_session(**kwargs).advance().summary()["oracle_calls"]

    suspended = start_sharded_session(**kwargs)
    suspended.advance_shard(0, 5)
    suspended.advance_shard(1, 4)
    resumed = resume_sharded_session(
        _roundtrip(suspended.checkpoint())).advance()
    assert resumed.summary()["oracle_calls"] == want


def _batch_bounds(source):
    """Cursor positions of *source* that fall between two minibatches."""
    bounds, pos = {0}, 0
    for size in source.materialize().batch_sizes:
        pos += size
        bounds.add(pos)
    return bounds


@pytest.mark.parametrize("shards", [None, 2, 3])
def test_mid_batch_resume_bills_at_most_the_straight_run(shards):
    """The call-count half of resume bit-identity holds at batch boundaries.

    ``observe_batch`` scores a minibatch's whole tail at once and bills
    those scores even when a hire mid-batch discards them; a cut inside
    that batch ends the tail at the cut, so the resumed run never makes
    the discarded scores.  At every cut the hires match the straight
    run's; the call count matches wherever every lane stands between
    two batches, and is never higher anywhere else.
    """
    from repro.online.session import resume_any_session, start_sharded_session

    kwargs = dict(policy="monotone", family="coverage", n=200, k=4, seed=1,
                  process="bursty")

    def start():
        if shards is None:
            return start_session(**kwargs)
        return start_sharded_session(shards=shards, **kwargs)

    def lanes(session):
        return [session.run] if shards is None else session.run.runs

    straight = start().advance()
    want = straight.summary()
    bounds = [_batch_bounds(run.source) for run in lanes(straight)]
    boundary_cuts, fewer = 0, []
    for cut in range(201):
        session = start().advance(cut)
        at_bounds = all(run.cursor in b for run, b in zip(lanes(session), bounds))
        got = resume_any_session(_roundtrip(session.checkpoint())).advance().summary()
        assert got["selected"] == want["selected"], cut
        assert got["oracle_calls"] <= want["oracle_calls"], cut
        if at_bounds:
            boundary_cuts += 1
            assert got["oracle_calls"] == want["oracle_calls"], cut
        elif got["oracle_calls"] < want["oracle_calls"]:
            fewer.append(cut)
    # The cuts this pins, on this workload: 113 calls straight through
    # and 112 after a cut at 19 or 119 (flat); 164, and 162 or 163
    # after seven in-batch cuts (two shards); 170, and fewer after seven
    # in-batch cuts (three shards: every cut resumes each shard it left
    # unfinished, so this also pins S = 3 resume accounting).
    assert (want["oracle_calls"], boundary_cuts, fewer) == {
        None: (113, 44, [19, 119]),
        2: (164, 72, [11, 60, 138, 139, 166, 167, 190]),
        3: (170, 97, [39, 88, 89, 90, 137, 138, 153]),
    }[shards]


def test_double_resume_chain():
    """Checkpoint → resume → checkpoint → resume equals one shot."""
    kwargs = dict(policy="knapsack", family="additive", n=18, k=3, seed=6,
                  process="poisson")
    want = start_session(**kwargs).advance().run.result().selected
    hop1 = start_session(**kwargs).advance(5)
    hop2 = resume_session(_roundtrip(hop1.checkpoint())).advance(6)
    hop3 = resume_session(_roundtrip(hop2.checkpoint())).advance()
    assert hop3.finished
    assert hop3.run.result().selected == want


@pytest.mark.parametrize("process,params", [
    ("bursty", {"mean_batch": 6.0}),
    ("poisson", {"rate": 6.0}),
])
def test_truncated_batch_resumes_from_in_batch_cursor(process, params):
    """``run(max_arrivals)`` cutting a minibatch suspends *inside* it.

    The cursor must land mid-batch (not snap to a batch boundary), the
    checkpoint must round-trip that cursor, and the resumed run must
    replay only the batch's unconsumed tail — same hires as the
    uninterrupted run for every in-batch cut point.
    """
    kwargs = dict(policy="monotone", family="additive", n=24, k=3, seed=9,
                  process=process, process_params=params)
    full = start_session(**kwargs).advance()
    want = full.run.result().selected
    # Every position strictly inside a multi-arrival batch.
    sizes = full.run.source.materialize().batch_sizes
    in_batch_cuts, pos = [], 0
    for size in sizes:
        in_batch_cuts.extend(range(pos + 1, pos + size))
        pos += size
    assert in_batch_cuts, f"{process} drew no multi-arrival batch"
    for cut in in_batch_cuts:
        session = start_session(**kwargs).advance(cut)
        if session.finished:
            continue  # policy went done before the cut
        assert session.run.cursor == cut
        resumed = resume_session(_roundtrip(session.checkpoint()))
        assert resumed.run.cursor == cut
        assert resumed.advance().run.result().selected == want, (process, cut)
