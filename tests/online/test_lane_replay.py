"""One partition replay per sharded start and per reshard hop.

A sharded start builds S lanes and a reshard hop builds every lane it
keeps; each lane's positions come from ``PartitionMap.lane_streams``
over the parent order.  Both build all their lanes from one replay
(``partition_lane_sources``), so each element is hashed once per epoch
rather than once per epoch per lane.  The lanes must equal the per-lane
build (``partition_lane_source``, one replay each) in order, spec,
batches and fingerprint chain.  The replay is sized by the stream, not
by the shard count an epoch declares, so a damaged manifest cannot make
it allocate per declared lane.
"""

import json
import tracemalloc

import pytest

import repro.online.sharding as sharding
from repro.errors import InvalidInstanceError
from repro.online.arrivals import build_arrival_source
from repro.online.session import (
    build_workload,
    reshard_session,
    resume_any_session,
    start_sharded_session,
)
from repro.online.sharding import (
    PartitionMap,
    partition_from_manifest,
    partition_lane_source,
    partition_lane_sources,
)

N, K, SEED = 60, 4, 20100612


@pytest.fixture
def hashes(monkeypatch):
    """Counts the partition's element hashes (``sharding.shard_of`` calls)."""
    count = [0]
    real = sharding.shard_of

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(sharding, "shard_of", counting)
    return count


def _rt(payload):
    return json.loads(json.dumps(payload, allow_nan=False))


def _drained(source):
    """Every take of a source, then its fingerprint digest."""
    steps = []
    while True:
        step = source.take(3)  # odd limit: crosses batch ends mid-batch
        if step is None:
            return steps, source.fingerprint()
        steps.append(step)


def _partitions():
    fn, _ = build_workload({"family": "additive", "n": N, "seed": SEED})
    order = build_arrival_source("bursty", fn, SEED).materialize().order
    base = PartitionMap.base(2, salt=1)
    sizes = [sum(1 for e in order if base.assign(e) == a) for a in range(2)]
    grown = base.reshard(4, [sizes[0] // 2, sizes[1] // 3])
    shrunk = grown.reshard(3, [sizes[0] // 2, sizes[1] // 3 + 2, 1, 0])
    return fn, {
        "identity": PartitionMap.base(1),
        "base": PartitionMap.base(3, salt=2),
        "grown": grown,
        "shrunk": shrunk,
    }


FN, PARTITIONS = _partitions()


@pytest.mark.parametrize("process", ["bursty", "uniform", "poisson"])
@pytest.mark.parametrize("name", sorted(PARTITIONS))
def test_lanes_equal_the_per_lane_build(name, process, hashes):
    pm = PARTITIONS[name]
    count = pm.lane_count()

    def factory():
        return build_arrival_source(process, FN, SEED)

    hashes[0] = 0
    lanes = partition_lane_sources(factory, pm, count)
    one_replay = hashes[0]
    hashes[0] = 0
    alone = [partition_lane_source(factory(), i, pm) for i in range(count)]
    per_lane = hashes[0]
    assert len(lanes) == count
    for lane, ref in zip(lanes, alone):
        assert type(lane) is type(ref)
        assert lane.order == ref.order
        assert _rt(lane.spec()) == _rt(ref.spec())
        assert lane.materialize().batch_sizes == ref.materialize().batch_sizes
        assert lane.materialize().timestamps == ref.materialize().timestamps
        assert _drained(lane) == _drained(ref)
    if name == "identity":
        assert one_replay == per_lane == 0
    else:
        assert one_replay <= N * len(pm.epochs)
        assert per_lane == count * one_replay


@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_start_hashes_each_element_once(shards, hashes):
    start_sharded_session(n=N, k=K, seed=SEED, process="bursty", shards=shards)
    assert hashes[0] == N


def test_reshard_hop_hashes_each_element_once_per_epoch(hashes):
    session = start_sharded_session(
        n=N, k=K, seed=SEED, process="bursty", shards=2,
    ).advance(N // 2)
    ck = _rt(session.checkpoint())
    hashes[0] = 0
    grown = reshard_session(ck, 4)
    # Epoch 0 hashes every element; epoch 1 re-hashes the unconsumed half.
    assert hashes[0] == N + (N - N // 2)
    hashes[0] = 0
    shrunk = reshard_session(grown, 2)
    assert hashes[0] == N + 2 * (N - N // 2)
    # The hops resume to the straight-through run.
    straight = start_sharded_session(
        n=N, k=K, seed=SEED, process="bursty", shards=2,
    ).advance().summary()
    resumed = resume_any_session(_rt(shrunk)).advance().summary()
    assert resumed["selected"] == straight["selected"]
    assert resumed["oracle_calls"] == straight["oracle_calls"]
    assert partition_from_manifest(grown).lane_count() == 4


def _peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_replay_is_sized_by_the_stream_not_the_declared_shard_count():
    # Two epochs, the second declaring a million shards, over 50
    # elements: the replay keeps state for the lanes it fills or builds.
    order = [f"e{i}" for i in range(50)]
    base = PartitionMap.base(2)
    sizes = [sum(1 for e in order if base.assign(e) == a) for a in range(2)]
    pm = base.reshard(10**6, [sizes[0] // 2, 1])
    assert pm.lane_count() == 10**6
    streams = []
    peak = _peak_mb(lambda: streams.extend(pm.lane_streams(order, [0, 1, 999_999])))
    assert peak < 5
    pinned = [p for p in range(50) if base.assign(order[p]) == 0][: sizes[0] // 2]
    assert streams[0][0] == pinned
    assert all(pm.assign(order[p]) == 999_999 for p in streams[2][1])
    # A lane built alone replays the same way.
    fn, _ = build_workload({"family": "additive", "n": 50, "seed": 1})
    parent = build_arrival_source("uniform", fn, 1)
    assert _peak_mb(lambda: partition_lane_source(parent, 999_999, pm)) < 5


def test_manifest_declaring_a_million_shards_is_refused_cheaply():
    session = start_sharded_session(
        n=64, k=K, seed=3, process="bursty", shards=2,
    ).advance(20)
    manifest = _rt(reshard_session(_rt(session.checkpoint()), 3))
    # Edit epoch 0 everywhere the manifest carries it: lane 0's consumed
    # prefix of 20 no longer exists under a million-way hash.
    blocks = [manifest["partition"]] + [
        entry["source"]["shard"]["partition"] for entry in manifest["shards"]
    ]
    for block in blocks:
        block["epochs"][0]["num_shards"] = 10**6

    def resume():
        with pytest.raises(InvalidInstanceError, match="exceeds the stream"):
            resume_any_session(manifest)

    assert _peak_mb(resume) < 5
