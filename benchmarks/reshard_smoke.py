"""Reshard smoke: the S -> S' manifest transform, timed and verified.

For each stream size, a sharded session is suspended at n//2, hopped
2 -> 4 -> 2 through :func:`repro.online.session.reshard_session` (salt
kept, no progress at the intermediate width), and resumed to
completion; the resumed hires must equal an uninterrupted sharded
run's.  Each cell records the manifest byte size, the wall time of the
first reshard hop, and each hop's element hashes (``shard_of`` calls).
A hop replays the partition epochs over the parent order once for all
the lanes it builds, so it may hash at most n elements per epoch of the
new map; a cell whose hop hashes more (say, one replay per lane) fails.

There is no serve cell: the work-stealing ``serve --autoscale`` cell
(``--steal``, recorded in ``BENCH_PR10.json``) went with that mode.
Its recorded win needed a simulated 4 ms sleep after every lane step;
unpaced, the autoscaled serve was slower than the static one.

Usage::

    PYTHONPATH=src python benchmarks/reshard_smoke.py --output reshard_smoke.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import repro.online.sharding as sharding
from repro.online.session import (
    reshard_session,
    resume_sharded_session,
    start_sharded_session,
)

SEED = 20100612
TRANSFORM_NS = (64, 256, 1024)
SHARDS = 2


@contextlib.contextmanager
def counted_hashes():
    """Count the partition's element hashes made inside the block."""
    real = sharding.shard_of
    count = [0]

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    sharding.shard_of = counting
    try:
        yield count
    finally:
        sharding.shard_of = real


def run_transform_cell(n: int) -> dict:
    """One 2 -> 4 -> 2 round-trip cell at stream size ``n``."""
    kwargs = dict(policy="monotone", family="additive", n=n, k=4,
                  seed=SEED, process="bursty", shards=SHARDS)
    t0 = time.perf_counter()
    straight = start_sharded_session(**kwargs).advance()
    run_seconds = time.perf_counter() - t0
    selected = sorted(map(str, straight.summary()["selected"]))

    suspended = start_sharded_session(**kwargs).advance(n // 2)
    checkpoint = json.loads(json.dumps(suspended.checkpoint(),
                                       allow_nan=False))
    manifest_bytes = len(json.dumps(checkpoint, sort_keys=True))

    with counted_hashes() as grow_hashes:
        t0 = time.perf_counter()
        grown = reshard_session(checkpoint, 2 * SHARDS)
        hop_seconds = time.perf_counter() - t0
    with counted_hashes() as shrink_hashes:
        hopped = reshard_session(grown, SHARDS)
    hop_hashes = [grow_hashes[0], shrink_hashes[0]]
    hash_bounds = [n * len(m["partition"]["epochs"]) for m in (grown, hopped)]

    resumed = resume_sharded_session(hopped).advance()
    resumed_selected = sorted(map(str, resumed.summary()["selected"]))
    return {
        "n": n,
        "ok": (
            resumed.finished and resumed_selected == selected
            and all(h <= b for h, b in zip(hop_hashes, hash_bounds))
        ),
        "selected": selected,
        "resumed_selected": resumed_selected,
        "manifest_bytes": manifest_bytes,
        "run_seconds": run_seconds,
        "hop_seconds": hop_seconds,
        "hop_hashes": hop_hashes,
        "hop_hash_bounds": hash_bounds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="write results JSON here")
    args = parser.parse_args(argv)

    cells = [run_transform_cell(n) for n in TRANSFORM_NS]
    for c in cells:
        status = "ok " if c["ok"] else "FAIL"
        print(f"{status} reshard n={c['n']:>5} "
              f"manifest={c['manifest_bytes']:>6}B "
              f"hop={c['hop_seconds'] * 1e3:.2f}ms "
              f"run={c['run_seconds'] * 1e3:.1f}ms "
              f"hashes={c['hop_hashes']} (max {c['hop_hash_bounds']})")
    ok = all(c["ok"] for c in cells)

    payload = {
        "format": "repro-bench-pr/1",
        "benchmark": "reshard-smoke",
        "shards": SHARDS,
        "hop": f"{SHARDS}>{2 * SHARDS}>{SHARDS}",
        "suspend_at": "n//2",
        "transform_cells": cells,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not ok:
        print("reshard smoke: FAILED", file=sys.stderr)
        return 1
    print("reshard smoke: all cells ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
