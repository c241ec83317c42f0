"""Sharded manifests whose lanes carry parent-stream extras still resume.

Shard lanes once suspended as a copy of their parent stream's state plus
the pending tail of the parent batch they had pulled (``parent``,
``pending``, ``pending_ts`` and ``pending_new`` in ``source.state``).  A
lane is now positional, so a resume needs only its cursor and
fingerprint chain, and ignores those extras.  The two committed files
were written by that earlier release:

- ``manifest_mid_batch_s2.json``: a two-shard bursty manifest suspended
  mid-batch (lane 0 holds one pending arrival), from
  ``repro online run --policy monotone --family coverage --n 200 --k 4
  --seed 1 --process bursty --shards 2 --max-arrivals 60
  --checkpoint s2.json``;
- ``manifest_mid_batch_s3.json``: its ``repro online reshard s2.json
  --shards 3`` output, a schema-v3 manifest.

The expected results are what that release resumed each file to; the
lane chains are the fingerprints of the fully drained lanes.
"""

import json
import os

import pytest

from repro.cli import main
from repro.online.session import resume_any_session

HERE = os.path.dirname(os.path.abspath(__file__))

EXPECTED = {
    "manifest_mid_batch_s2.json": {
        "selected": ["s106", "s152", "s16", "s33"],
        "value": 16.0,
        "oracle_calls": 163,
        "merge_calls": 27,
        "cursors": [100, 100],
        "chains": [
            "4cbe6d00910c72399f7d8575dc85a06683f8297e65b44f35a1e5347f9bc9e3f7",
            "4d87f8e3a527df2725a2e3e4e188909e5cc7f08d5ef1bd8d92e92fc2ab146e73",
        ],
    },
    "manifest_mid_batch_s3.json": {
        "selected": ["s152", "s176", "s33", "s5"],
        "value": 16.0,
        "oracle_calls": 166,
        "merge_calls": 35,
        "cursors": [105, 43, 52],
        "chains": [
            "c795b334b8fdf4ef23df18b98c31f74bebb66dbd9e6552b6d8e1202cbaf5bab7",
            "5e769a46450ebdfa139aac86f3335b36ab9247fb5a993709a9dab42a00d44018",
            "7a06b8641251480149a73e2160aa6d47baaf3b83d439b6c750bc1765e4418f7f",
        ],
    },
}


def _load(name):
    with open(os.path.join(HERE, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_the_two_lane_manifest_carries_a_pending_tail():
    lanes = [e["source"]["state"] for e in _load("manifest_mid_batch_s2.json")["shards"]]
    assert lanes[0]["pending"] and "parent" in lanes[0]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_resumes_to_the_recorded_results(name):
    want = EXPECTED[name]
    session = resume_any_session(_load(name)).advance()
    summary = session.summary()
    for key in ("selected", "value", "oracle_calls", "merge_calls", "cursors"):
        assert summary[key] == want[key], key
    assert [r.source.fingerprint() for r in session.run.runs] == want["chains"]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_cli_resume_reports_the_recorded_results(name, capsys):
    assert main(["online", "resume", os.path.join(HERE, name)]) == 0
    out = json.loads(capsys.readouterr().out)
    for key in ("selected", "value", "oracle_calls"):
        assert out[key] == EXPECTED[name][key], key
