"""Bad arrival-process parameters are refused naming the parameter.

Each parameter is checked where its process reads it: ``mean_batch`` a
finite number >= 1 (not a bool), ``rate`` a finite number > 0 whose
timestamps stay finite, ``window`` an integer >= 1, and every field of
a ``replay`` payload (or of a schedule a checkpoint embeds) through
the checkpoint field checks.  ``repro online run`` then exits 2 instead
of 1 with a traceback; ``repro online serve`` quarantines the one
tenant whose spec carries the bad value, naming it in that tenant's
``error``, serves the rest of the fleet, and exits 3.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import InvalidInstanceError
from repro.online.arrivals import build_arrival_schedule
from repro.online.checkpoint import make_checkpoint, resume_run
from repro.online.driver import OnlineRun
from repro.online.policies import SegmentedSubmodularPolicy
from repro.online.session import start_session
from repro.workloads.secretary_streams import additive_values

RUN = ["online", "run", "--policy", "monotone", "--family", "coverage",
       "--n", "40", "--k", "3", "--seed", "1"]

REPLAY = {"format": "repro-arrival-schedule/1", "process": "uniform", "seed": 0,
          "order": [f"s{i}" for i in range(40)], "batch_sizes": [1] * 40}

BAD = [
    pytest.param("bursty", '{"mean_batch": NaN}', "'mean_batch'", id="mean_batch-nan"),
    pytest.param("bursty", '{"mean_batch": Infinity}', "'mean_batch'", id="mean_batch-inf"),
    pytest.param("bursty", '{"mean_batch": 1e400}', "'mean_batch'", id="mean_batch-1e400"),
    pytest.param("bursty", '{"mean_batch": true}', "'mean_batch'", id="mean_batch-bool"),
    pytest.param("poisson", '{"rate": NaN}', "'rate'", id="rate-nan"),
    pytest.param("poisson", '{"rate": 1e-320}', "'rate'", id="rate-denormal"),
    pytest.param("sliding_window", '{"window": NaN}', "'window'", id="window-nan"),
    pytest.param("replay", json.dumps({"payload": {k: v for k, v in REPLAY.items()
                                                   if k != "process"}}),
                 "'schedule.process'", id="replay-no-process"),
    pytest.param("replay", json.dumps({"payload": dict(REPLAY, batch_sizes=["x"])}),
                 "'schedule.batch_sizes'", id="replay-str-batch-size"),
]


@pytest.mark.parametrize("process,params,field", BAD)
def test_run_exits_2_naming_the_parameter(capsys, process, params, field):
    assert main(RUN + ["--process", process, "--process-params", params]) == 2
    assert field in capsys.readouterr().err


def test_a_good_replay_payload_still_runs(capsys):
    params = json.dumps({"payload": REPLAY})
    assert main(RUN + ["--process", "replay", "--process-params", params]) == 0


@pytest.mark.parametrize("budget", [[], ["--memory-budget", "1"]],
                         ids=["static", "budgeted"])
@pytest.mark.parametrize("process,params,field", [
    pytest.param("bursty", {"mean_batch": float("nan")}, "'mean_batch'", id="mean_batch-nan"),
    pytest.param("poisson", {"rate": 1e-320}, "'rate'", id="rate-denormal"),
])
def test_serve_quarantines_the_tenant_naming_the_parameter(
    tmp_path, capsys, process, params, field, budget
):
    fleet = {
        "defaults": {"family": "coverage", "n": 40, "k": 3, "policy": "monotone"},
        "tenants": [{"id": "a", "seed": 1},
                    {"id": "b", "seed": 2, "process": process, "process_params": params}],
    }
    spec = tmp_path / "fleet.json"
    spec.write_text(json.dumps(fleet), encoding="utf-8")
    argv = ["online", "serve", str(spec), "--checkpoint-dir", str(tmp_path / "ck")]
    assert main(argv + budget) == 3
    tenants = json.loads(capsys.readouterr().out)["tenants"]
    assert tenants["b"]["state"] == "quarantined"
    assert tenants["b"]["error"].startswith("session start failed: ")
    assert field in tenants["b"]["error"]
    solo = start_session(policy="monotone", family="coverage", n=40, k=3, seed=1)
    assert tenants["a"]["state"] == "finished"
    assert tenants["a"]["selected"] == solo.advance().summary()["selected"]


@pytest.mark.parametrize("damage,field", [
    pytest.param(lambda s: s.pop("process"), "'schedule.process'", id="no-process"),
    pytest.param(lambda s: s["batch_sizes"].__setitem__(0, "x"), "'schedule.batch_sizes'",
                 id="str-batch-size"),
    pytest.param(lambda s: s.update(order=5), "'schedule.order'", id="int-order"),
    pytest.param(lambda s: s.update(timestamps=["x"]), "'schedule.timestamps'",
                 id="str-timestamp"),
])
def test_a_checkpoint_embedding_a_damaged_schedule_is_refused(damage, field):
    fn, _ = additive_values(20, rng=np.random.default_rng(0))
    # A live Generator seed is opaque, so the checkpoint embeds the schedule.
    schedule = build_arrival_schedule("uniform", fn, np.random.default_rng(1))
    run = OnlineRun(fn, schedule, SegmentedSubmodularPolicy(2)).run(max_arrivals=5)
    ck = json.loads(json.dumps(make_checkpoint(run)))
    resume_run(json.loads(json.dumps(ck)), fn)  # undamaged: resumes
    damage(ck["source"]["schedule"])
    with pytest.raises(InvalidInstanceError, match=field):
        resume_run(ck, fn)
