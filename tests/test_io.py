"""JSON interchange: round-trips for every cost model, errors on junk."""

import json
import math
import tempfile

import pytest

from repro.errors import InvalidInstanceError
from repro.io import (
    dump_instance,
    dump_json_atomic,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.scheduling.instance import Job, ScheduleInstance
from repro.scheduling.intervals import AwakeInterval
from repro.scheduling.power import (
    AffineCost,
    PerProcessorRateCost,
    SuperlinearCost,
    TableCost,
    TimeOfUseCost,
    UnavailabilityCost,
)
from repro.scheduling.solver import schedule_all_jobs
from repro.workloads.jobs import random_multi_interval_instance


def roundtrip(instance):
    return instance_from_dict(json.loads(json.dumps(instance_to_dict(instance))))


def sample_jobs():
    return [
        Job("a", {("p0", 0), ("p1", 2)}, value=2.0),
        Job("b", {("p0", 3)}),
    ]


COST_MODELS = [
    AffineCost(2.0, rate=1.5),
    PerProcessorRateCost({"p0": 1.0, "p1": 2.0}, {"p0": 0.5, "p1": 3.0}),
    TimeOfUseCost([1, 2, 3, 4], restart_cost=0.5, per_processor_prices={"p1": [4, 3, 2, 1]}),
    SuperlinearCost(1.0, 2.0, scale=0.5),
    TableCost({AwakeInterval("p0", 0, 3): 5.0}, default=9.0),
    UnavailabilityCost(AffineCost(1.0), [("p0", 1), ("p1", 2)]),
]


class TestInstanceRoundTrip:
    @pytest.mark.parametrize("model", COST_MODELS, ids=lambda m: type(m).__name__)
    def test_cost_model_roundtrip(self, model):
        inst = ScheduleInstance(["p0", "p1"], sample_jobs(), 4, model)
        back = roundtrip(inst)
        # Cost oracles agree on every candidate interval.
        for proc in ("p0", "p1"):
            for s in range(4):
                for e in range(s, 4):
                    iv = AwakeInterval(proc, s, e)
                    a, b = inst.cost_of(iv), back.cost_of(iv)
                    assert (math.isinf(a) and math.isinf(b)) or a == pytest.approx(b)

    def test_jobs_preserved(self):
        inst = ScheduleInstance(["p0", "p1"], sample_jobs(), 4, AffineCost(1.0))
        back = roundtrip(inst)
        assert {j.id for j in back.jobs} == {"a", "b"}
        assert back.job_by_id("a").value == 2.0
        assert back.job_by_id("a").slots == frozenset({("p0", 0), ("p1", 2)})

    def test_candidates_preserved(self):
        pool = [AwakeInterval("p0", 0, 1), AwakeInterval("p1", 2, 3)]
        inst = ScheduleInstance(
            ["p0", "p1"], sample_jobs(), 4, AffineCost(1.0), candidate_intervals=pool
        )
        back = roundtrip(inst)
        assert sorted(back.candidates()) == sorted(pool)

    def test_solutions_agree_after_roundtrip(self):
        inst = random_multi_interval_instance(8, 2, 12, rng=3)
        back = roundtrip(inst)
        assert schedule_all_jobs(inst).cost == pytest.approx(
            schedule_all_jobs(back).cost
        )

    def test_wrong_format_rejected(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_dict({"format": "bogus/9"})

    def test_unknown_cost_kind_rejected(self):
        data = instance_to_dict(
            ScheduleInstance(["p0"], [], 2, AffineCost(1.0))
        )
        data["cost_model"] = {"kind": "quantum"}
        with pytest.raises(InvalidInstanceError):
            instance_from_dict(data)


class TestScheduleRoundTrip:
    def test_roundtrip(self):
        inst = random_multi_interval_instance(6, 2, 10, rng=1)
        sched = schedule_all_jobs(inst).schedule
        back = schedule_from_dict(json.loads(json.dumps(schedule_to_dict(sched))))
        assert sorted(back.intervals) == sorted(sched.intervals)
        assert back.assignment == {str(k): v for k, v in sched.assignment.items()}
        back.validate(inst, require_all=True)

    def test_wrong_format_rejected(self):
        with pytest.raises(InvalidInstanceError):
            schedule_from_dict({"format": "nope"})


class TestFileHelpers:
    def test_dump_and_load(self, tmp_path):
        inst = random_multi_interval_instance(5, 2, 8, rng=2)
        path = tmp_path / "inst.json"
        dump_instance(inst, str(path))
        back = load_instance(str(path))
        assert back.n_jobs == 5
        assert schedule_all_jobs(back).cost == pytest.approx(
            schedule_all_jobs(inst).cost
        )


class TestAtomicJsonDump:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "ck.json"
        dump_json_atomic({"v": 1, "a": [1, 2]}, str(path))
        assert path.read_text() == '{"a":[1,2],"v":1}\n'  # one compact, sorted line
        dump_json_atomic({"v": 2}, str(path))
        assert json.loads(path.read_text()) == {"v": 2}
        assert list(tmp_path.iterdir()) == [path]  # no stray temp files

    def test_failed_write_leaves_previous_file_intact(self, tmp_path, monkeypatch):
        """An unencodable payload fails before any temp file exists.

        The payload is encoded before the temp file is made, so the
        existing payload is neither truncated nor replaced, and no temp
        file is made or left behind.
        """
        path = tmp_path / "ck.json"
        dump_json_atomic({"cursor": 7}, str(path))
        made = []
        mkstemp = tempfile.mkstemp
        monkeypatch.setattr(
            tempfile, "mkstemp", lambda *a, **kw: made.append(a) or mkstemp(*a, **kw)
        )
        with pytest.raises(TypeError):
            dump_json_atomic({"cursor": 8, "bad": object()}, str(path))
        assert made == []
        assert json.loads(path.read_text()) == {"cursor": 7}
        assert list(tmp_path.iterdir()) == [path]

    def test_a_failure_in_the_torn_write_window_removes_the_temp_file(self, tmp_path):
        path = tmp_path / "ck.json"
        dump_json_atomic({"cursor": 7}, str(path))
        seen = []

        def fail():
            seen.extend(sorted(p.name for p in tmp_path.iterdir()))
            raise RuntimeError("stand-in for a crash before the rename")

        with pytest.raises(RuntimeError):
            dump_json_atomic({"cursor": 8}, str(path), mid_write_hook=fail)
        assert seen[0] == "ck.json" and seen[1].endswith(".tmp") and len(seen) == 2
        assert json.loads(path.read_text()) == {"cursor": 7}
        assert list(tmp_path.iterdir()) == [path]
