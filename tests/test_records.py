"""The JSON format of every record, pinned.

Every committed plan must load and write back exactly the file's bytes,
and a misspelled key in any of them is refused by name.  Each record
the planes carry round-trips in its format, and one small report per
plane, built from hand-made arms with no simulation, must round-trip
through ``to_dict``/``from_dict`` with its table and verdicts unchanged.
"""

import json
import os

import pytest

from repro.core.records import find, p95

EXPERIMENTS = os.path.join(os.path.dirname(__file__), "..", "experiments")


def _read(name):
    with open(os.path.join(EXPERIMENTS, name), encoding="utf-8") as handle:
        return json.load(handle)


def _committed(name):
    """A committed plan's class and JSON; ``file/key`` picks one entry."""
    from repro.autoscale import DayPlan
    from repro.carbon import CarbonDayPlan
    from repro.durability import DurabilityPlan
    from repro.dvfs import DvfsPlan
    from repro.faults import FaultPlan
    from repro.resilience import GrayPlan
    file, _, key = name.partition("/")
    data = _read(f"{file}.json")
    if key:
        return FaultPlan, data[key]
    return {"autoscale_day": DayPlan, "carbon_day": CarbonDayPlan,
            "dvfs_day": DvfsPlan, "durability_day": DurabilityPlan,
            "gray_failures": GrayPlan}[file], data


PLANS = ["autoscale_day", "carbon_day", "dvfs_day", "durability_day",
         "gray_failures"]


@pytest.mark.parametrize("name", PLANS + ["gray_failures/web",
                                          "gray_failures/job"])
def test_committed_plan_writes_back_its_file(name):
    cls, data = _committed(name)
    plan = cls.from_dict(data)
    assert plan.to_dict() == data
    assert cls.from_dict(plan.to_dict()) == plan


@pytest.mark.parametrize("name", PLANS)
def test_committed_plan_file_is_its_record_saved(name, tmp_path):
    """Loading and saving a committed file gives back its own bytes."""
    cls, _ = _committed(name)
    path = os.path.join(EXPERIMENTS, f"{name}.json")
    copy = tmp_path / "copy.json"
    cls.load(path).save(str(copy))
    with open(path, "rb") as handle:
        assert copy.read_bytes() == handle.read()


def test_gray_plan_names_the_edison_testbed():
    """The committed faults hit five web servers and three slaves; a
    smaller fleet is refused by name before any run starts."""
    from repro.resilience import GrayPlan
    plan = GrayPlan.load(os.path.join(EXPERIMENTS, "gray_failures.json"))
    web = [f"web-{i}" for i in range(5)]
    slaves = [f"edison-slave-{i}" for i in range(3)]
    plan.web.check_against(web)
    plan.job.check_against(slaves)
    with pytest.raises(ValueError, match="web-4"):
        plan.web.check_against(web[:4])
    with pytest.raises(ValueError, match="edison-slave-2"):
        plan.job.check_against(slaves[:2])


def _misspell(data, path, typo):
    """``data`` with the key at ``path`` renamed to ``typo``."""
    data = json.loads(json.dumps(data))
    *parents, key = path
    holder = data
    for step in parents:
        holder = holder[step]
    holder[typo] = holder.pop(key)
    return data


#: One misspelled key per plan class: (committed plan, key path, typo).
MISSPELLINGS = [
    ("autoscale_day", ("seed",), "sed"),
    ("carbon_day", ("seed",), "sed"),
    ("dvfs_day", ("seed",), "sed"),
    ("durability_day", ("seed",), "sed"),
    ("gray_failures", ("seed",), "sed"),
    ("gray_failures/job", ("faults", 0, "at"), "att"),
    ("gray_failures/web", ("recurring",), "recuring"),
]


@pytest.mark.parametrize("name, path, typo", MISSPELLINGS)
def test_misspelled_key_is_rejected_by_name(name, path, typo, tmp_path):
    cls, data = _committed(name)
    bad = _misspell(data, path, typo)
    with pytest.raises(ValueError, match=f"'{typo}'"):
        cls.from_dict(bad)
    file = tmp_path / "plan.json"
    file.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match=f"'{typo}'") as info:
        cls.load(str(file))
    assert str(info.value).startswith(f"{file}: ")


def test_load_names_the_file_for_any_bad_input(tmp_path):
    from repro.faults import FaultPlan
    missing = tmp_path / "missing.json"
    with pytest.raises(ValueError, match="No such file"):
        FaultPlan.load(str(missing))
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON") as info:
        FaultPlan.load(str(garbage))
    assert str(info.value).startswith(f"{garbage}: ")
    partial = tmp_path / "partial.json"
    partial.write_text('{"faults": [{"kind": "crash", "node": "a"}]}')
    with pytest.raises(ValueError, match=r"lacks key\(s\) \['at'\]"):
        FaultPlan.load(str(partial))
    partial.write_text("[]")
    with pytest.raises(ValueError, match="must be a JSON object"):
        FaultPlan.load(str(partial))
    partial.write_text('{"faults": [{"kind": "partition", "node": "x", '
                       '"at": 1.0, "duration": 2.0, "nodes": "n2,n3"}]}')
    with pytest.raises(ValueError, match="expected a JSON list"):
        FaultPlan.load(str(partial))


# -- the records planes carry ------------------------------------------------


def _records():
    """One hand-built value per record type and the JSON it must write
    (the format each type had before it moved onto this module)."""
    from repro.carbon import SignalTrace
    from repro.causality.exemplars import Exemplar
    from repro.faults import FaultPlan, RecurringFault
    from repro.faults.models import (disk_failure, node_crash,
                                     node_set_partition)
    from repro.perf import PerfSample
    from repro.telemetry import Detection
    from repro.telemetry.rules import Alert
    from repro.web import DiurnalShape, FlashCrowd, ShapedLoad
    return {
        "ShapedLoad": (
            ShapedLoad(DiurnalShape(90.0, 400.0, 60.0),
                       (FlashCrowd(30.0, 8.0, 6.0, 10.0, 1.9),)),
            {"diurnal": {"base_rps": 90.0, "peak_rps": 400.0,
                         "period_s": 60.0, "trough_at_s": 0.0},
             "flashes": [{"at_s": 30.0, "ramp_s": 8.0, "hold_s": 6.0,
                          "decay_s": 10.0, "multiplier": 1.9}]}),
        "SignalTrace": (
            SignalTrace("price", "usd/kWh", ((0.0, 0.08), (2160.0, 0.12)),
                        period_s=7200.0),
            {"name": "price", "unit": "usd/kWh",
             "points": [[0.0, 0.08], [2160.0, 0.12]],
             "interpolation": "step", "period_s": 7200.0}),
        "FaultPlan": (
            FaultPlan(faults=(node_crash("n0", at=3.0, repair_s=8.0),
                              disk_failure("n1", at=7.0),
                              node_set_partition(("n2", "n3"), at=1.0,
                                                 duration=2.0)),
                      recurring=(RecurringFault(kind="nic", node="n0",
                                                mtbf_s=60.0, mttr_s=2.0,
                                                factor=0.25),)),
            {"faults": [{"kind": "crash", "node": "n0", "at": 3.0,
                         "duration": 8.0},
                        {"kind": "disk_fail", "node": "n1", "at": 7.0},
                        {"kind": "partition", "node": "n2,n3", "at": 1.0,
                         "duration": 2.0, "nodes": ["n2", "n3"]}],
             "recurring": [{"kind": "nic", "node": "n0", "mtbf_s": 60.0,
                            "mttr_s": 2.0, "factor": 0.25}]}),
        "Alert": (
            Alert("node_down", "web-0", fired_at=1.5, value=1.0,
                  resolved_at=4.0),
            {"rule": "node_down", "node": "web-0", "fired_at": 1.5,
             "value": 1.0, "resolved_at": 4.0}),
        "Detection": (
            Detection("crash", "web-0", injected_at=1.0, detected_at=1.5,
                      rule="node_down", expected="down", observed="down"),
            {"kind": "crash", "node": "web-0", "injected_at": 1.0,
             "detected_at": 1.5, "rule": "node_down", "expected": "down",
             "observed": "down", "time_to_detect": 0.5}),
        "Exemplar": (
            Exemplar(value=0.25, trace_id=17, bucket=42),
            {"value": 0.25, "trace_id": 17, "bucket": 42}),
        "PerfSample": (
            PerfSample(wall_s=1.5, scheduled=10, processed=9,
                       events_per_s=6.0, heap_peak=4,
                       digest={"ok_calls": 3, "delays": [0.1, 0.2]}),
            {"wall_s": 1.5, "scheduled": 10, "processed": 9,
             "events_per_s": 6.0, "heap_peak": 4,
             "digest": {"ok_calls": 3, "delays": [0.1, 0.2]}}),
    }


@pytest.mark.parametrize("name", ["ShapedLoad", "SignalTrace", "FaultPlan",
                                  "Alert", "Detection", "Exemplar",
                                  "PerfSample"])
def test_record_round_trips_in_its_format(name):
    record, expected = _records()[name]
    data = record.to_dict()
    assert json.dumps(data) == json.dumps(expected)
    again = type(record).from_dict(json.loads(json.dumps(data)))
    assert again == record
    assert again.to_dict() == data


# -- one synthetic report per plane ------------------------------------------


def _resilience():
    from repro.resilience import ResilienceArm, ResilienceTaxReport
    report = ResilienceTaxReport(
        kind="web", platform="edison", detail="scale 1/4, 24 conn/s",
        unmitigated=ResilienceArm(
            label="unmitigated", completed=True, work_done=900.0,
            seconds=30.0, joules=450.0, errors=40, client_failures=12,
            p95_s=4.2, availability=0.95, availability_met=False,
            latency_met=False),
        mitigated=ResilienceArm(
            label="mitigated", completed=True, work_done=980.0,
            seconds=30.0, joules=470.0, errors=2, p95_s=0.4,
            availability=0.9995, availability_met=True, latency_met=True,
            counters={"hedges": 14, "sheds": 3},
            waste_joules={"hedge": 6.5, "shed": 1.25}))
    return report


def _autoscale():
    from repro.autoscale import AutoscaleArm, AutoscaleReport

    def arm(label, platform, joules, availability, **extra):
        return AutoscaleArm(
            label=label, platform=platform, nodes={platform: 4},
            seconds=60.0, joules=joules, ok_calls=6000, errors=3,
            client_failures=1, availability=availability,
            availability_met=availability >= 0.999, p95_s=0.05,
            mean_power_w=joules / 60.0, hardware_usd=0.01,
            energy_usd=0.002, **extra)

    report = AutoscaleReport(plan_name="tiny", detail="60 s day", arms=(
        arm("static-edison", "edison", 900.0, 0.9991),
        arm("static-dell", "dell", 3000.0, 0.9999),
        arm("autoscaled-hybrid", "hybrid", 800.0, 0.9995, boot_j=12.5,
            drain_j=3.0, counters={"boots": 2, "drains": 1, "evals": 30},
            actions=({"time": 4.0, "action": "boot", "node": "web-5"},))))
    return report


def _carbon():
    from repro.carbon import CarbonArm, CarbonReport

    def arm(policy, platform, grams, misses=0):
        return CarbonArm(policy=policy, platform=platform,
                         joules=grams * 2000.0, grams_co2=grams,
                         energy_usd=grams * 1e-4, wait_hours=0.5,
                         deadline_misses=misses, suspensions=1,
                         suspended_s=120.0)

    report = CarbonReport(plan_name="tiny-day", detail="7200 s day", arms=(
        arm("no-wait", "edison", 1.5), arm("threshold", "edison", 1.1),
        arm("no-wait", "dell", 6.0), arm("threshold", "dell", 5.0, 1)))
    return report


def _dvfs():
    from repro.dvfs import (DvfsArm, DvfsReport, LoadPoint,
                            ProportionalityScorecard)

    def arm(governor, joules, attained=True):
        return DvfsArm(
            governor=governor, platform="edison", shape_name="diurnal",
            seconds=60.0, joules=joules, ok_calls=1000, errors=0,
            client_failures=0, availability=1.0, availability_met=attained,
            latency_met=attained, p95_s=0.02, mean_power_w=joules / 60.0,
            transitions=0 if governor == "performance" else 7,
            residency_s={"P0": 40.0, "P2": 20.0})

    card = ProportionalityScorecard(
        platform="edison", scale="1/8", governor="ondemand", idle_w=10.0,
        points=(LoadPoint(0.5, 100.0, 500, 5.0, 14.0),
                LoadPoint(1.0, 200.0, 1000, 5.0, 20.0)))
    report = DvfsReport(plan_name="tiny", detail="60 s days",
                        arms=(arm("performance", 100.0),
                              arm("ondemand", 90.0)),
                        scorecards=(card,))
    return report


def _durability():
    from repro.durability import DurabilityArm, DurabilityReport

    def arm(replication, **extra):
        return DurabilityArm(platform="edison", rack_aware=True,
                             replication=replication, blocks_created=16,
                             day_seconds=100.0, joules=1000.0, **extra)

    report = DurabilityReport(
        plan_name="day", detail="2 racks",
        arms=(arm(1, blocks_lost=2, loss_events=1, job_failed=True),
              arm(2, repairs_completed=4, re_replication_j=12.5,
                  same_rack_read_bytes=3.0, cross_rack_read_bytes=1.0)),
        controls=(arm(2, control=True),))
    return report


SYNTHETIC = {"resilience": _resilience, "autoscale": _autoscale,
             "carbon": _carbon, "dvfs": _dvfs, "durability": _durability}

#: Each plane's headline verdicts, and what the synthetic report says.
VERDICTS = {
    "resilience": lambda r: (r.energy_overhead_fraction, r.waste_fraction,
                             r.work_per_joule_ratio),
    "autoscale": lambda r: r.dominated_arms,
    "carbon": lambda r: (r.dominating_policies, r.platform_delta),
    "dvfs": lambda r: r.ondemand_wins,
    "durability": lambda r: (r.knee["edison"], r.partition_downtime_clean),
}
EXPECTED = {
    "resilience": (470.0 / 450.0 - 1.0, 7.75 / 470.0,
                   (980.0 / 470.0) / (900.0 / 450.0)),
    "autoscale": ["static-edison"],
    "carbon": ({"edison": ["threshold"], "dell": []},
               {"no_wait_ratio": 4.0, "best_ratio": 6.0 / 1.1,
                "edison_grams_saved": 1.5 - 1.1, "dell_grams_saved": 0.0}),
    "dvfs": ["edison/diurnal"],
    "durability": (2, True),
}


@pytest.mark.parametrize("plane", sorted(SYNTHETIC))
def test_synthetic_report_round_trips(plane):
    report = SYNTHETIC[plane]()
    assert VERDICTS[plane](report) == EXPECTED[plane]
    data = json.loads(json.dumps(report.to_dict()))
    again = type(report).from_dict(data)
    assert again == report
    assert again.to_dict() == data
    assert again.lines() == report.lines()
    assert VERDICTS[plane](again) == EXPECTED[plane]


# -- the shared helpers ------------------------------------------------------


def test_p95_is_nearest_rank():
    assert p95([]) is None
    assert p95([3.0]) == 3.0
    assert p95([float(i) for i in range(1, 21)]) == 19.0
    assert p95([float(i) for i in range(21, 0, -1)]) == 20.0


def test_find_matches_every_key_or_raises():
    from repro.durability import DurabilityArm
    arms = (DurabilityArm("edison", True, 1), DurabilityArm("edison", True, 2),
            DurabilityArm("dell", True, 2))
    assert find(arms, platform="edison", replication=2) is arms[1]
    with pytest.raises(KeyError, match="platform='dell', replication=3"):
        find(arms, platform="dell", replication=3)
