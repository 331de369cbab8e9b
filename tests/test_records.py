"""The feature planes' JSON format, pinned.

Every committed plan must load and write back exactly the file's JSON,
and one small report per plane, built from hand-made arms with no
simulation, must round-trip through ``to_dict``/``from_dict`` with its
table and verdicts unchanged.
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
    file, _, key = name.partition("/")
    data = _read(f"{file}.json")
    if key:
        return FaultPlan, data[key]
    return {"autoscale_day": DayPlan, "carbon_day": CarbonDayPlan,
            "dvfs_day": DvfsPlan, "durability_day": DurabilityPlan}[file], data


@pytest.mark.parametrize("name", ["autoscale_day", "carbon_day", "dvfs_day",
                                  "durability_day", "gray_failures/web",
                                  "gray_failures/job"])
def test_committed_plan_writes_back_its_file(name):
    cls, data = _committed(name)
    plan = cls.from_dict(data)
    assert plan.to_dict() == data
    assert cls.from_dict(plan.to_dict()) == plan


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
    "autoscale": lambda r: r.dominated_arms(),
    "carbon": lambda r: ({p: r.dominating_policies(p)
                          for p in ("edison", "dell")}, r.platform_delta()),
    "dvfs": lambda r: r.ondemand_wins(),
    "durability": lambda r: (r.knee("edison"), r.partition_downtime_clean()),
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
