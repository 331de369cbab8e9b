"""Acceptance bars of the feature planes, replayed from committed seeds.

Every plane makes two promises.  Off its path it is invisible: with the
plane ``None`` or explicitly disabled, the fidelity digests match each
other and ``experiments/offpath_baseline.json`` float-for-float.  On its
path, the committed seeded experiment clears the plane's headline bar.
Causal tracing is held to the same invisibility, plus energy
conservation and the Table 7 decomposition from tree structure alone.

Run:  PYTHONPATH=src python -m pytest acceptance
"""

import os
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

import pytest

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"
SHAPE = dict(base_rps=60.0, peak_rps=240.0, period_s=24.0)


def job_digest(report, locality="locality_fraction"):
    return {"seconds": report.seconds, "joules": report.joules,
            locality: report.locality_fraction}


def run_report(report, artifacts, name):
    """Print a report's table and keep its JSON as an artifact."""
    print("\n".join(report.lines()))
    artifacts.write(name, report.to_dict())
    return report


# -- off-path fidelity: each plane's digests, plain and disabled -------------


def resilience_digests(disabled):
    """One web level and one job, faults off."""
    from repro.mapreduce import JOB_FACTORIES, JobRunner
    from repro.resilience import GrayPlan, ResilienceConfig
    from repro.web import WebServiceDeployment

    seed = GrayPlan.load(EXPERIMENTS / "gray_failures.json").seed
    resilience = ResilienceConfig.disabled() if disabled else None
    deployment = WebServiceDeployment("edison", "1/4", seed=seed,
                                      resilience=resilience)
    level = deployment.run_level(24, duration=3.0, warmup=1.0)
    spec, config = JOB_FACTORIES["wordcount2"]("edison", 8)
    runner = JobRunner("edison", 8, config=config, seed=seed,
                       resilience=resilience)
    return {"web": asdict(level), "job": job_digest(runner.run(spec))}


def autoscale_digests(disabled):
    """One fixed-rate level, one shaped static day, one shaped hybrid
    day, with the autoscaler off."""
    from repro.autoscale import AutoscaleConfig, HybridWebDeployment
    from repro.autoscale.report import DAY_SEED
    from repro.web import DiurnalShape, ShapedLoad, WebServiceDeployment

    autoscale = AutoscaleConfig.disabled() if disabled else None
    shape = ShapedLoad(DiurnalShape(**SHAPE))
    static = WebServiceDeployment("edison", "1/4", seed=DAY_SEED)
    level = static.run_level(24, duration=3.0, warmup=1.0)
    shaped = WebServiceDeployment("edison", "1/4", seed=DAY_SEED)
    shaped_level = shaped.run_shaped(shape, 24.0, calls=5)
    hybrid = HybridWebDeployment(edison_web=2, dell_web=1, cache=1,
                                 seed=DAY_SEED, autoscale=autoscale)
    hybrid_level = hybrid.run_shaped(shape, 24.0, calls=5)
    return {"level": asdict(level), "shaped": asdict(shaped_level),
            "hybrid": asdict(hybrid_level),
            "hybrid_joules": hybrid.meter.energy_joules()}


CARBON_FLEETS = (("edison", 4), ("dell", 2))


def carbon_digests(with_injector):
    """Every committed job kind on both platforms, run outside any
    carbon machinery (optionally with an idle empty-plan injector, the
    suspend-resume arm's only prerequisite)."""
    from repro.carbon import CarbonDayPlan
    from repro.carbon.jobspec import CARBON_JOB_KINDS
    from repro.faults import FaultInjector
    from repro.mapreduce.runtime import JobRunner

    seed = CarbonDayPlan.load(EXPERIMENTS / "carbon_day.json").seed
    digests = {}
    for kind in sorted(CARBON_JOB_KINDS):
        for platform, slaves in CARBON_FLEETS:
            spec, config = CARBON_JOB_KINDS[kind](platform)
            runner = JobRunner(platform, slaves, config=config, seed=seed)
            if with_injector:
                FaultInjector(runner.cluster)
            digests[f"{kind}/{platform}"] = job_digest(runner.run(spec),
                                                       "locality")
    return digests


def dvfs_digests(disabled):
    """One fixed-rate web level, one shaped day, one MapReduce job —
    through the attach helpers the armed path uses, so "off" exercises
    the real integration; the P-state tables must stay invisible."""
    from repro.dvfs import DVFS_SEED, DvfsConfig, attach_job, attach_web
    from repro.mapreduce import JOB_FACTORIES, JobRunner
    from repro.web import DiurnalShape, ShapedLoad, WebServiceDeployment

    dvfs = DvfsConfig.disabled() if disabled else None
    static = WebServiceDeployment("edison", "1/4", seed=DVFS_SEED)
    assert attach_web(static, dvfs, until=3.0) is None
    level = static.run_level(24, duration=3.0, warmup=1.0)
    shaped = WebServiceDeployment("edison", "1/4", seed=DVFS_SEED)
    assert attach_web(shaped, dvfs, until=24.0) is None
    shaped_level = shaped.run_shaped(ShapedLoad(DiurnalShape(**SHAPE)),
                                     24.0, calls=5)
    spec, config = JOB_FACTORIES["wordcount2"]("edison", 8)
    runner = JobRunner("edison", 8, config=config, seed=DVFS_SEED)
    assert attach_job(runner, dvfs) is None
    return {"level": asdict(level), "shaped": asdict(shaped_level),
            "job": job_digest(runner.run(spec))}


def durability_digests(disabled):
    """A plain, a crash-faulted and a partitioned job, all through the
    :func:`repro.durability.attach_job` the armed path uses: no phi
    detector, heartbeat feeder, repair monitor or ledger may exist."""
    from repro.durability import DAY_SEED, DurabilityConfig, attach_job
    from repro.faults import FaultInjector
    from repro.faults.models import FaultPlan, node_crash, rack_partition
    from repro.mapreduce import JOB_FACTORIES, JobRunner

    durability = DurabilityConfig.disabled() if disabled else None

    def one_job(faults=None, racks=1):
        spec, config = JOB_FACTORIES["wordcount2"]("dell", 8)
        runner = JobRunner("dell", 8, config=config, seed=DAY_SEED,
                           racks=racks)
        injector = None
        if faults is not None:
            injector = FaultInjector(runner.cluster, faults)
        assert attach_job(runner, durability) is None
        assert getattr(runner, "durability_ledger", None) is None
        assert runner.hdfs.monitor is None
        digest = job_digest(runner.run(spec))
        digest["health"] = runner.hdfs.health_summary()
        if injector is not None:
            slaves = [s.name for s in runner.slave_servers]
            digest["downtime_s"] = sum(
                injector.downtime(n, until=runner.sim.now) for n in slaves)
            digest["unreachable_s"] = sum(
                injector.unreachable_time(n, until=runner.sim.now)
                for n in slaves)
        return digest

    crash = FaultPlan(faults=(
        node_crash("dell-slave-3", at=6.0, repair_s=10.0),))
    cut = FaultPlan(faults=(
        rack_partition("dell-rack-0", at=6.0, duration=8.0),))
    return {"plain": one_job(), "crashed": one_job(faults=crash),
            "partitioned": one_job(faults=cut, racks=2)}


OFF_PATH = {"resilience": resilience_digests,
            "autoscale": autoscale_digests, "carbon": carbon_digests,
            "dvfs": dvfs_digests, "durability": durability_digests}


@lru_cache(maxsize=None)
def plain(plane):
    """A plane's digests with the plane ``None`` (carbon: unused)."""
    return OFF_PATH[plane](False)


@pytest.mark.parametrize("plane", OFF_PATH)
def test_off_path_matches_baseline(plane, baseline):
    baseline.check(plane, plain(plane))


@pytest.mark.parametrize("plane", OFF_PATH)
def test_off_path_disabled_is_bit_identical(plane):
    """``None`` and the explicit disabled config (carbon: an idle
    empty-plan injector) move no float."""
    assert plain(plane) == OFF_PATH[plane](True)


# -- resilience: the gray-failure bar -----------------------------------------


@pytest.fixture(scope="module")
def gray(artifacts):
    from repro.resilience import (GrayPlan, job_resilience_experiment,
                                  web_resilience_experiment)
    plan = GrayPlan.load(EXPERIMENTS / "gray_failures.json")
    web = web_resilience_experiment(plan)
    job = job_resilience_experiment(plan)
    return (run_report(web, artifacts, "resilience_web_report.json"),
            run_report(job, artifacts, "resilience_job_report.json"))


def test_resilience_web_mitigation_meets_both_slos(gray):
    u, m = gray[0].unmitigated, gray[0].mitigated
    assert not (u.availability_met and u.latency_met), \
        f"unmitigated availability {u.availability * 100:.2f}%, " \
        f"p95 {u.p95_s * 1000:.0f} ms"
    assert bool(m.availability_met), f"{m.availability * 100:.4f}%"
    assert bool(m.latency_met), f"p95 {m.p95_s * 1000:.0f} ms over 3 s"
    assert m.total_waste_joules > 0, "hedge/shed tax not priced"


def test_resilience_speculation_beats_the_straggler(gray):
    u, m = gray[1].unmitigated, gray[1].mitigated
    assert u.task_failures > 0
    assert m.completed and u.completed
    assert m.seconds < u.seconds, \
        f"{m.seconds:.0f} s vs {u.seconds:.0f} s unmitigated"
    assert m.total_waste_joules > 0, "speculation tax not priced"


# -- autoscale: the three-arm day ---------------------------------------------


def test_autoscale_hybrid_dominates_a_static_arm(artifacts):
    from repro.autoscale import DayPlan, autoscale_experiment
    plan = DayPlan.load(EXPERIMENTS / "autoscale_day.json")
    report = run_report(autoscale_experiment(plan), artifacts,
                        "autoscale_report.json")
    hybrid = report.hybrid
    assert bool(report.dominated_arms)
    assert bool(hybrid.availability_met), \
        f"{(hybrid.availability or 0) * 100:.4f}%"
    assert hybrid.boot_j > 0, \
        f"{hybrid.boot_j:.1f} J over {hybrid.counters.get('boots', 0)} boots"
    assert hybrid.drain_j > 0, \
        f"{hybrid.drain_j:.1f} J over {hybrid.counters.get('drains', 0)} " \
        "drains"
    assert hybrid.counters.get("evals", 0) > 0


# -- carbon: the eight-arm day ------------------------------------------------


@pytest.fixture(scope="module")
def carbon_day(artifacts):
    from repro.carbon import CarbonDayPlan, carbon_experiment
    plan = CarbonDayPlan.load(EXPERIMENTS / "carbon_day.json")
    return run_report(carbon_experiment(plan), artifacts,
                      "carbon_report.json")


@pytest.mark.parametrize("platform", [p for p, _ in CARBON_FLEETS])
def test_carbon_no_wait_arm_equals_the_plain_runs(carbon_day, platform):
    runs = plain("carbon")
    assert all(
        record["joules"] == runs[f"{record['kind']}/{platform}"]["joules"]
        and record["seconds"]
        == runs[f"{record['kind']}/{platform}"]["seconds"]
        for record in carbon_day.arm("no-wait", platform).records)


@pytest.mark.parametrize("platform", [p for p, _ in CARBON_FLEETS])
def test_carbon_waiting_beats_no_wait(carbon_day, platform):
    assert bool(carbon_day.dominating_policies[platform])
    arm = carbon_day.arm("suspend-resume", platform)
    assert arm.suspensions > 0, \
        f"{arm.suspensions} suspensions, {arm.suspended_s:.0f} s"


def test_carbon_r620_day_emits_more_co2_than_edison(carbon_day):
    delta = carbon_day.platform_delta
    assert delta is not None and delta["no_wait_ratio"] > 1.0


# -- DVFS: the governor sweep -------------------------------------------------


@pytest.fixture(scope="module")
def dvfs_plan():
    from repro.dvfs import DvfsPlan
    return DvfsPlan.load(EXPERIMENTS / "dvfs_day.json")


def test_dvfs_ondemand_beats_performance(dvfs_plan, artifacts):
    from repro.dvfs import dvfs_experiment
    report = run_report(dvfs_experiment(dvfs_plan), artifacts,
                        "dvfs_report.json")
    assert bool(report.ondemand_wins)
    assert all(a.transitions > 0 for a in report.arms
               if a.governor == "ondemand")
    assert all(a.transitions == 0 for a in report.arms
               if a.governor == "performance")
    bad = [f"{c.platform}/{c.governor} dynamic range {c.dynamic_range:.3f}"
           for c in report.scorecards if not 0.0 < c.dynamic_range < 1.0]
    # Gap figures normalise to each card's *own* measured peak, and a
    # governor lowers that peak too — so compare ladders by what they
    # burned, not by their self-normalised shapes.
    nominal = {c.platform: c for c in report.scorecards
               if c.governor == "nominal"}
    governed = {c.platform: c for c in report.scorecards
                if c.governor != "nominal"}
    for platform, card in governed.items():
        rival = nominal.get(platform)
        if rival is not None:
            spent = sum(p.joules for p in card.points)
            rival_spent = sum(p.joules for p in rival.points)
            if not spent < rival_spent:
                bad.append(f"{platform}: governed ladder {spent:.1f} J "
                           f"vs {rival_spent:.1f} J nominal")
    assert not bad


def test_dvfs_governed_day_dashboard(dvfs_plan, artifacts):
    """One governed diurnal day, dashboarded with its scorecards."""
    from repro.dvfs import DvfsConfig, attach_web, measure_proportionality
    from repro.telemetry import Telemetry, write_dashboard
    from repro.web import WebServiceDeployment

    plan = dvfs_plan
    shape_name = "diurnal" if "diurnal" in plan.shapes \
        else next(iter(plan.shapes))
    ondemand = DvfsConfig(enabled=True, governor=plan.ondemand)
    deployment = WebServiceDeployment("edison", plan.scale("edison"),
                                      seed=plan.seed)
    telemetry = Telemetry()
    telemetry.attach_web(deployment, until=plan.duration_s)
    attach_web(deployment, ondemand, until=plan.duration_s)
    deployment.run_shaped(plan.shapes[shape_name], plan.duration_s,
                          calls=plan.calls)
    bundle = telemetry.bundle(meta={"experiment": "dvfs",
                                    "shape": shape_name})
    bundle["dvfs"] = {"scorecards": [
        measure_proportionality("edison", scale=plan.scale("edison"),
                                dvfs=dvfs, seed=plan.seed,
                                calls=plan.calls).to_dict()
        for dvfs in (None, ondemand)]}
    path = artifacts.path("dvfs_dashboard.html")
    write_dashboard(bundle, str(path))
    assert path.stat().st_size > 0


# -- durability: the committed day --------------------------------------------


@pytest.fixture(scope="module")
def durability_day(artifacts):
    from repro.durability import DurabilityPlan, durability_experiment
    plan = DurabilityPlan.load(EXPERIMENTS / "durability_day.json")
    return run_report(durability_experiment(plan), artifacts,
                      "durability_report.json")


def test_durability_rack_aware_r2_is_the_edison_knee(durability_day):
    report = durability_day
    assert report.knee["edison"] == 2
    r2 = report.arm("edison", True, 2)
    assert r2.blocks_lost == 0 and not r2.job_failed
    r1 = report.arm("edison", True, 1)
    assert r1.loss_events >= 1, f"{r1.blocks_lost} block(s) gone"


def test_durability_ledger_closes(durability_day):
    report = durability_day
    every = (*report.arms, *report.controls)
    assert all(a.conservation_violations == 0 for a in every)
    assert all(a.duplicate_kills == a.zombies_started for a in every)
    repairing = [a for a in report.arms
                 if a.replication > 1 and not a.job_failed]
    assert all(a.repairs_completed > 0 for a in repairing)
    assert all(a.re_replication_j > 0 for a in repairing)


def test_durability_partitions_cost_reachability_not_uptime(durability_day):
    report = durability_day
    assert report.partition_downtime_clean
    fault_arms = [a for a in report.arms
                  if a.platform in {c.platform for c in report.controls}]
    assert all(a.unreachable_s > 0 for a in fault_arms) \
        and all(c.unreachable_s == 0 for c in report.controls)


# -- causality: tracing stays invisible, and its sums close -------------------

CAUSALITY_SEED = 20160901
CAUSALITY_JOB = "terasort-mini"


def causality_runs(trace):
    """An edison web level and a terasort-mini job, optionally traced."""
    from repro.carbon.jobspec import CARBON_JOB_KINDS
    from repro.mapreduce.runtime import JobRunner
    from repro.trace import Tracer
    from repro.web import WebServiceDeployment

    web_trace, job_trace = (Tracer(), Tracer()) if trace else (None, None)
    deployment = WebServiceDeployment("edison", "1/4", seed=CAUSALITY_SEED,
                                      trace=web_trace)
    level = deployment.run_level(24, duration=3.0, warmup=1.0)
    spec, config = CARBON_JOB_KINDS[CAUSALITY_JOB]("edison")
    runner = JobRunner("edison", 4, config=config, seed=CAUSALITY_SEED,
                       trace=job_trace)
    digests = {"web": asdict(level),
               "job": job_digest(runner.run(spec), "locality")}
    return digests, {"web": (web_trace, deployment.cluster),
                     CAUSALITY_JOB: (job_trace, runner.cluster)}


@pytest.fixture(scope="module")
def traced():
    return causality_runs(trace=True)


def test_causality_tracing_is_invisible(baseline, traced):
    untraced, _ = causality_runs(trace=False)
    baseline.check("causality", untraced)
    assert traced[0]["web"] == untraced["web"]
    assert traced[0]["job"] == untraced["job"]


@pytest.mark.parametrize("label", ["web", CAUSALITY_JOB])
def test_causality_energy_attribution_conserves(traced, label):
    import repro.causality as causality
    tracer, cluster = traced[1][label]
    idle = {server.name: server.spec.power.min_w
            for server in cluster.servers.values()}
    attribution = causality.attribute_energy(tracer.log, idle_w=idle)
    assert bool(attribution.nodes), "no per-node power counters"
    worst = max([0.0] + [acct.conservation_error_rel
                         for acct in attribution.nodes.values()])
    assert worst <= 1e-3, f"worst error {worst:.2e}"
    matched = True
    for name, acct in sorted(attribution.nodes.items()):
        metered = cluster.meter.node_energy_joules(name)
        if abs(acct.metered_j - metered) > 1e-9 * max(metered, 1.0):
            matched = False
    assert matched, "attribution integrals differ from the PowerMeter's"
    attributed = sum(acct.attributed_j
                     for acct in attribution.nodes.values())
    assert attributed > 0.0


def test_causality_table7_from_tree_structure():
    import repro.causality as causality
    from repro.trace import Tracer, delay_decomposition_from_trace
    from repro.web.deployment import measure_delay_decomposition
    tracer = Tracer()
    measured = measure_delay_decomposition("edison", 480, duration=2.0,
                                           warmup=0.5, trace=tracer)
    flat = delay_decomposition_from_trace(tracer.log, after=0.5)
    tree = causality.decomposition_from_critical_paths(tracer.log,
                                                       after=0.5)
    assert tree.requests == flat.requests
    agree = True
    for field, want in (("db_delay_s", measured.db_delay_s),
                        ("cache_delay_s", measured.cache_delay_s),
                        ("total_delay_s", measured.total_delay_s)):
        got = getattr(tree, field)
        if abs(got - want) > 0.01 * abs(want):
            agree = False
    assert agree, f"db {tree.db_delay_s * 1e3:.3f} vs " \
                  f"{measured.db_delay_s * 1e3:.3f} ms"


def test_causality_flame_outputs_are_non_empty(traced, artifacts):
    import repro.causality as causality
    forest = causality.build_forest(traced[1]["web"][0].log)
    stacks = causality.latency_stacks(forest)
    html_path = str(artifacts.path("causality_flame.html"))
    causality.write_flame_html(html_path, stacks, unit="µs",
                               title="latency flame: causality web run")
    collapsed_path = str(artifacts.path("causality_flame.txt"))
    causality.write_collapsed(collapsed_path, stacks)
    assert os.path.getsize(html_path) > 0 \
        and os.path.getsize(collapsed_path) > 0 and bool(stacks)
