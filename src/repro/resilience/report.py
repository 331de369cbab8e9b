"""The resilience energy tax: what surviving gray failures costs.

Two paired experiments run one committed, seeded :class:`GrayPlan` twice —
once with every mitigation off (the historical, bit-identical path) and
once with a :class:`~repro.resilience.ResilienceConfig` armed — and
report both arms side by side:

* :func:`web_resilience_experiment` — a throttled/lossy/crashing web
  tier under steady load.  The unmitigated arm piles calls onto the
  limping backends (slow 200s, 500 cliffs, dead connections); the
  mitigated arm routes around them with breakers, retries, hedges and
  admission control, and the ledger meters every joule those
  mitigations burn.
* :func:`job_resilience_experiment` — a MapReduce job with straggling
  and crashing slaves.  The unmitigated arm waits out every straggler
  and re-runs crashed attempts from scratch; the mitigated arm
  speculates around them (LATE) and backs its retries off.

The punchline mirrors the paper's own currency: work-done-per-joule,
now measured *under failure* — with the mitigation waste (killed
speculative twins, losing hedge legs, shed replies) broken out so the
tax is visible, not hidden inside the total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional

from ..core.records import Record
from ..faults.models import FaultPlan
from .config import ResilienceConfig

#: The web experiment: the 1/4-scale Edison tier under 24 new
#: connections/s for 30 s after a 1 s warm-up.
PLATFORM = "edison"
WEB_SCALE = "1/4"
WEB_CONCURRENCY = 24
WEB_DURATION_S = 30.0
WEB_WARMUP_S = 1.0

#: The job experiment: single-wave optimized wordcount on 8 Edison
#: slaves; an arm still running at the deadline counts as failed.
JOB = "wordcount2"
JOB_SLAVES = 8
JOB_DEADLINE_S = 100_000.0


@dataclass(frozen=True)
class GrayPlan(Record):
    """The committed gray-failure experiment
    (``experiments/gray_failures.json``): one seed and one fault plan
    per workload, node names as the Edison testbed spells them.

    ``web`` needs five web servers: three get thermally throttled to
    8 % of nominal DMIPS, one gets 30 % packet loss, and one crashes
    outright (repaired after 8 s) — every failure mode is *gray* except
    the one clean crash, which exercises detection-based failover next
    to the mitigation-based kind.

    ``job`` drops one slave to 8 % DMIPS *permanently* — a stuck
    P-state or a failed fan, the canonical gray failure: the
    NodeManager still heartbeats, so nothing evicts it, and on a
    single-wave job every map it holds becomes an unbounded straggler.
    A second slave throttles more mildly for ~6 minutes (a passing
    thermal event), and a third crashes mid-map and comes back — so the
    unmitigated run both *fails task attempts* (the crash) and waits on
    the limping node for most of its makespan, burning idle watts on
    every healthy slave meanwhile.
    """

    seed: int
    web: FaultPlan
    job: FaultPlan


# -- the two-arm report --------------------------------------------------


@dataclass(frozen=True)
class ResilienceArm(Record):
    """One arm (mitigated or unmitigated) of a paired gray-failure run."""

    json_tail = ("work_per_joule", "counters", "waste_joules")

    label: str
    completed: bool
    #: Successful calls (web) or jobs finished (MapReduce).
    work_done: float
    seconds: float
    joules: float
    errors: int = 0
    client_failures: int = 0
    task_failures: int = 0
    p95_s: Optional[float] = None
    availability: Optional[float] = None
    availability_met: Optional[bool] = None
    latency_met: Optional[bool] = None
    #: Ledger counters (mitigated arm only; empty when unmitigated).
    counters: Mapping[str, int] = field(default_factory=dict)
    #: Ledger waste joules per category (speculation/hedge/shed/retry).
    waste_joules: Mapping[str, float] = field(default_factory=dict)

    @property
    def work_per_joule(self) -> float:
        """The paper's currency, measured under failure."""
        if self.joules <= 0:
            return 0.0
        return self.work_done / self.joules

    @property
    def total_waste_joules(self) -> float:
        return sum(self.waste_joules.values())


@dataclass(frozen=True)
class ResilienceTaxReport(Record):
    """Mitigated vs unmitigated under one seeded gray-failure plan."""

    json_tail = ("energy_overhead_fraction", "waste_fraction",
                 "work_per_joule_ratio")

    kind: str                   # "web" or "job"
    platform: str
    detail: str                 # scale / job name, for display
    unmitigated: ResilienceArm
    mitigated: ResilienceArm

    @property
    def energy_overhead_fraction(self) -> float:
        """Total joules of the mitigated arm relative to unmitigated."""
        if self.unmitigated.joules <= 0:
            return 0.0
        return self.mitigated.joules / self.unmitigated.joules - 1.0

    @property
    def waste_fraction(self) -> float:
        """Share of the mitigated arm's joules burned by mitigation."""
        if self.mitigated.joules <= 0:
            return 0.0
        return self.mitigated.total_waste_joules / self.mitigated.joules

    @property
    def work_per_joule_ratio(self) -> float:
        """>1: mitigation pays for itself even in the paper's currency."""
        base = self.unmitigated.work_per_joule
        if base <= 0:
            return float("inf") if self.mitigated.work_per_joule > 0 else 1.0
        return self.mitigated.work_per_joule / base

    def lines(self) -> List[str]:
        """The mitigated-vs-unmitigated table, CLI/docs-ready."""
        unit = "ok calls" if self.kind == "web" else "jobs"
        out = [f"Resilience energy tax — {self.kind} "
               f"({self.platform}, {self.detail})"]
        header = (f"  {'':24s} {'unmitigated':>14s} {'mitigated':>14s}")
        out.append(header)

        def row(name, a, b):
            out.append(f"  {name:24s} {a:>14s} {b:>14s}")

        u, m = self.unmitigated, self.mitigated
        row("completed", str(u.completed), str(m.completed))
        row(f"work done ({unit})", f"{u.work_done:.0f}", f"{m.work_done:.0f}")
        row("errors", str(u.errors), str(m.errors))
        if self.kind == "web":
            row("client failures", str(u.client_failures),
                str(m.client_failures))

            def fmt_p95(arm):
                return ("n/a" if arm.p95_s is None
                        else f"{arm.p95_s * 1000:.0f} ms")
            row("p95 delay", fmt_p95(u), fmt_p95(m))

            def fmt_avail(arm):
                if arm.availability is None:
                    return "n/a"
                verdict = "met" if arm.availability_met else "MISSED"
                return f"{arm.availability:.4%} {verdict}"
            row("availability SLO", fmt_avail(u), fmt_avail(m))
        else:
            row("failed task attempts", str(u.task_failures),
                str(m.task_failures))
            row("makespan", f"{u.seconds:.0f} s", f"{m.seconds:.0f} s")
        row("energy", f"{u.joules:.0f} J", f"{m.joules:.0f} J")
        row("work per kilojoule", f"{u.work_per_joule * 1000:.2f}",
            f"{m.work_per_joule * 1000:.2f}")
        out.append(f"  mitigation waste: {m.total_waste_joules:.1f} J "
                   f"({self.waste_fraction:.1%} of mitigated energy)")
        for category, joules in sorted(m.waste_joules.items()):
            if joules > 0:
                out.append(f"    {category}: {joules:.1f} J")
        interesting = {k: v for k, v in m.counters.items() if v}
        if interesting:
            out.append("  mitigation activity: " + ", ".join(
                f"{k}={v}" for k, v in sorted(interesting.items())))
        out.append(f"  energy overhead: "
                   f"{self.energy_overhead_fraction:+.1%}; "
                   f"work/joule ratio: {self.work_per_joule_ratio:.2f}x")
        return out


# -- web experiment ------------------------------------------------------


def web_resilience_experiment(plan: GrayPlan,
                              trace=None) -> ResilienceTaxReport:
    """Run the plan's web faults twice and report the tax.

    Both arms share the seed, the faults and the offered load; the only
    difference is the stock :class:`ResilienceConfig`.  Telemetry rides
    along on each arm for the SLO verdicts (its attachment is
    bit-neutral).
    """
    from ..telemetry import Telemetry     # deferred: import cycle
    from ..web import WebServiceDeployment

    def arm(label: str, resilience: Optional[ResilienceConfig]):
        deployment = WebServiceDeployment(PLATFORM, WEB_SCALE,
                                          seed=plan.seed,
                                          resilience=resilience,
                                          trace=trace)
        telemetry = Telemetry()
        telemetry.attach_web(deployment, until=WEB_DURATION_S)
        deployment.attach_faults(plan.web)
        level = deployment.run_level(WEB_CONCURRENCY,
                                     duration=WEB_DURATION_S,
                                     warmup=WEB_WARMUP_S,
                                     collect_delays=True)
        slo = telemetry.slo_report()
        ledger = deployment.resilience_ledger
        return ResilienceArm(
            label=label, completed=True,
            work_done=float(level.ok_calls),
            seconds=level.window_s, joules=level.energy_joules,
            errors=level.error_calls + level.failed_connections,
            client_failures=slo.client_failures,
            p95_s=slo.p95_s, availability=slo.availability,
            availability_met=slo.availability_met,
            latency_met=slo.latency_met,
            counters=dict(ledger.counters) if ledger is not None else {},
            waste_joules=(dict(ledger.waste_joules)
                          if ledger is not None else {}))

    unmitigated = arm("unmitigated", None)
    mitigated = arm("mitigated", ResilienceConfig())
    return ResilienceTaxReport(kind="web", platform=PLATFORM,
                               detail=f"scale {WEB_SCALE}, "
                                      f"{WEB_CONCURRENCY} conn/s",
                               unmitigated=unmitigated,
                               mitigated=mitigated)


# -- MapReduce experiment ------------------------------------------------


def job_resilience_experiment(plan: GrayPlan,
                              trace=None) -> ResilienceTaxReport:
    """Run one Table 8 job under the plan's job faults, with and
    without LATE."""
    from ..faults import FaultInjector    # deferred: import cycle
    from ..mapreduce import JOB_FACTORIES, JobRunner
    from ..mapreduce.runtime import JobFailed

    def arm(label: str, resilience: Optional[ResilienceConfig]):
        spec, hadoop_config = JOB_FACTORIES[JOB](PLATFORM, JOB_SLAVES)
        runner = JobRunner(PLATFORM, JOB_SLAVES, config=hadoop_config,
                           seed=plan.seed, resilience=resilience,
                           trace=trace)
        FaultInjector(runner.cluster, plan.job)
        completed = True
        report = None
        try:
            report = runner.run(spec, deadline_s=JOB_DEADLINE_S)
        except JobFailed:
            completed = False
        ledger = runner.resilience_ledger
        return ResilienceArm(
            label=label, completed=completed,
            work_done=1.0 if completed else 0.0,
            seconds=(report.seconds if report is not None
                     else JOB_DEADLINE_S),
            joules=report.joules if report is not None else 0.0,
            task_failures=runner.state.failed_attempts,
            counters=dict(ledger.counters) if ledger is not None else {},
            waste_joules=(dict(ledger.waste_joules)
                          if ledger is not None else {}))

    unmitigated = arm("unmitigated", None)
    mitigated = arm("mitigated", ResilienceConfig())
    return ResilienceTaxReport(kind="job", platform=PLATFORM,
                               detail=f"{JOB}, {JOB_SLAVES} slaves",
                               unmitigated=unmitigated,
                               mitigated=mitigated)
