"""The four benchmark workloads, each one cell of the paper's experiments.

Every cell builds a fresh simulated testbed from ``seed``, runs it, and
returns an :class:`Outcome`: the bit-exact result fields that make up
its digest, its correctness checks and its paper anchors.  ``tiny``
shrinks a cell for the self-tests; a tiny cell checks only that the run
completed, since the paper-shape bars need the full size.

Why these four (each loads a different simulator layer):

* ``web_edison_35`` - Figure 4: kernel, ``Topology.message``,
  ``Cpu.execute`` and the web tier; no YARN, no flows.
* ``web_dell_synflood`` - Figures 10/11: the same layers used the other
  way (SYN retry timers, give-ups, a growing backlog: the memory-heavy
  cell); guards the 1/3/7 s SYN-backoff spikes.
* ``mr_logcount_edison_4`` - Table 8: YARN ``allocate`` polling does
  nearly all the work; flows are nearly idle.
* ``mr_wordcount_edison_35`` - Table 8: max-min flow reallocation takes
  most host time; YARN is light.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

@dataclass
class Anchor:
    """One simulated quantity beside the paper's published value."""

    label: str
    simulated: float
    paper: float

    @property
    def err_pct(self) -> float:
        return abs(self.simulated - self.paper) / self.paper * 100.0


@dataclass
class Outcome:
    """What one run of a cell produced."""

    #: Every bit-exact result field; hashed into the fidelity digest.
    result: Dict
    #: (name, passed, detail) per correctness check.
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    perf: Anchor = None
    energy: Anchor = None
    #: Anchors borrowed from a neighbouring figure, stated in the output.
    note: str = ""

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append((name, bool(passed), detail))


# -- web cells ---------------------------------------------------------------

def web_edison_35(seed: int, tiny: bool = False) -> Outcome:
    """Figure 4: 35-node Edison layout, lightest mix, 1024 conn/s open loop.

    Poisson connection arrivals at 1024/s (the paper's highest level
    without 5xx errors), each making the tuned calls per connection,
    over 10 s simulated with the first second discarded.
    """
    from repro.core import paperdata as paper
    from repro.web import WebServiceDeployment

    concurrency = 1024
    duration, warmup = (1.5, 0.5) if tiny else (10.0, 1.0)
    deployment = WebServiceDeployment("edison", "full", seed=seed)
    for node in deployment.web_nodes:
        node.record_log_enabled = False
    level = deployment.run_level(concurrency, duration=duration,
                                 warmup=warmup)
    out = Outcome(result=dataclasses.asdict(level))
    out.check("completed", level.ok_calls > 0,
              f"{level.ok_calls} calls completed")
    if not tiny:
        out.check("no 5xx or timeouts",
                  level.error_calls == 0 and level.timeout_calls == 0,
                  f"{level.error_calls} 5xx, {level.timeout_calls} timeouts")
        rps = level.requests_per_second
        out.check("req/s within 12% of Figure 4",
                  abs(rps / paper.S51_PEAK_RPS_LIGHT - 1) <= 0.12,
                  f"{rps:.0f} req/s vs {paper.S51_PEAK_RPS_LIGHT:.0f}")
    # Throughput at the nominal offered rate: offered req/s times the
    # share of offered calls that completed.  Raw ok_calls/window also
    # carries the Poisson arrival count (about 1% per seed), which is
    # input noise, not model behaviour, and swamps a ~5% error.  Below
    # saturation the offered rate is configuration, so only the
    # completed share is model behaviour.
    offered = concurrency * level.calls_per_connection
    completed = level.ok_calls / max(1, level.connections
                                     * level.calls_per_connection)
    out.perf = Anchor("Figure 4 peak req/s at the nominal offered rate",
                      offered * completed, paper.S51_PEAK_RPS_LIGHT)
    out.note = (f"the offered rate ({concurrency} connections/s x "
                f"{level.calls_per_connection} tuned calls = {offered} "
                f"req/s) is configuration, so paper_err_pct moves only "
                f"when calls fail to complete")
    out.energy = Anchor("Figure 4 Edison cluster power W (56-58 W band)",
                        level.mean_power_w,
                        sum(paper.S51_EDISON_POWER_RANGE_W) / 2)
    return out


def _probe_histogram(delays: List[float]) -> Dict[float, int]:
    from repro.web import ProbeLog
    return dict(ProbeLog(delays_s=delays).histogram(bin_width_s=0.5,
                                                    max_s=8.0))


def web_dell_synflood(seed: int, tiny: bool = False) -> Outcome:
    """Figures 10/11: 2-web Dell layout under the urllib probe.

    6000 req/s Poisson, one fresh connection per request, 20% images,
    93% hits, over 8 s simulated with the first 2 s discarded.
    """
    from repro.core import paperdata as paper
    from repro.web import UrllibProbe, WebServiceDeployment, WebWorkload

    duration, warmup = (3.0, 1.0) if tiny else (8.0, 2.0)
    workload = WebWorkload(image_fraction=0.20, cache_hit_ratio=0.93)
    deployment = WebServiceDeployment("dell", "full", workload, seed=seed)
    for node in deployment.web_nodes:
        node.record_log_enabled = False
    probe = UrllibProbe(deployment, 6000.0, collect_after=warmup)
    probe.start(until=duration)
    deployment.meter.start(until=duration)
    deployment.sim.run(until=duration)
    log = probe.log
    power = [v for t, v in deployment.meter.series.pairs() if t >= warmup]
    result = {"delays_s": log.delays_s, "give_ups": log.give_ups,
              "power_w": power}
    out = Outcome(result=result)
    out.check("completed", len(log.delays_s) > 0,
              f"{len(log.delays_s)} delays collected")
    spike = paper.F11_DELAY_SPIKES_S[0]
    first = [d for d in log.delays_s if 0.9 * spike <= d < 2 * spike]
    if not tiny:
        hist = _probe_histogram(log.delays_s)
        near_one = hist.get(1.0, 0) + hist.get(0.5, 0)
        near_three = hist.get(3.0, 0) + hist.get(2.5, 0) + hist.get(3.5, 0)
        background = hist.get(2.0, 0) + hist.get(5.0, 0) + 1
        out.check("spikes near 1 s and 3 s",
                  near_one > 3 * background and near_three > 0,
                  f"{near_one} near 1 s, {near_three} near 3 s, "
                  f"background {background}")
        above = log.fraction_above(0.9)
        out.check("over 25% of delays above 0.9 s", above > 0.25,
                  f"{above:.1%}")
    out.note = ("Figures 10/11 publish no throughput or power figure; "
                "anchors used: the first SYN-backoff spike position "
                "(1 s; mostly the fixed SYN retry timer, so paper_err_pct "
                "moves only with the queueing delay on top of it) and the "
                "Figure 4/7 Dell power band midpoint")
    # No delay inside the spike window reads as a 100% error.
    out.perf = Anchor("Figure 11 first spike s (median delay in 0.9-2 s)",
                      statistics.median(first) if first else 0.0, spike)
    out.energy = Anchor("Figure 4/7 Dell cluster power W (170-200 W band)",
                        sum(power) / len(power) if power else 0.0,
                        sum(paper.S51_DELL_POWER_RANGE_W) / 2)
    return out


# -- MapReduce cells ---------------------------------------------------------

def _table8_cell(job: str, slaves: int, seed: int, tiny: bool,
                 time_bar: float = 0.0) -> Outcome:
    """One Table 8 cell on Edison; ``time_bar`` > 0 asserts the time."""
    from repro.core import paperdata as paper
    from repro.mapreduce import JOB_FACTORIES, JobRunner
    from repro.mapreduce import runtime

    spec, config = JOB_FACTORIES[job]("edison", slaves)
    if tiny:
        spec = dataclasses.replace(spec, map_tasks=8,
                                   reduce_tasks=min(spec.reduce_tasks, 2))
    # The job's task counters live on its private state object; keep a
    # handle to it (the capture runs once per job, not per event).
    states = []
    original = runtime._JobState.__init__

    def capture(self, *args, **kwargs):
        original(self, *args, **kwargs)
        states.append(self)

    runtime._JobState.__init__ = capture
    try:
        runner = JobRunner("edison", slaves, config=config, seed=seed)
        report = runner.run(spec)
    finally:
        runtime._JobState.__init__ = original
    state = states[-1]
    result = {"seconds": report.seconds, "joules": report.joules,
              "locality_fraction": report.locality_fraction,
              "maps_done": state.maps_done,
              "reduces_done": state.reduces_done}
    out = Outcome(result=result)
    out.check("every task completed",
              state.maps_done == spec.map_tasks
              and state.reduces_done == spec.reduce_tasks,
              f"{state.maps_done}/{spec.map_tasks} maps, "
              f"{state.reduces_done}/{spec.reduce_tasks} reduces")
    published = paper.T8[job]["edison"][slaves]
    if time_bar and not tiny:
        out.check(f"time within {time_bar:.0%} of Table 8",
                  abs(report.seconds / published.seconds - 1) <= time_bar,
                  f"{report.seconds:.1f} s vs {published.seconds} s")
    out.perf = Anchor(f"Table 8 {job} edison-{slaves} time s",
                      report.seconds, published.seconds)
    out.energy = Anchor(f"Table 8 {job} edison-{slaves} energy J",
                        report.joules, published.joules)
    return out


def mr_logcount_edison_4(seed: int, tiny: bool = False) -> Outcome:
    """Table 8 logcount on 4 Edison slaves (500 map containers)."""
    return _table8_cell("logcount", 4, seed, tiny)


def mr_wordcount_edison_35(seed: int, tiny: bool = False) -> Outcome:
    """Table 8 wordcount on 35 Edison slaves (a calibration anchor)."""
    return _table8_cell("wordcount", 35, seed, tiny, time_bar=0.10)


CELLS: Dict[str, Callable[[int, bool], Outcome]] = {
    "web_edison_35": web_edison_35,
    "web_dell_synflood": web_dell_synflood,
    "mr_logcount_edison_4": mr_logcount_edison_4,
    "mr_wordcount_edison_35": mr_wordcount_edison_35,
}
