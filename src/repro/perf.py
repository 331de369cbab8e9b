"""Kernel-scale performance harness: measured sweeps with fidelity digests.

The ROADMAP's north star is a simulator that "runs as fast as the
hardware allows" and scales past the paper's 35-node ceiling, the way
SBC-cluster follow-ups evaluate 20+-node deployments end to end.  This
module is the measurement side of that promise: it drives the web tier
at 35/70/140/280 total nodes and Terasort across a slave ladder,
recording three things per cell:

* **wall-clock** and **events/second** — the optimisation target,
* **heap peak** — the event-calendar footprint, and
* a **fidelity digest** — every observable result field, bit-exact.

The digest is the contract that performance work must not buy speed
with behaviour: an optimised kernel run is only accepted when its
digest equals the unoptimised kernel's digest float-for-float (same
seeds, same Table 7 decomposition, same web delay stats, same
MapReduce job outputs).  ``scripts/run_perf_baseline.py`` records the
pre/post phases into ``BENCH_kernel_scale.json``;
``benchmarks/bench_kernel_scale.py`` re-asserts the invariants.
"""

from __future__ import annotations

import platform as _platform
import sys
import time
from dataclasses import asdict, dataclass
from typing import Dict, Tuple

from .core.records import Record

#: One web cell per total node count: (total, "<web>x<cache>" layout,
#: httperf concurrency).  24 web + 11 cache is the paper's full Edison
#: layout (35 nodes); larger cells scale both roles proportionally and
#: offer ~4 concurrent connections per web server.
WEB_LADDER: Tuple[Tuple[int, str, int], ...] = (
    (35, "24x11", 96),
    (70, "48x22", 192),
    (140, "96x44", 384),
    (280, "192x88", 768),
)

#: The 70-node cell carries the headline ">= 1.5x events/sec" bar.
HEADLINE_NODES = 35 * 2

#: Terasort slave-count ladder (Edison platform).
TERASORT_LADDER: Tuple[int, ...] = (4, 8, 17)

#: Table 7 delay-decomposition cells: (platform, offered rate req/s).
TABLE7_CELLS: Tuple[Tuple[str, int], ...] = (
    ("edison", 480), ("edison", 7680), ("dell", 480), ("dell", 7680),
)

WEB_DURATION = 2.0
WEB_WARMUP = 0.5
SEED = 20160901


@dataclass(frozen=True)
class PerfSample(Record):
    """One measured cell: speed numbers plus its fidelity digest."""

    wall_s: float
    scheduled: int
    processed: int
    events_per_s: float
    heap_peak: int
    digest: Dict


def _sample(sim, wall_s: float, digest: Dict) -> PerfSample:
    stats = sim.calendar_stats()
    return PerfSample(
        wall_s=wall_s,
        scheduled=stats["scheduled"],
        processed=stats["processed"],
        events_per_s=stats["processed"] / wall_s if wall_s > 0 else 0.0,
        heap_peak=stats["heap_peak"],
        digest=digest,
    )


# -- the measured workloads ---------------------------------------------------

def measure_web_level(scale: str, concurrency: int,
                      duration: float = WEB_DURATION,
                      warmup: float = WEB_WARMUP,
                      seed: int = SEED, trace=None) -> PerfSample:
    """One web concurrency level on an Edison layout; digest = LevelResult."""
    from .web import WebServiceDeployment
    deployment = WebServiceDeployment("edison", scale, seed=seed, trace=trace)
    for node in deployment.web_nodes:
        node.record_log_enabled = False
    t0 = time.perf_counter()
    result = deployment.run_level(concurrency, duration=duration,
                                  warmup=warmup)
    wall = time.perf_counter() - t0
    return _sample(deployment.sim, wall, asdict(result))


def measure_table7_cell(platform: str, rate: int,
                        duration: float = WEB_DURATION,
                        warmup: float = WEB_WARMUP,
                        seed: int = SEED) -> PerfSample:
    """One Table 7 row; digest = the exact delay decomposition."""
    from .web.deployment import delay_decomposition, run_table7_level
    t0 = time.perf_counter()
    deployment = run_table7_level(platform, rate, duration=duration,
                                  warmup=warmup, seed=seed)
    decomp = delay_decomposition(deployment, rate, warmup)
    wall = time.perf_counter() - t0
    return _sample(deployment.sim, wall, asdict(decomp))


def measure_terasort(slaves: int, seed: int = SEED) -> PerfSample:
    """One Terasort run on ``slaves`` Edison nodes; digest = job outputs."""
    from .mapreduce.jobs.terasort import terasort_job
    from .mapreduce.runtime import JobRunner
    spec, config = terasort_job("edison", slaves)
    runner = JobRunner("edison", slaves, config=config, seed=seed)
    t0 = time.perf_counter()
    report = runner.run(spec)
    wall = time.perf_counter() - t0
    digest = {"seconds": report.seconds, "joules": report.joules,
              "locality_fraction": report.locality_fraction}
    return _sample(runner.sim, wall, digest)


# -- suite --------------------------------------------------------------------

def run_suite(quick: bool = False, emit=None) -> Dict:
    """Run every cell (or the quick subset) and bundle the samples.

    Quick mode keeps one cell per workload *with identical parameters*
    to the full suite, so its numbers remain comparable against a full
    committed baseline.
    """
    def say(text: str) -> None:
        if emit is not None:
            emit(text)

    web_ladder = [c for c in WEB_LADDER if not quick
                  or c[0] == HEADLINE_NODES]
    terasort_ladder = TERASORT_LADDER[:1] if quick else TERASORT_LADDER
    table7_cells = TABLE7_CELLS[:1] if quick else TABLE7_CELLS

    bundle: Dict = {"web_scale": {}, "table7": {}, "terasort": {}}
    for total, scale, concurrency in web_ladder:
        sample = measure_web_level(scale, concurrency)
        bundle["web_scale"][str(total)] = {
            "scale": scale, "concurrency": concurrency,
            **sample.to_dict()}
        say(f"web {total:>3} nodes ({scale}): "
            f"{sample.events_per_s:,.0f} events/s, "
            f"heap peak {sample.heap_peak}, {sample.wall_s:.2f}s wall")
    for platform, rate in table7_cells:
        sample = measure_table7_cell(platform, rate)
        bundle["table7"][f"{platform}@{rate}"] = sample.to_dict()
        say(f"table7 {platform}@{rate}: {sample.events_per_s:,.0f} "
            f"events/s, {sample.wall_s:.2f}s wall")
    for slaves in terasort_ladder:
        sample = measure_terasort(slaves)
        bundle["terasort"][str(slaves)] = sample.to_dict()
        say(f"terasort {slaves} slaves: {sample.events_per_s:,.0f} events/s, "
            f"{sample.wall_s:.2f}s wall")
    return bundle


def host_info() -> Dict:
    return {"python": sys.version.split()[0],
            "implementation": _platform.python_implementation(),
            "machine": _platform.machine(),
            "system": _platform.system()}


# -- digests and comparison ---------------------------------------------------

def fidelity_digest(bundle: Dict) -> Dict:
    """The behaviour-only view of a bundle (no timings, no footprints)."""
    return {section: {cell: data["digest"]
                      for cell, data in bundle.get(section, {}).items()}
            for section in ("web_scale", "table7", "terasort")}


def digest_mismatches(old: Dict, new: Dict) -> list:
    """Cells present in both digests whose values differ (bit-exact)."""
    mismatches = []
    for section, cells in fidelity_digest(old).items():
        new_cells = fidelity_digest(new).get(section, {})
        for cell, digest in cells.items():
            if cell in new_cells and new_cells[cell] != digest:
                mismatches.append(f"{section}/{cell}")
    return mismatches


def event_regressions(old: Dict, new: Dict) -> list:
    """Cells whose digest matches ``old`` but that processed more events.

    Event counts are deterministic, so on a cell whose simulated result
    is bit-identical they can only grow through a simulator change.  A
    cell whose digest differs (another host or libm) is not compared.
    """
    regressions = []
    for section in ("web_scale", "table7", "terasort"):
        new_cells = new.get(section, {})
        for cell, data in old.get(section, {}).items():
            after = new_cells.get(cell)
            if (after is not None and after["digest"] == data["digest"]
                    and after["processed"] > data["processed"]):
                regressions.append(f"{section}/{cell}: {data['processed']}"
                                   f" -> {after['processed']} events")
    return regressions


def speedup_report(pre: Dict, post: Dict) -> Dict:
    """events/sec and wall-clock ratios for cells present in both phases."""
    report: Dict = {}
    for section in ("web_scale", "terasort"):
        for cell, data in pre.get(section, {}).items():
            after = post.get(section, {}).get(cell)
            if after is None or not data.get("events_per_s"):
                continue
            report[f"{section}/{cell}"] = {
                "events_per_s_ratio":
                    after["events_per_s"] / data["events_per_s"],
                "wall_s_ratio": data["wall_s"] / after["wall_s"]
                    if after["wall_s"] > 0 else 0.0,
                "heap_peak_ratio": after["heap_peak"] / data["heap_peak"]
                    if data.get("heap_peak") else 0.0,
            }
    for cell, data in pre.get("table7", {}).items():
        after = post.get("table7", {}).get(cell)
        if after is not None and after.get("wall_s"):
            report[f"table7/{cell}"] = {
                "wall_s_ratio": data["wall_s"] / after["wall_s"]}
    return report
