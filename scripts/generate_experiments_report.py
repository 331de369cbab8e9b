"""Regenerate EXPERIMENTS.md: paper vs simulated for every table/figure.

Runs the entire evaluation (Section 4 micro-benchmarks, the Section 5.1
web sweeps, the full Table 8 MapReduce grid, and the Section 6 TCO
model) and writes the comparison document.  Takes ~10 minutes.

Run:  python scripts/generate_experiments_report.py [output.md]
"""

import sys
import time

from repro.cluster import Cluster
from repro.core import paperdata as paper
from repro.faults import job_kill_experiment, web_kill_experiment
from repro.hardware import DELL_R620, EDISON, make_server
from repro.core.capacity import replacement_estimate
from repro.mapreduce import TABLE8_JOBS, run_scaling_grid
from repro.mapreduce.scaling import efficiency_table
from repro.microbench import run_dhrystone, run_iperf, run_sysbench_memory
from repro.sim import Simulation
from repro.tco import savings_fraction, table10
from repro.web import (
    WebWorkload, delay_distribution, energy_efficiency_ratio,
    measure_delay_decomposition, sweep_concurrency,
)

WEB_DURATION = 3.0


def row(label, paper_value, measured, unit=""):
    if paper_value:
        err = f"{(measured - paper_value) / paper_value * 100:+.1f}%"
    else:
        err = "n/a"
    return f"| {label} | {paper_value:g}{unit} | {measured:g}{unit} | {err} |"


def header(title):
    return [f"\n## {title}\n",
            "| experiment | paper | simulated | error |",
            "|---|---|---|---|"]


def section4(lines):
    lines += header("Section 4 — individual server tests")
    sim = Simulation()
    dmips_e = run_dhrystone(sim, make_server(sim, EDISON, "e")).dmips
    sim = Simulation()
    dmips_d = run_dhrystone(sim, make_server(sim, DELL_R620, "d")).dmips
    lines.append(row("Dhrystone Edison (DMIPS)", paper.S41_EDISON_DMIPS,
                     round(dmips_e, 1)))
    lines.append(row("Dhrystone Dell (DMIPS)", paper.S41_DELL_DMIPS,
                     round(dmips_d, 1)))
    estimate = replacement_estimate(EDISON, DELL_R620)
    lines.append(row("Table 2: Edisons per Dell", paper.T2_EDISONS_PER_DELL,
                     estimate.required))
    sim = Simulation()
    mem_e = run_sysbench_memory(sim, make_server(sim, EDISON, "e"),
                                1 << 20, 2).rate_bps
    sim = Simulation()
    mem_d = run_sysbench_memory(sim, make_server(sim, DELL_R620, "d"),
                                1 << 20, 12).rate_bps
    lines.append(row("S4.2 Edison mem BW (GB/s)",
                     paper.S42_EDISON_MEM_BW / 1e9, round(mem_e / 1e9, 2)))
    lines.append(row("S4.2 Dell mem BW (GB/s)", paper.S42_DELL_MEM_BW / 1e9,
                     round(mem_d / 1e9, 2)))
    for pair, spec_a, spec_b in ((("dell", "dell"), DELL_R620, DELL_R620),
                                 (("edison", "edison"), EDISON, EDISON)):
        sim = Simulation()
        cluster = Cluster(sim)
        cluster.add(spec_a, "a")
        cluster.add(spec_b, "b")
        tcp = run_iperf(sim, cluster.topology, "a", "b",
                        nbytes=250e6).goodput_bps
        lines.append(row(f"S4.4 TCP {pair[0]}-{pair[1]} (Mb/s)",
                         paper.S44_TCP_BPS[pair] / 1e6, round(tcp / 1e6, 1)))


def section51(lines):
    lines += header("Section 5.1 — web service (Figures 4-11, Table 7)")
    light_e = sweep_concurrency("edison", "full", duration=WEB_DURATION)
    light_d = sweep_concurrency("dell", "full", duration=WEB_DURATION)
    lines.append(row("Fig 4 Edison peak req/s", paper.S51_PEAK_RPS_LIGHT,
                     round(light_e.peak_rps())))
    lines.append(row("Fig 4 Dell peak req/s", paper.S51_PEAK_RPS_LIGHT,
                     round(light_d.peak_rps())))
    lines.append(row("Fig 4 Edison power (W)", 57.0,
                     round(light_e.mean_power_at_peak(), 1)))
    lines.append(row("Fig 4 Dell power (W)", 185.0,
                     round(light_d.mean_power_at_peak(), 1)))
    lines.append(row("Fig 4 requests/joule gain",
                     paper.S51_ENERGY_EFFICIENCY_RATIO,
                     round(energy_efficiency_ratio(light_e, light_d), 2)))
    lines.append(row("Fig 4 Edison max clean conn/s",
                     paper.S51_EDISON_MAX_CONCURRENCY,
                     light_e.max_clean_concurrency()))
    lines.append(row("Fig 4 Dell max clean conn/s",
                     paper.S51_DELL_MAX_CONCURRENCY,
                     light_d.max_clean_concurrency()))
    heavy = WebWorkload(image_fraction=0.20, cache_hit_ratio=0.93)
    heavy_e = sweep_concurrency("edison", "full", heavy,
                                duration=WEB_DURATION)
    heavy_d = sweep_concurrency("dell", "full", heavy, duration=WEB_DURATION)
    lines.append(row("Fig 6 heavy/light peak ratio",
                     paper.S51_HEAVY_TO_LIGHT_RPS,
                     round(heavy_e.peak_rps() / paper.S51_PEAK_RPS_LIGHT, 3)))
    lines.append(row("Fig 6 requests/joule gain",
                     paper.S51_ENERGY_EFFICIENCY_RATIO,
                     round(energy_efficiency_ratio(heavy_e, heavy_d), 2)))
    for rate, db, cache, total in paper.T7_ROWS:
        e = measure_delay_decomposition("edison", rate,
                                        duration=WEB_DURATION, warmup=1.0)
        d = measure_delay_decomposition("dell", rate, duration=WEB_DURATION,
                                        warmup=1.0)
        lines.append(row(f"T7@{rate} Edison total (ms)", total[0],
                         round(e.total_delay_s * 1e3, 2)))
        lines.append(row(f"T7@{rate} Dell total (ms)", total[1],
                         round(d.total_delay_s * 1e3, 2)))
    hist_d = delay_distribution("dell", duration=6.0, warmup=2.0)
    hist_e = delay_distribution("edison", duration=6.0, warmup=2.0)
    lines.append(row("Fig 11 Dell mass above 0.9s (%)", 30.0,
                     round(hist_d.fraction_above(0.9) * 100, 1)))
    lines.append(row("Fig 10 Edison mass above 0.9s (%)", 1.0,
                     round(hist_e.fraction_above(0.9) * 100, 1)))


def section52(lines):
    lines += header("Section 5.2/5.3 — MapReduce (Table 8, Figures 18-19)")
    edison = run_scaling_grid("edison")
    dell = run_scaling_grid("dell")
    for job in TABLE8_JOBS:
        for platform, grid in (("edison", edison), ("dell", dell)):
            for size, report in sorted(grid.reports[job].items(),
                                       reverse=True):
                published = paper.T8[job][platform][size]
                lines.append(row(f"{job} {platform}-{size} time (s)",
                                 published.seconds, round(report.seconds)))
                lines.append(row(f"{job} {platform}-{size} energy (J)",
                                 published.joules, round(report.joules)))
    for job, (simulated, published) in efficiency_table(edison, dell).items():
        lines.append(row(f"{job} full-scale WDPJ gain", round(published, 3),
                         round(simulated, 3)))
    lines.append(row("S5.3 Edison mean speed-up",
                     paper.S53_EDISON_MEAN_SPEEDUP,
                     round(edison.mean_speedup(), 2)))
    lines.append(row("S5.3 Dell mean speed-up", paper.S53_DELL_MEAN_SPEEDUP,
                     round(dell.mean_speedup(), 2)))


def section_tracing(lines):
    lines.append("\n## Tracing & profiling a run\n")
    lines.append('''Any of the runs above can be captured as a structured trace and
inspected span-by-span.  To record a Figure-12-style wordcount run
(map/reduce attempts, shuffles, container grants, vcore queueing and
the power-meter track on one timeline):

```bash
python -m repro job wordcount --platform edison --slaves 4 --trace fig12.json
```

then open `fig12.json` in [Perfetto](https://ui.perfetto.dev) (or
`chrome://tracing`): each simulated node is a named thread track;
`task` spans show map/reduce attempts and shuffles, `resource` spans
show vcore/disk queueing, and the `power` counter track is the meter
trace whose integral is the reported energy.  The same flag works for
the web tier (`python -m repro web ... --trace web.json`), producing
per-request connect/cache/db/request spans.

The trace is also a correctness oracle: `tests/test_trace.py`
re-derives the Table 7 delay decomposition from the web spans alone and
holds it to within 1 % of the call-log numbers, and asserts traced and
untraced runs produce bit-identical results.''')


def section_faults(lines):
    lines.append("\n## Reliability & fault injection\n")
    lines.append('''The paper's Section 5.2 chose HDFS replication 2 on the 35-node
Edison cluster because sensor-class nodes drop out routinely; the
implicit claim is that losing one node is a *marginal* event.
`repro.faults` makes that claim measurable: a seeded fault plan kills
nodes, cuts their power, degrades NICs or fails disks mid-run, the
YARN/HDFS/web layers detect and recover, and the chaos runs below
compare against bit-identical fault-free twins (an attached injector
with an empty plan changes nothing — asserted by tests, like tracing).

```bash
python -m repro chaos web --platform edison --concurrency 2048
python -m repro chaos job wordcount --platform edison --slaves 35 --kill-at 150
python -m repro web --platform edison --fault-plan plan.json
```
''')
    lines.append("| experiment | measured |")
    lines.append("|---|---|")
    web = web_kill_experiment(concurrency=2048, duration=4.0, warmup=1.0,
                              kill_at=0.0)
    dell = web_kill_experiment(platform="dell", concurrency=2048,
                               duration=4.0, warmup=1.0, kill_at=0.0)
    job = job_kill_experiment("wordcount", "edison", 35, kill_at=150.0)
    lines.append(f"| kill 1 of {web.web_servers} Edison web servers: "
                 f"goodput lost | {web.goodput_loss_fraction * 100:.1f} % "
                 f"(capacity share {web.expected_loss_fraction * 100:.1f} %)"
                 f" |")
    lines.append(f"| kill 1 of {dell.web_servers} Dell web servers: "
                 f"goodput lost | {dell.goodput_loss_fraction * 100:.1f} % |")
    status = "completes" if job.completed else "fails"
    lines.append(f"| kill 1 of 35 Hadoop slaves at 150 s: wordcount | "
                 f"{status}, +{job.time_overhead_fraction * 100:.0f} % time, "
                 f"+{job.energy_overhead_fraction * 100:.0f} % energy |")
    lines.append(f"| map outputs lost and re-executed | "
                 f"{job.recovered_maps} |")
    lines.append('''
The contrast is the reliability argument in one table: at saturation
the 24-server Edison web tier sheds ~1/24 of its goodput when a node
dies — close to the 1/35 marginal-node share — while the 2-server
Dell tier loses half its capacity.  The killed Hadoop slave costs a
re-execution and replica-fallback overhead, not the job; a job fails
cleanly only when *every* replica of a block is gone.''')


def section6(lines):
    lines += header("Section 6 — TCO (Table 10)")
    results = table10()
    for key, values in results.items():
        published = paper.T10[key]
        lines.append(row(f"TCO {key[0]}/{key[1]} Dell ($)",
                         published["dell"], round(values["dell"], 1)))
        lines.append(row(f"TCO {key[0]}/{key[1]} Edison ($)",
                         published["edison"], round(values["edison"], 1)))
    best = max(savings_fraction(v) for v in results.values())
    lines.append(row("best Edison savings (%)", 47.0, round(best * 100, 1)))


PREAMBLE = '''# EXPERIMENTS — paper vs simulated, every table and figure

Generated by `python scripts/generate_experiments_report.py`.

Full-scale MapReduce cells (35 Edison / 2 Dell) and the per-platform
hardware capacities are **calibration anchors** (fitted; see
`src/repro/mapreduce/costs.py`); everything else — scaled-down cluster
sizes, web sweeps, delay decompositions, TCO — is a **prediction** of
the simulator under the calibrated hardware models.

Known deviations (and why they are accepted):

* The scaled-down MapReduce cells (17/8/4 Edison nodes, 1 Dell node)
  miss the paper in both directions.  Where the paper degrades
  *superlinearly* the simulator under-predicts, by up to 57 %
  (terasort dell-1 -57.2 %, wordcount edison-17 -48.0 %); the paper
  itself attributes such cells to memory pressure and disk-seek thrash
  at saturation, neither of which the fluid models capture.  The
  optimized logcount2 goes the other way: its small Edison clusters
  are over-predicted, by up to 72 % (edison-4 +71.6 %, edison-8
  +49.6 %).  The qualitative ordering (smaller cluster -> slower,
  sometimes cheaper in energy) is preserved.
* Table 7 Edison total delay at intermediate rates (1920-3840 req/s)
  is 84-87 % below the paper's measurement: the simulated total stays
  near 13-15 ms where the paper's climbs to 83-115 ms.
  The blow-up at the top rate appears (77 ms at 7680 req/s) but is
  still 66 % short.  The paper's own mid-rate growth starts at ~25 %
  cluster utilisation, which no open queueing model reproduces without
  an additional contention source.
* Table 7 Dell total delay is over-predicted by 38-64 % at four of its
  five rates (480-3840 req/s): the simulated tier stays at 2.3-2.5 ms
  where the paper measured 1.4-1.7 ms.  Only the top rate lands close
  (-5.5 %).
* Dell MapReduce energies sit below the paper in 10 of 12 cells, by up
  to 57 % (terasort dell-1); wordcount and wordcount2 on one Dell are
  23 % and 10 % above.  The Section 5.3 mean speed-ups come out at
  1.70 for Edison (paper 1.90, -10.5 %) and 1.65 for Dell (paper 2.07,
  -20.3 %): the paper's terasort and logcount slow down 4.0x and 2.5x
  going from two Dells to one, the simulator's 1.8x and 1.9x.
  Who-wins per job is unaffected.
'''


def main() -> None:
    output = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    start = time.time()
    lines = [PREAMBLE]
    section4(lines)
    section51(lines)
    section52(lines)
    section_tracing(lines)
    section_faults(lines)
    section6(lines)
    lines.append(f"\n*(regenerated in {time.time() - start:.0f} s of "
                 f"wall-clock simulation)*")
    with open(output, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {output} in {time.time() - start:.0f}s")


if __name__ == "__main__":
    main()
