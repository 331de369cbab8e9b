"""Which simulator entry points the traced run wraps, and what it reports.

Each layer is named after the ``repro`` module it times.  ``sim`` is
the root span (``Simulation.run``): its self time is the event kernel
plus any model code that runs outside a wrapped entry point.

Which end-to-end metric each layer should move, and where:

* ``sim`` - ``host_s`` on web_edison_35 and mr_logcount_edison_4
  (``sim.us_per_event`` is diagnostic: an event diet raises it).
* ``net.message`` - ``host_s`` on both web workloads; not on mr_*.
* ``net.flows`` - ``host_s`` on mr_wordcount_edison_35 only.
* ``hardware.cpu`` - ``host_s`` on web_edison_35 (immediate grants) and
  mr_logcount_edison_4 (ResourceManager rounds on the master CPU).
* ``hardware.storage`` and ``mapreduce.hdfs`` - ``host_s`` on mr_*;
  HDFS staging also ``setup_s``.
* ``web`` and ``web.driver`` - ``host_s`` on the web workloads;
  ``web.accept_refused_frac`` guards web_dell_synflood.
* ``mapreduce.yarn`` - ``host_s`` on mr_logcount_edison_4, a little on
  mr_wordcount_edison_35, not on the web workloads.
* ``energy.meter`` - ``host_s`` everywhere, by a small amount.
* ``cluster`` - ``setup_s``.
"""

from __future__ import annotations

from typing import Dict

from layertrace import LayerStats, LayerTrace

#: Layers whose self-time share the traced run reports, in table order.
SHARE_LAYERS = ("sim", "net.message", "net.flows", "hardware.cpu",
                "hardware.storage", "web", "web.driver", "mapreduce.yarn",
                "mapreduce.hdfs", "energy.meter", "cluster")


def _count(key: str):
    def hook(stats: LayerStats, args, result) -> None:
        stats.bump(key)
    return hook


def _set_sim(trace: LayerTrace):
    def hook(stats: LayerStats, args, result) -> None:
        trace.sim = args[0]
    return hook


def _realloc(stats: LayerStats, args, result) -> None:
    stats.bump("reallocs")
    stats.bump("active_sum", len(args[0].flows))


def _first_grant(stats: LayerStats, args, index: int, item) -> None:
    # Cpu.execute first yields its vcore Request; one already triggered
    # was granted on the spot and still costs a calendar event.
    if index == 0 and item.triggered:
        stats.bump("immediate")


def _accept(stats: LayerStats, args, result) -> None:
    stats.bump("accept_tries")
    if not result:
        stats.bump("accept_refused")


def _call_done(stats: LayerStats, args, sim_start: float, record) -> None:
    stats.bump("completed")


def _round(stats: LayerStats, args, grant) -> None:
    stats.bump("rounds")
    if grant is not None:
        stats.bump("grants")


def _granted(trace: LayerTrace):
    def hook(stats: LayerStats, args, sim_start: float, grant) -> None:
        stats.bump("wait_sim_s", trace.sim.now - sim_start)
    return hook


def install(trace: LayerTrace) -> LayerTrace:
    """Wrap every traced entry point of ``repro``; returns ``trace``."""
    from repro.energy.meter import PowerMeter
    from repro.hardware.cpu import Cpu
    from repro.hardware.storage import Storage
    from repro.mapreduce.hdfs import Hdfs
    from repro.mapreduce.runtime import JobRunner
    from repro.mapreduce.yarn import YarnScheduler
    from repro.net.flows import FlowNetwork
    from repro.net.topology import Topology
    from repro.sim.kernel import Simulation
    from repro.web.client import UrllibProbe
    from repro.web.deployment import WebServiceDeployment
    from repro.web.httperf import HttperfDriver
    from repro.web.nodes import WebServerNode

    trace.calibrate()
    wrap = trace.wrap
    wrap(Simulation, "__init__", "cluster", on_result=_set_sim(trace))
    wrap(WebServiceDeployment, "__init__", "cluster")
    wrap(JobRunner, "__init__", "cluster")
    wrap(Simulation, "run", "sim")
    wrap(Topology, "message", "net.message")
    wrap(FlowNetwork, "start_flow", "net.flows", on_result=_count("starts"))
    wrap(FlowNetwork, "rescale", "net.flows")
    wrap(FlowNetwork, "_on_wake", "net.flows")
    wrap(FlowNetwork, "_reallocate", "net.flows", on_result=_realloc)
    wrap(Cpu, "execute", "hardware.cpu", on_yield=_first_grant)
    wrap(Storage, "read", "hardware.storage")
    wrap(Storage, "write", "hardware.storage")
    wrap(WebServerNode, "handle_call", "web", on_result=_count("calls"),
         on_finish=_call_done)
    wrap(WebServerNode, "try_accept", "web", on_result=_accept)
    for owner, attr in ((HttperfDriver, "generate"),
                        (HttperfDriver, "_connection"),
                        (UrllibProbe, "_generate"),
                        (UrllibProbe, "_request")):
        wrap(owner, attr, "web.driver")
    wrap(YarnScheduler, "allocate", "mapreduce.yarn",
         on_result=_count("requests"), on_finish=_granted(trace))
    wrap(YarnScheduler, "_try_grant", "mapreduce.yarn", on_result=_round)
    wrap(Hdfs, "read_block", "mapreduce.hdfs", on_result=_count("reads"))
    wrap(Hdfs, "write", "mapreduce.hdfs", on_result=_count("writes"))
    wrap(Hdfs, "stage_file", "mapreduce.hdfs")
    wrap(Hdfs, "stage_dataset", "mapreduce.hdfs")
    wrap(PowerMeter, "sample", "energy.meter")
    return trace


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: LayerTrace, calendar: Dict[str, int]) -> Dict:
    """Per-layer counts, ratios and self times of one traced process.

    ``calendar`` is the run's ``Simulation.calendar_stats()``.  Every
    key appears for every workload; a layer a workload never enters
    reports zeros.
    """
    s = trace.stats
    events = calendar["processed"]
    msg, flows, cpu = s("net.message"), s("net.flows"), s("hardware.cpu")
    web, yarn, hdfs = s("web"), s("mapreduce.yarn"), s("mapreduce.hdfs")
    reallocs = flows.extra.get("reallocs", 0)
    self_s = self_seconds(trace)
    covered = sum(self_s.values())
    metrics = {
        "sim.events": events,
        "sim.dropped": calendar["dropped"],
        "sim.heap_peak": calendar["heap_peak"],
        "net.message.calls": msg.calls,
        "net.message.yields": _ratio(msg.yields, msg.calls),
        "net.flows.starts": flows.extra.get("starts", 0),
        "net.flows.reallocs": reallocs,
        "net.flows.active_mean": _ratio(flows.extra.get("active_sum", 0),
                                        reallocs),
        "hardware.cpu.bursts": cpu.calls,
        "hardware.cpu.immediate_frac": _ratio(cpu.extra.get("immediate", 0),
                                              cpu.calls),
        "hardware.storage.ops": s("hardware.storage").calls,
        "web.calls": web.extra.get("calls", 0),
        "web.events_per_call": _ratio(events, web.extra.get("completed", 0)),
        "web.accept_refused_frac": _ratio(web.extra.get("accept_refused", 0),
                                          web.extra.get("accept_tries", 0)),
        "mapreduce.yarn.requests": yarn.extra.get("requests", 0),
        "mapreduce.yarn.rounds": yarn.extra.get("rounds", 0),
        "mapreduce.yarn.grant_ratio": _ratio(yarn.extra.get("grants", 0),
                                             yarn.extra.get("rounds", 0)),
        "mapreduce.yarn.wait_sim_s": yarn.extra.get("wait_sim_s", 0.0),
        "mapreduce.hdfs.reads": hdfs.extra.get("reads", 0),
        "mapreduce.hdfs.writes": hdfs.extra.get("writes", 0),
        "energy.meter.samples": s("energy.meter").calls,
        "cluster.build_s": s("cluster").total_s,
    }
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_pct"] = 100.0 * _ratio(self_s[layer], covered)
    return metrics


def self_seconds(trace: LayerTrace) -> Dict[str, float]:
    """Host self seconds per reported layer, wrapper bookkeeping removed."""
    return {layer: trace.self_s(layer) for layer in SHARE_LAYERS}
