"""Property-based tests (hypothesis) for core data structures/invariants."""

import math
import random
from typing import Dict, List
from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import hadoop_cluster
from repro.core.metrics import speedup_per_doubling
from repro.hardware import MemorySpec, PowerSpec, Storage, StorageSpec
from repro.hardware.cpu import Cpu, CpuSpec
from repro.hardware.nic import Nic, NicSpec
from repro.mapreduce.config import default_config
from repro.mapreduce.yarn import YarnScheduler
from repro.net import FlowNetwork, Segment
from repro.net.flows import Flow
from repro.sim import Container, Interrupt, Resource, Simulation, TimeSeries
from repro.tco import TcoInputs, cluster_tco
from repro.trace import Tracer
from repro.web.params import tuned_calls_per_connection
from repro.workloads import split_evenly


# -- kernel ordering -----------------------------------------------------------

@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_events_fire_in_time_order(delays):
    sim = Simulation()
    fired = []

    def waiter(delay):
        yield sim.timeout(delay)
        fired.append(sim.now)

    for delay in delays:
        sim.process(waiter(delay))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(st.integers(min_value=1, max_value=20),
       st.lists(st.floats(min_value=0.01, max_value=10, allow_nan=False),
                min_size=1, max_size=40))
def test_resource_never_exceeds_capacity(capacity, holds):
    sim = Simulation()
    resource = Resource(sim, capacity=capacity)
    observed = []

    def user(hold):
        with resource.request() as req:
            yield req
            observed.append(resource.count)
            yield sim.timeout(hold)

    for hold in holds:
        sim.process(user(hold))
    sim.run()
    assert all(1 <= count <= capacity for count in observed)
    assert resource.count == 0
    assert resource.queue_length == 0
    # Busy time cannot exceed capacity x elapsed.
    assert resource.busy_time() <= capacity * sim.now + 1e-9


@given(st.floats(min_value=1, max_value=1e6, allow_nan=False),
       st.lists(st.tuples(st.booleans(),
                          st.floats(min_value=0.01, max_value=100)),
                max_size=30))
def test_container_level_stays_in_bounds(capacity, operations):
    sim = Simulation()
    box = Container(sim, capacity=capacity, init=capacity / 2)

    def driver():
        for is_put, amount in operations:
            amount = min(amount, capacity / 4)
            event = box.put(amount) if is_put else box.get(amount)
            # Avoid deadlock: only wait if it can ever be satisfied.
            if event.triggered:
                yield sim.timeout(0.001)
        yield sim.timeout(0)

    sim.process(driver())
    sim.run()
    assert 0 <= box.level <= capacity


# -- time series ----------------------------------------------------------------

@given(st.lists(st.tuples(st.floats(min_value=0, max_value=1000),
                          st.floats(min_value=0, max_value=500)),
                min_size=2, max_size=50))
def test_integral_of_nonnegative_series_is_nonnegative(samples):
    series = TimeSeries()
    for t, v in sorted(samples, key=lambda p: p[0]):
        series.record(t, v)
    assert series.integrate() >= 0
    assert series.maximum() >= series.mean() - 1e-12


@given(st.floats(min_value=0.1, max_value=1000),
       st.floats(min_value=0, max_value=500),
       st.integers(min_value=2, max_value=50))
def test_constant_power_energy_identity(duration, watts, samples):
    """Energy of a constant-power trace == P x T at any sampling rate."""
    series = TimeSeries()
    for i in range(samples):
        series.record(duration * i / (samples - 1), watts)
    assert math.isclose(series.integrate(), watts * duration,
                        rel_tol=1e-9, abs_tol=1e-9)


# -- flows -----------------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=3),
                          st.floats(min_value=1, max_value=1e7)),
                min_size=1, max_size=20))
@settings(deadline=None)
def test_all_flows_complete_and_account_bytes(flow_specs):
    sim = Simulation()
    net = FlowNetwork(sim)
    segments = [Segment(f"s{i}", 1e6) for i in range(4)]
    events = []
    total = 0.0
    for a, b, nbytes in flow_specs:
        path = [segments[a]] if a == b else [segments[a], segments[b]]
        events.append(net.start_flow(path, nbytes))
        total += nbytes
    sim.run()
    assert all(e.triggered for e in events)
    assert net.active_count == 0
    # Lower bound: everything through one segment at its capacity.
    assert sim.now * 4 * 1e6 >= total * 0.999


@given(st.floats(min_value=1, max_value=1e9),
       st.floats(min_value=1, max_value=1e9))
def test_single_flow_time_is_bytes_over_capacity(nbytes, capacity):
    sim = Simulation()
    net = FlowNetwork(sim)
    done = net.start_flow([Segment("s", capacity)], nbytes)
    sim.run(until=done)
    assert math.isclose(sim.now, nbytes / capacity, rel_tol=1e-3,
                        abs_tol=1e-6)


# -- max-min allocator vs a rescan-every-step oracle ---------------------------

class _RescanFlowNetwork(FlowNetwork):
    """Reference allocator: the textbook progressive filling, which
    rescans every segment and rebuilds its unfrozen member list at each
    step.  The heap-ordered allocator must agree with it bit for bit."""

    def _reallocate(self) -> None:
        """Progressive filling, rescanning every segment at every step."""
        # Clear NIC instantaneous-rate accounting.
        for flow in self.flows:
            for segment in flow.segments:
                if segment.nic is not None:
                    segment.nic.active_rate_Bps = 0.0
        if not self.flows:
            self._version += 1
            return
        unfrozen = set(self.flows)
        rates: Dict[Flow, float] = {flow: 0.0 for flow in self.flows}
        seg_flows: Dict[Segment, List[Flow]] = {}
        for flow in self.flows:
            for segment in flow.segments:
                seg_flows.setdefault(segment, []).append(flow)
        seg_capacity = {seg: seg.capacity_Bps for seg in seg_flows}
        while unfrozen:
            # Tightest segment determines the next fair-share increment.
            bottleneck, fair = None, float("inf")
            for segment, flows in seg_flows.items():
                active = [f for f in flows if f in unfrozen]
                if not active:
                    continue
                share = seg_capacity[segment] / len(active)
                if share < fair:
                    bottleneck, fair = segment, share
            if bottleneck is None:
                break
            for flow in [f for f in seg_flows[bottleneck] if f in unfrozen]:
                rates[flow] += fair
                unfrozen.discard(flow)
                for segment in flow.segments:
                    seg_capacity[segment] -= fair
        for flow, rate in rates.items():
            flow.rate_Bps = rate
            for segment in flow.segments:
                if segment.nic is not None:
                    segment.nic.active_rate_Bps += rate
        self._schedule_next_completion()


#: Few distinct capacities, so equal fair shares (ties) are common.
_CAPACITIES = (1e6, 1e6 / 3, 2.5e6, 12.5e6)

#: (start in half-seconds, crosses the trunk, own segments 1-5, bytes).
_FLOW = st.tuples(st.integers(min_value=0, max_value=8), st.booleans(),
                  st.lists(st.integers(min_value=1, max_value=5),
                           min_size=1, max_size=2, unique=True),
                  st.integers(min_value=1, max_value=5_000_000))

#: (time in half-seconds, segment, new capacity) of one mid-run change.
_CHANGE = st.tuples(st.integers(min_value=0, max_value=8),
                    st.integers(min_value=0, max_value=5),
                    st.sampled_from(_CAPACITIES))


def _replay(network_cls, capacities, flow_specs, change):
    """Run one scenario; returns every allocation, every completion time
    and the NIC byte counters."""
    sim = Simulation()
    net = network_cls(sim)
    nics = [Nic(sim, NicSpec(8e6), f"nic{i}") for i in range(3)]
    # Segment 0 is a trunk without a NIC; 1-5 are NIC directions.
    segments = [Segment("trunk", capacities[0])] + [
        Segment(f"s{i}", capacities[i], nic=nics[(i - 1) // 2],
                nic_direction="tx" if i % 2 else "rx")
        for i in range(1, 6)]
    allocations = []
    allocate = net._reallocate

    def observed_reallocate():
        allocate()
        allocations.append(([f.rate_Bps for f in net.flows],
                            [nic.active_rate_Bps for nic in nics]))

    net._reallocate = observed_reallocate
    finished = {}

    def start(k, path, nbytes):
        done = net.start_flow(path, nbytes)
        done.add_callback(lambda ev: finished.__setitem__(k, ev.value))

    for k, (when, via_trunk, own, nbytes) in enumerate(flow_specs):
        path = [segments[j] for j in own]
        if via_trunk:
            path.insert(1, segments[0])
        sim.timeout(when / 2).add_callback(
            lambda _ev, k=k, path=path, nbytes=nbytes: start(k, path, nbytes))
    at, index, capacity = change

    def degrade(_ev):
        segments[index].capacity_Bps = capacity
        net.rescale()

    sim.timeout(at / 2 + 0.25).add_callback(degrade)
    sim.run()
    assert len(finished) == len(flow_specs)
    return (allocations, finished,
            [(nic.bytes_sent, nic.bytes_received) for nic in nics])


@given(st.lists(st.sampled_from(_CAPACITIES), min_size=6, max_size=6),
       st.lists(_FLOW, min_size=1, max_size=25), _CHANGE)
@example([1e6] * 6, [(0, True, [1 + k % 5], 1_000_000 + k)
                     for k in range(12)], (2, 0, 1e6 / 3))
@settings(deadline=None, max_examples=200)
def test_heap_allocator_matches_rescan_oracle_bit_for_bit(
        capacities, flow_specs, change):
    expected = _replay(_RescanFlowNetwork, capacities, flow_specs, change)
    actual = _replay(FlowNetwork, capacities, flow_specs, change)
    # Exact float equality: rates, NIC rates, completion times, bytes.
    assert actual == expected


# -- in-place vcore/channel grants vs a grant event every time ----------------

#: One process step: a CPU burst (MI), a disk read (bytes), a bare delay
#: (half-seconds), a wait on one of two shared events, or an AllOf/AnyOf
#: of two timeouts (half-seconds).  Few distinct values, so same-instant
#: ties are common.
_STEP = st.one_of(
    st.tuples(st.just("cpu"), st.sampled_from((0.0, 250.0, 500.0, 1000.0))),
    st.tuples(st.just("disk"), st.sampled_from((0.0, 4096.0, 1e6))),
    st.tuples(st.just("sleep"), st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("shared"), st.integers(min_value=0, max_value=1)),
    st.tuples(st.sampled_from(("allof", "anyof")),
              st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=2)))

#: (start in half-seconds, steps) of one process.
_PROC = st.tuples(st.integers(min_value=0, max_value=3),
                  st.lists(_STEP, min_size=1, max_size=5))

#: (time in half-seconds, shared event index) of one trigger.
_TRIGGER = st.tuples(st.integers(min_value=0, max_value=6),
                     st.integers(min_value=0, max_value=1))

#: (time in quarter-seconds, process index) of one interrupt.
_INTERRUPT = st.tuples(st.integers(min_value=1, max_value=16),
                       st.integers(min_value=0, max_value=7))


def _contend(procs, triggers, interrupts, stops):
    """Run one CPU/disk contention scenario; returns every step's
    completion (in resume order), both busy integrals and the resource
    trace spans."""
    tracer = Tracer(categories={"resource"})
    sim = Simulation(trace=tracer)
    # Two vcores on one core: the burst rate depends on the occupancy
    # read right after the grant.
    cpu = Cpu(sim, CpuSpec(cores=1, threads_per_core=2,
                           dmips_per_thread=1000.0, smt_efficiency=0.6))
    disk = Storage(sim, StorageSpec(
        write_bps=4.5e6, buffered_write_bps=9.3e6, read_bps=19.5e6,
        buffered_read_bps=737e6, write_latency_s=0.018,
        read_latency_s=0.007))
    shared = [sim.event(), sim.event()]
    log = []

    def body(i, start, steps):
        for j, (kind, *args) in enumerate([("sleep", start)] + steps):
            try:
                if kind == "cpu":
                    yield from cpu.execute(args[0])
                elif kind == "disk":
                    yield from disk.read(args[0])
                elif kind == "sleep":
                    yield args[0] / 2
                elif kind == "shared":
                    yield shared[args[0]]
                else:
                    waits = [sim.timeout(a / 2) for a in args]
                    yield (sim.all_of(waits) if kind == "allof"
                           else sim.any_of(waits))
            except Interrupt:
                log.append((i, j, "interrupted", sim.now))
            else:
                log.append((i, j, sim.now))

    processes = [sim.process(body(i, start, steps))
                 for i, (start, steps) in enumerate(procs)]

    def trigger(k):
        # A plain callback: the shared event's waiters resume together.
        if not shared[k].triggered:
            shared[k].succeed(k)

    for when, k in triggers:
        sim.timeout(when / 2).add_callback(lambda _ev, k=k: trigger(k))

    def interrupter(when, i):
        yield when / 4
        if processes[i].is_alive:
            processes[i].interrupt("stop")

    for when, i in interrupts:
        if i < len(processes):
            sim.process(interrupter(when, i))
    for until in sorted(stops):
        sim.run(until=until / 4)
    sim.run()
    spans = [(e.name, e.ts, e.dur) for e in tracer.log.spans("resource")]
    return (log, cpu.vcores.busy_time(), disk.channel.busy_time(), spans,
            sim.now)


@given(st.lists(_PROC, min_size=1, max_size=8),
       st.lists(_TRIGGER, max_size=3), st.lists(_INTERRUPT, max_size=3),
       st.lists(st.integers(min_value=0, max_value=16), max_size=2))
# Two wakes at one instant: the first must not be granted in place
# while the second is still due.
@example([(0, [("cpu", 500.0)]), (0, [("cpu", 500.0)])], [], [], [])
# One event wakes two waiters: the first must not be granted in place
# while the second callback has yet to run.
@example([(0, [("shared", 0), ("cpu", 500.0)]),
          (0, [("shared", 0), ("cpu", 500.0)])], [(2, 0)], [], [])
@settings(deadline=None, max_examples=300)
def test_in_place_grants_are_bit_identical(procs, triggers, interrupts,
                                           stops):
    with patch.object(Resource, "acquire", Resource.request):
        expected = _contend(procs, triggers, interrupts, stops)
    actual = _contend(procs, triggers, interrupts, stops)
    # Exact equality: completion times, resume order, busy integrals
    # and every resource wait/hold span.
    assert actual == expected


# -- YARN re-scan skip vs a scheduler that scans every round -------------------

class _ScanEveryRound(YarnScheduler):
    """Reference scheduler: ignores the last-failure memo and scans the
    cluster on every round."""

    def _try_grant(self, mem_mb, preferred, allow_any, avoid=(),
                   failed=None):
        return super()._try_grant(mem_mb, preferred, allow_any, avoid)


#: (start in quarter-seconds, MB, preferred node or None, avoided node or
#: None, give up after 3 heartbeats, hold in quarter-seconds).
_CONTAINER = st.tuples(st.integers(min_value=0, max_value=20),
                       st.sampled_from((150, 300, 450)),
                       st.one_of(st.none(), st.integers(0, 2)),
                       st.one_of(st.none(), st.integers(0, 2)),
                       st.booleans(),
                       st.integers(min_value=1, max_value=40))

#: (time in quarter-seconds, node, goes down) of one blacklist/rejoin.
_NODE_EVENT = st.tuples(st.integers(min_value=1, max_value=60),
                        st.integers(min_value=0, max_value=2),
                        st.booleans())


def _schedule(scheduler_cls, seed, containers, node_events):
    """Run one allocation scenario; returns every grant with its time,
    every grant's heartbeat count, the locality counters and the RNG."""
    tracer = Tracer(categories={"yarn"})
    sim = Simulation(trace=tracer)
    cluster = hadoop_cluster(sim, "edison", 3)
    master = next(s for s in cluster if s.name == "master")
    yarn = scheduler_cls(sim, cluster.metered_servers,
                         default_config("edison"), random.Random(seed),
                         master=master)
    names = [s.name for s in cluster.metered_servers]
    # Blacklistings per node: a container whose node went down since
    # its grant died with it and is never released.
    downs = dict.fromkeys(names, 0)
    grants = []

    def task(k, start, mem, preferred, avoid, speculative, hold):
        yield start / 4
        grant = yield from yarn.allocate(
            mem, preferred=[] if preferred is None else [names[preferred]],
            max_heartbeats=3 if speculative else None,
            avoid=() if avoid is None else (names[avoid],))
        grants.append((k, sim.now, grant))
        if grant is not None:
            epoch = downs[grant.node]
            yield hold / 4
            if downs[grant.node] == epoch:
                yarn.release(grant)

    for k, spec in enumerate(containers):
        sim.process(task(k, *spec))

    def flip(_ev, name, down):
        if down:
            downs[name] += not yarn.nodes[name].down
            yarn.mark_node_down(name)
        else:
            yarn.mark_node_up(name)

    for when, node, down in node_events:
        sim.timeout(when / 4).add_callback(
            lambda ev, name=names[node], down=down: flip(ev, name, down))
    # Requests can wait for ever on a blacklisted cluster: stop the clock.
    sim.run(until=60.0)
    waits = [(e.ts, e.dur, e.attrs["heartbeats"], e.node)
             for e in tracer.log.spans("yarn", "container.wait")]
    return (grants, waits, yarn.local_grants, yarn.total_grants,
            yarn.rng.getstate())


@given(st.integers(min_value=0, max_value=2**16),
       st.lists(_CONTAINER, min_size=1, max_size=12),
       st.lists(_NODE_EVENT, max_size=8))
# A request that failed on a fully blacklisted cluster must see a node
# that rejoins.
@example(1, [(4, 150, None, None, False, 4)],
         [(1, 0, True), (1, 1, True), (1, 2, True), (20, 0, False)])
@settings(deadline=None, max_examples=150)
def test_yarn_rescan_skip_matches_scan_every_round(seed, containers,
                                                   node_events):
    expected = _schedule(_ScanEveryRound, seed, containers, node_events)
    actual = _schedule(YarnScheduler, seed, containers, node_events)
    assert actual == expected


# -- hardware specs ---------------------------------------------------------------

@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_power_monotone_in_cpu_utilisation(u1, u2):
    spec = PowerSpec(idle_w=10, busy_w=50, weights={"cpu": 1.0})
    lo, hi = sorted((u1, u2))
    assert spec.power({"cpu": lo}) <= spec.power({"cpu": hi})
    assert spec.min_w <= spec.power({"cpu": u1}) <= spec.max_w


@given(st.integers(min_value=256, max_value=1 << 22),
       st.integers(min_value=1, max_value=32))
def test_memory_bandwidth_bounded_and_monotone(block, threads):
    spec = MemorySpec(capacity_bytes=1e9, peak_bandwidth_bps=2.2e9,
                      saturation_threads=2)
    rate = spec.bandwidth(block, threads)
    assert 0 < rate <= spec.peak_bandwidth_bps
    assert rate <= spec.bandwidth(block * 2, threads)
    assert rate <= spec.bandwidth(block, threads + 1)


@given(st.floats(min_value=1, max_value=1e8))
def test_storage_io_time_positive_and_additive(nbytes):
    spec = StorageSpec(write_bps=4.5e6, buffered_write_bps=9.3e6,
                       read_bps=19.5e6, buffered_read_bps=737e6,
                       write_latency_s=0.018, read_latency_s=0.007)
    sim = Simulation()
    disk = Storage(sim, spec)
    t = disk.io_time("read", nbytes)
    assert t >= spec.read_latency_s
    assert disk.io_time("read", 2 * nbytes) > t


# -- metrics / models ----------------------------------------------------------------

@given(st.floats(min_value=1, max_value=1e5),
       st.integers(min_value=2, max_value=6))
def test_exact_halving_gives_speedup_two(base_time, steps):
    times = {2 ** i: base_time / (2 ** i) for i in range(steps)}
    assert math.isclose(speedup_per_doubling(times), 2.0, rel_tol=1e-9)


@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_tco_monotone_in_utilisation(u1, u2):
    inputs = TcoInputs(node_cost_usd=100, peak_power_w=100, idle_power_w=50)
    lo, hi = sorted((u1, u2))
    assert cluster_tco(inputs, 5, lo) <= cluster_tco(inputs, 5, hi)


@given(st.integers(min_value=1, max_value=500),
       st.integers(min_value=1, max_value=200))
def test_split_evenly_conserves_bytes(count, per_file):
    total = count * per_file + count // 2
    files = split_evenly(total, count, "f", bytes_per_record=7)
    assert sum(f.size_bytes for f in files) == total
    sizes = [f.size_bytes for f in files]
    assert max(sizes) - min(sizes) <= 1     # near-equal split


@given(st.integers(min_value=1, max_value=10000),
       st.floats(min_value=1, max_value=1e6))
def test_tuned_calls_always_in_bounds(concurrency, target):
    calls = tuned_calls_per_connection(concurrency, target)
    assert 5 <= calls <= 40
