"""Property-based tests (hypothesis) for core data structures/invariants."""

import math
from typing import Dict, List

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.metrics import speedup_per_doubling
from repro.hardware import MemorySpec, PowerSpec, StorageSpec
from repro.hardware.nic import Nic, NicSpec
from repro.net import FlowNetwork, Segment
from repro.net.flows import Flow
from repro.sim import Container, Resource, Simulation, TimeSeries
from repro.tco import TcoInputs, cluster_tco
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
    from repro.hardware import Storage
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
