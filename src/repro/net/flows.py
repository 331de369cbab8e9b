"""Fluid-flow network model with max-min fair bandwidth sharing.

Long-lived transfers (HDFS writes, MapReduce shuffle, iperf streams) are
modelled as *fluid flows*: each flow traverses a set of capacity-limited
segments (source NIC transmit, destination NIC receive, optionally an
inter-rack trunk) and receives its max-min fair rate, recomputed by
progressive filling every time a flow starts or finishes.

The implementation keeps per-flow remaining bytes; when the rate
allocation changes, remaining work is rolled forward and the next
completion re-scheduled using a versioned wake-up (the kernel has no
timeout cancellation, so stale wake-ups are recognised and ignored).

Cost.  One reallocation keeps a record per segment (residual capacity,
open-flow count, member flows) and picks each bottleneck from a heap
keyed on ``(residual / open_count, first_appearance_index)``; a segment
whose count changes gets a fresh entry and superseded entries are
skipped when popped.  Each flow is frozen once, touching each of its
segments once, so a reallocation costs O(P log S) for P flow-segment
pairs over S segments - roughly linear in the number of active flows,
where rescanning every segment at each step would cost O(steps x P).

Tie-break and bit identity.  The heap selects the segment with the
lowest fair share and, on a tie, the one that appears first when
walking ``flows`` in order and each flow's segments in path order.
Residuals are reduced by ``residual -= fair`` once per frozen flow, in
member order, and NIC ``active_rate_Bps`` is summed in ``flows`` order.
Every rate, NIC rate and completion time is therefore the same float,
bit for bit, as the rescan-every-step progressive filling produces,
given that a path names each segment at most once (as
:meth:`Topology.path` builds it).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hardware.nic import Nic
from ..sim import Event, Simulation

#: Flows are considered delivered once less than this many bytes remain.
#: Sub-millibyte residues arise from float arithmetic in rate updates;
#: without the threshold a residue can imply a wake-up delay below the
#: clock's float resolution, stalling the simulation at one timestamp.
COMPLETION_THRESHOLD_BYTES = 1e-3


@dataclass(eq=False)
class Segment:
    """A capacity-limited network segment (a NIC direction or a trunk)."""

    name: str
    capacity_Bps: float
    #: NIC whose accounting should track traffic through this segment.
    nic: Optional[Nic] = None
    nic_direction: str = "tx"   # "tx" or "rx"

    def __post_init__(self):
        if self.capacity_Bps <= 0:
            raise ValueError("segment capacity must be > 0")
        #: Store-and-forward bookkeeping (see Topology.message): the
        #: time until which the wire is serialising earlier messages.
        #: Equivalent to a capacity-1 FIFO queue — each arrival starts
        #: at max(now, busy_until) — without an Event per hop; fluid
        #: flows ignore it.
        self.busy_until = 0.0


@dataclass(eq=False)
class Flow:
    """One in-flight bulk transfer."""

    segments: Tuple[Segment, ...]
    remaining_bytes: float
    done: Event
    rate_Bps: float = 0.0
    total_bytes: float = field(default=0.0)


class _SegmentState:
    """One segment's progressive-filling record within a reallocation."""

    __slots__ = ("residual", "open", "members", "index", "stamp")

    def __init__(self, capacity_Bps: float, index: int):
        self.residual = capacity_Bps    # capacity not yet handed out
        self.open = 0                   # unfrozen flows crossing it
        self.members: List[int] = []    # flow positions in FlowNetwork.flows
        self.index = index              # first-appearance order
        self.stamp = 0                  # bumped whenever its share changes


class FlowNetwork:
    """Tracks active flows and allocates max-min fair rates."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.flows: List[Flow] = []
        self._last_update = sim.now
        self._version = 0
        self._wake = None

    # -- public API -----------------------------------------------------

    def start_flow(self, segments: List[Segment], nbytes: float) -> Event:
        """Begin a transfer of ``nbytes`` across ``segments``.

        Returns an event that fires when the last byte arrives.  Zero-byte
        transfers complete immediately.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        done = self.sim.event()
        if nbytes == 0:
            done.succeed(0.0)
            return done
        if not segments:
            raise ValueError("a flow needs at least one segment")
        flow = Flow(tuple(segments), float(nbytes), done,
                    total_bytes=float(nbytes))
        self._advance_clock()
        self.flows.append(flow)
        self._reallocate()
        return done

    def transfer(self, segments: List[Segment], nbytes: float):
        """Process-generator convenience wrapper around :meth:`start_flow`."""
        yield self.start_flow(segments, nbytes)

    @property
    def active_count(self) -> int:
        return len(self.flows)

    def rescale(self) -> None:
        """Recompute fair shares after a segment capacity change.

        Fault injection mutates ``Segment.capacity_Bps`` (NIC
        degradation and repair); calling this settles bytes moved at the
        old rates, then re-runs progressive filling so every in-flight
        flow continues at the new fair share.  A no-op when idle.
        """
        self._advance_clock()
        self._reallocate()

    # -- internals --------------------------------------------------------

    def _advance_clock(self) -> None:
        """Drain bytes transferred since the last rate change."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        finished = []
        for flow in self.flows:
            flow.remaining_bytes -= flow.rate_Bps * dt
            self._account(flow, flow.rate_Bps * dt)
            if flow.remaining_bytes <= COMPLETION_THRESHOLD_BYTES:
                finished.append(flow)
        for flow in finished:
            self.flows.remove(flow)
            flow.done.succeed(self.sim.now)

    @staticmethod
    def _account(flow: Flow, nbytes: float) -> None:
        for segment in flow.segments:
            if segment.nic is None:
                continue
            if segment.nic_direction == "tx":
                segment.nic.bytes_sent += nbytes
            else:
                segment.nic.bytes_received += nbytes

    def _reallocate(self) -> None:
        """Progressive filling: assign max-min fair rates, reschedule."""
        flows = self.flows
        if not flows:
            self._version += 1
            return
        # One record per segment, indexed in first-appearance order; the
        # first sighting also clears the NIC's instantaneous rate.
        states: Dict[Segment, _SegmentState] = {}
        order: List[_SegmentState] = []
        paths: List[List[_SegmentState]] = []
        for i, flow in enumerate(flows):
            path = []
            for segment in flow.segments:
                state = states.get(segment)
                if state is None:
                    state = states[segment] = _SegmentState(
                        segment.capacity_Bps, len(order))
                    order.append(state)
                    if segment.nic is not None:
                        segment.nic.active_rate_Bps = 0.0
                state.members.append(i)
                path.append(state)
            paths.append(path)
        for state in order:
            state.open = len(state.members)
        heap = [(s.residual / s.open, s.index, 0) for s in order]
        heapq.heapify(heap)
        rates = [0.0] * len(flows)
        frozen = [False] * len(flows)
        unfrozen = len(flows)
        while unfrozen:
            # Tightest segment determines the next fair-share increment.
            fair, index, stamp = heapq.heappop(heap)
            bottleneck = order[index]
            if stamp != bottleneck.stamp:
                continue  # superseded by a later push for this segment
            if not fair < math.inf:
                break
            touched = {}
            for i in bottleneck.members:
                if frozen[i]:
                    continue
                frozen[i] = True
                unfrozen -= 1
                rates[i] = fair
                for state in paths[i]:
                    state.residual -= fair
                    state.open -= 1
                    touched[state] = None
            for state in touched:
                state.stamp += 1
                if state.open:
                    heapq.heappush(heap, (state.residual / state.open,
                                          state.index, state.stamp))
        for flow, rate in zip(flows, rates):
            flow.rate_Bps = rate
            for segment in flow.segments:
                if segment.nic is not None:
                    segment.nic.active_rate_Bps += rate
        self._schedule_next_completion()

    def _schedule_next_completion(self) -> None:
        self._version += 1
        version = self._version
        if self._wake is not None:
            # The wake-up belonging to the previous allocation is now
            # stale; cancelling it keeps shuffle-heavy runs from
            # accumulating one dead calendar entry per rate change.
            self._wake.cancel()
            self._wake = None
        horizon = min(
            ((f.remaining_bytes - COMPLETION_THRESHOLD_BYTES / 2)
             / f.rate_Bps
             for f in self.flows if f.rate_Bps > 0),
            default=None)
        if horizon is None:
            return
        wake = self.sim.timeout(max(horizon, 0.0))
        wake.add_callback(lambda _ev: self._on_wake(version))
        self._wake = wake

    def _on_wake(self, version: int) -> None:
        if version != self._version:
            return  # a newer allocation superseded this wake-up
        self._advance_clock()
        self._reallocate()
