"""Fault models: what can go wrong, when, and for how long.

Every fault is a :class:`Fault` value — one kind, one victim node, one
onset time and (except for permanent disk loss) one repair time.  Plans
hold one-shot faults plus :class:`RecurringFault` generators that draw
exponential time-between-failures / time-to-repair from a seeded stream,
so a chaos run is as reproducible as any other simulation.  All
validation happens at construction: a bad plan fails before the
simulation burns any time.

The kinds model the failure classes the SBC-cluster literature reports
for sensor-class hardware (node dropouts first, then flaky NICs and SD
cards):

``crash``
    The node halts at ``at`` and is back ``duration`` seconds later
    (operator reboot / watchdog).  Running work on it dies; while down
    the node still draws idle power (it sits in the bootloader or at a
    login prompt) — the honest accounting for work-per-joule.
``power``
    Supply loss: like ``crash`` but the node draws *zero* watts for
    ``duration`` seconds, then takes ``reboot_s`` at idle power before
    serving again.
``nic``
    The NIC degrades to ``factor`` of line rate for ``duration``
    seconds (flapping autonegotiation, duplex mismatch).  Nothing dies;
    everything gets slower.
``disk_stall``
    Device I/O takes ``slowdown``× longer for ``duration`` seconds
    (SD-card garbage collection, controller resets).
``disk_fail``
    The disk dies at ``at`` and every HDFS replica on it is lost for
    good (no re-replication is modelled).  Reads fall back to surviving
    replicas; a job fails cleanly only when a block has none left.
``cpu_throttle``
    Thermal throttling: every DMIPS rate on the node is scaled by
    ``factor`` for ``duration`` seconds.  Nothing dies and no health
    check fires — the canonical *gray* failure that turns a node into a
    straggler factory.
``packet_loss``
    The NIC loses a fraction ``loss`` of packets for ``duration``
    seconds; retransmissions inflate every effective transfer time by
    ``1 / (1 - loss)`` (goodput shrinks to ``1 - loss`` of line rate).
    Stacks multiplicatively with ``nic`` degradation on the same link.
``partition``
    A network cut: the named rack (or an explicit node set) is severed
    from the rest of the cluster for ``duration`` seconds.  Nothing
    dies — nodes on each side keep running and keep talking to their
    own side, which is exactly what makes partitions nastier than
    crashes: every health check sees *silence*, not a corpse.
``switch_down``
    A rack's ToR switch dies: its members lose all connectivity,
    including to each other, for ``duration`` seconds.  The correlated
    whole-enclosure failure the SBC literature warns about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.records import Record

#: The recognised fault kinds.
FAULT_KINDS = ("crash", "power", "nic", "disk_stall", "disk_fail",
               "cpu_throttle", "packet_loss", "partition", "switch_down")

#: The *gray* kinds: the node stays "up" to every health check while
#: quietly running slow — exactly the failures mitigation exists for.
GRAY_KINDS = ("cpu_throttle", "packet_loss", "nic", "disk_stall")

#: Kinds that take a node out of service entirely (kill its processes).
NODE_DOWN_KINDS = ("crash", "power")

#: Kinds that sever connectivity without killing anything: the victims
#: stay *up* but become *unreachable* — the down/unreachable distinction
#: the whole partition-tolerance layer exists to honour.
PARTITION_KINDS = ("partition", "switch_down")


@dataclass(frozen=True)
class FaultCause:
    """Attached to the kernel ``Interrupt`` thrown into victim processes."""

    kind: str
    node: str

    def __str__(self) -> str:
        return f"{self.kind} on {self.node}"


@dataclass(frozen=True)
class Fault:
    """One scheduled fault on one node.  Use the constructor helpers."""

    kind: str
    node: str
    at: float
    #: Seconds until repair; ``inf`` means permanent (disk_fail only).
    duration: float = math.inf
    #: Extra idle-power reboot time after a ``power`` outage ends.
    reboot_s: float = 0.0
    #: Remaining fraction of NIC line rate during a ``nic`` fault, or of
    #: DMIPS during a ``cpu_throttle`` fault.
    factor: float = 1.0
    #: I/O time multiplier during a ``disk_stall`` fault.
    slowdown: float = 1.0
    #: Fraction of packets lost during a ``packet_loss`` fault.
    loss: float = 0.0
    #: Rack severed by a ``partition``/``switch_down`` fault (resolved
    #: against the topology at injection time).
    rack: str = ""
    #: Explicit node set severed by a ``partition`` fault (alternative
    #: to naming a whole rack).
    nodes: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if not self.node:
            raise ValueError("a fault needs a victim node name")
        if self.at < 0:
            raise ValueError("fault onset time must be >= 0")
        if self.duration <= 0:
            raise ValueError("fault duration must be > 0")
        if self.reboot_s < 0:
            raise ValueError("reboot_s must be >= 0")
        if math.isinf(self.duration) and self.kind != "disk_fail":
            raise ValueError(f"only disk_fail may be permanent; "
                             f"{self.kind} needs a finite duration")
        if self.kind in PARTITION_KINDS:
            if bool(self.rack) == bool(self.nodes):
                raise ValueError(f"{self.kind} needs exactly one of "
                                 "rack= or nodes=")
            if self.kind == "switch_down" and not self.rack:
                raise ValueError("switch_down severs a whole rack; "
                                 "use partition for arbitrary node sets")
        elif self.rack or self.nodes:
            raise ValueError(f"rack/nodes only apply to {PARTITION_KINDS}")
        if self.kind == "nic" and not 0 < self.factor <= 1:
            # factor 0 would wedge in-flight store-and-forward messages
            # whose serialisation time is already committed.
            raise ValueError("nic factor must be in (0, 1]")
        if self.kind == "disk_stall" and self.slowdown < 1:
            raise ValueError("disk_stall slowdown must be >= 1")
        if self.kind == "cpu_throttle" and not 0 < self.factor <= 1:
            raise ValueError("cpu_throttle factor must be in (0, 1]")
        if self.kind == "packet_loss" and not 0 < self.loss < 1:
            # loss 1 would starve the link outright — that's a nic/crash
            # fault, not a gray one.
            raise ValueError("packet_loss loss must be in (0, 1)")

    def to_dict(self) -> Dict:
        out: Dict = {"kind": self.kind, "node": self.node, "at": self.at}
        if not math.isinf(self.duration):
            out["duration"] = self.duration
        if self.reboot_s:
            out["reboot_s"] = self.reboot_s
        if self.kind in ("nic", "cpu_throttle"):
            out["factor"] = self.factor
        if self.kind == "disk_stall":
            out["slowdown"] = self.slowdown
        if self.kind == "packet_loss":
            out["loss"] = self.loss
        if self.rack:
            out["rack"] = self.rack
        if self.nodes:
            out["nodes"] = list(self.nodes)
        return out


def node_crash(node: str, at: float, repair_s: float) -> Fault:
    """The node halts at ``at`` and serves again ``repair_s`` later."""
    return Fault(kind="crash", node=node, at=at, duration=repair_s)


def power_event(node: str, at: float, outage_s: float,
                reboot_s: float = 30.0) -> Fault:
    """Supply loss: 0 W for ``outage_s``, then ``reboot_s`` at idle."""
    return Fault(kind="power", node=node, at=at, duration=outage_s,
                 reboot_s=reboot_s)


def nic_degrade(node: str, at: float, duration: float,
                factor: float) -> Fault:
    """NIC drops to ``factor`` of line rate for ``duration`` seconds."""
    return Fault(kind="nic", node=node, at=at, duration=duration,
                 factor=factor)


def disk_stall(node: str, at: float, duration: float,
               slowdown: float) -> Fault:
    """Device I/O takes ``slowdown``× longer for ``duration`` seconds."""
    return Fault(kind="disk_stall", node=node, at=at, duration=duration,
                 slowdown=slowdown)


def disk_failure(node: str, at: float) -> Fault:
    """The disk dies at ``at``; its block replicas are lost for good."""
    return Fault(kind="disk_fail", node=node, at=at)


def cpu_throttle(node: str, at: float, duration: float,
                 factor: float) -> Fault:
    """DMIPS drop to ``factor`` of nominal for ``duration`` seconds."""
    return Fault(kind="cpu_throttle", node=node, at=at, duration=duration,
                 factor=factor)


def packet_loss(node: str, at: float, duration: float,
                loss: float) -> Fault:
    """The NIC loses fraction ``loss`` of packets for ``duration`` s."""
    return Fault(kind="packet_loss", node=node, at=at, duration=duration,
                 loss=loss)


def rack_partition(rack: str, at: float, duration: float) -> Fault:
    """Sever ``rack`` from the rest of the fabric for ``duration`` s."""
    return Fault(kind="partition", node=rack, at=at, duration=duration,
                 rack=rack)


def node_set_partition(nodes: Iterable[str], at: float,
                       duration: float, label: str = "") -> Fault:
    """Sever an arbitrary node set from everything else."""
    members = tuple(nodes)
    return Fault(kind="partition", node=label or ",".join(members),
                 at=at, duration=duration, nodes=members)


def switch_down(rack: str, at: float, duration: float) -> Fault:
    """Kill ``rack``'s ToR switch: its members lose all connectivity."""
    return Fault(kind="switch_down", node=rack, at=at, duration=duration,
                 rack=rack)


@dataclass(frozen=True)
class RecurringFault:
    """A seeded stochastic fault process on one node.

    Time between failures is exponential with mean ``mtbf_s``; each
    outage lasts an exponential draw with mean ``mttr_s``.  Draws come
    from the injector's dedicated RNG stream, so two runs with the same
    seed see the same fault history.
    """

    kind: str
    node: str
    mtbf_s: float
    mttr_s: float
    #: No fault fires before this time (let the system warm up).
    start: float = 0.0
    reboot_s: float = 0.0
    factor: float = 0.5
    slowdown: float = 10.0
    loss: float = 0.1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "disk_fail":
            raise ValueError("disk_fail is permanent and cannot recur; "
                             "schedule it as a one-shot fault")
        if self.kind in PARTITION_KINDS:
            raise ValueError(f"{self.kind} severs a node *set* and must "
                             "be scheduled as a one-shot fault")
        if not self.node:
            raise ValueError("a fault needs a victim node name")
        if self.mtbf_s <= 0 or self.mttr_s <= 0:
            raise ValueError("mtbf_s and mttr_s must be > 0")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        # Re-use Fault's kind-parameter validation.
        Fault(kind=self.kind, node=self.node, at=self.start, duration=1.0,
              reboot_s=self.reboot_s, factor=self.factor,
              slowdown=self.slowdown, loss=self.loss)

    def make_fault(self, at: float, duration: float) -> Fault:
        """One concrete outage of this process."""
        return Fault(kind=self.kind, node=self.node, at=at,
                     duration=duration, reboot_s=self.reboot_s,
                     factor=self.factor, slowdown=self.slowdown,
                     loss=self.loss)

    def to_dict(self) -> Dict:
        out: Dict = {"kind": self.kind, "node": self.node,
                     "mtbf_s": self.mtbf_s, "mttr_s": self.mttr_s}
        if self.start:
            out["start"] = self.start
        if self.reboot_s:
            out["reboot_s"] = self.reboot_s
        if self.kind in ("nic", "cpu_throttle"):
            out["factor"] = self.factor
        if self.kind == "disk_stall":
            out["slowdown"] = self.slowdown
        if self.kind == "packet_loss":
            out["loss"] = self.loss
        return out


@dataclass(frozen=True)
class FaultPlan(Record):
    """Everything a chaos run will inject: one-shots plus processes.

    The JSON form (``--fault-plan FILE``) is ``{"faults": [...],
    "recurring": [...]}``, each entry in its kind's sparse encoding.
    """

    faults: Tuple[Fault, ...] = field(default_factory=tuple)
    recurring: Tuple[RecurringFault, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(self, "recurring", tuple(self.recurring))

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls()

    @property
    def is_empty(self) -> bool:
        return not self.faults and not self.recurring

    def __len__(self) -> int:
        return len(self.faults) + len(self.recurring)

    def nodes(self) -> List[str]:
        """Every node the plan targets (deduplicated, plan order).

        Partition faults contribute their explicit ``nodes`` sets; a
        rack label is not a node and is resolved against the topology
        at injection time instead.
        """
        seen: List[str] = []
        for item in (*self.faults, *self.recurring):
            names = (item.nodes if getattr(item, "rack", "")
                     or getattr(item, "nodes", ()) else (item.node,))
            for name in names:
                if name not in seen:
                    seen.append(name)
        return seen

    def racks(self) -> List[str]:
        """Every rack the plan severs (deduplicated, plan order)."""
        seen: List[str] = []
        for fault in self.faults:
            if fault.rack and fault.rack not in seen:
                seen.append(fault.rack)
        return seen

    def check_against(self, known_nodes: Iterable[str]) -> None:
        """Fail fast when the plan names a node the cluster lacks."""
        known = set(known_nodes)
        missing = [n for n in self.nodes() if n not in known]
        if missing:
            raise ValueError(
                f"fault plan targets unknown node(s) {missing}; "
                f"cluster has {sorted(known)}")

    def without_kinds(self, kinds: Iterable[str]) -> "FaultPlan":
        """A copy with every fault of the given kinds stripped.

        The durability acceptance check runs the committed day once
        with partitions and once with ``without_kinds(PARTITION_KINDS)``
        as the no-partition control for downtime accounting.
        """
        drop = set(kinds)
        return FaultPlan(
            faults=tuple(f for f in self.faults if f.kind not in drop),
            recurring=tuple(r for r in self.recurring
                            if r.kind not in drop))


def single_node_kill(node: str, at: float,
                     repair_s: Optional[float] = None) -> FaultPlan:
    """The headline plan: kill one node, optionally bring it back."""
    # "Never repaired" defaults to a repair beyond any realistic run,
    # still finite because disk_fail is the only permanent kind.
    repair = repair_s if repair_s is not None else 1e9
    return FaultPlan(faults=(node_crash(node, at, repair),))
