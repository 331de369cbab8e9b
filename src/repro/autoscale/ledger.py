"""The autoscale ledger: what elasticity itself cost.

Same philosophy as :class:`repro.resilience.ResilienceLedger`: the
power meter's joule total is ground truth (a booting node's idle draw
and a draining node's lingering watts are all really sampled), and the
ledger *itemises* the slice of that total spent changing capacity
rather than serving with it — plus an action log so tests can assert
actuation ordering (deregister, drain, power off; boot, register).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.records import Record
from ..energy.account import ScalingCosts


@dataclass(frozen=True)
class ScalingAction(Record):
    """One actuation step, timestamped on the simulation clock."""

    time: float
    action: str      # "boot" | "serve" | "drain" | "off"
    node: str


class AutoscaleLedger:
    """Counters, itemised joules and the ordered action log."""

    def __init__(self):
        self.counters: Dict[str, int] = {
            "evals": 0,
            "holds": 0,
            "boots": 0,
            "drains": 0,
            "drain_timeouts": 0,
        }
        self.boot_joules = 0.0
        self.drain_joules = 0.0
        self.node_joules: Dict[str, float] = {}
        self.actions: List[ScalingAction] = []

    def count(self, counter: str, n: int = 1) -> None:
        self.counters[counter] += n

    def log(self, time: float, action: str, node: str) -> None:
        self.actions.append(ScalingAction(time, action, node))

    def charge_boot(self, node: str, seconds: float, watts: float) -> None:
        """Idle-draw energy between power-on and entering service."""
        self._charge(node, seconds, watts, "boot")

    def charge_drain(self, node: str, seconds: float, watts: float) -> None:
        """Drained-but-on energy between deregistration and power-off."""
        self._charge(node, seconds, watts, "drain")

    def _charge(self, node: str, seconds: float, watts: float,
                category: str) -> None:
        if seconds < 0 or watts < 0:
            raise ValueError("seconds and watts must be >= 0")
        joules = seconds * watts
        if category == "boot":
            self.boot_joules += joules
        else:
            self.drain_joules += joules
        self.node_joules[node] = self.node_joules.get(node, 0.0) + joules

    def to_scaling_costs(self) -> ScalingCosts:
        return ScalingCosts(boot_j=self.boot_joules,
                            drain_j=self.drain_joules)

    def summary(self) -> Dict[str, object]:
        return {
            "counters": dict(self.counters),
            "boot_joules": round(self.boot_joules, 6),
            "drain_joules": round(self.drain_joules, 6),
            "node_joules": {k: round(v, 6)
                            for k, v in sorted(self.node_joules.items())},
            "actions": [a.to_dict() for a in self.actions],
        }
