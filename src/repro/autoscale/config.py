"""Knobs for the autoscaling control plane.

Frozen dataclasses with validation, mirroring
:mod:`repro.resilience.config`: a config can be hashed into an
experiment manifest, serialised into the committed day plan, and an
``enabled=False`` :class:`AutoscaleConfig` (the default) is the
explicit "static fleet" marker — with it, constructing a hybrid
deployment wires no controller, spawns no processes and draws no
random numbers, keeping runs bit-identical to a build without this
package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..core.records import Record

#: Paper-grounded boot times, in simulated seconds.  The Edison runs
#: Yocto off flash and is up in single-digit seconds; an R620 POSTs
#: its way through iDRAC, RAID and PXE for tens of seconds.  Scaled to
#: the compressed day the same way the port-pool constants are.
DEFAULT_BOOT_S: Mapping[str, float] = {"edison": 8.0, "dell": 15.0}


@dataclass(frozen=True)
class PolicyConfig:
    """Shared policy knobs plus the predictive extension.

    The reactive rule targets ``target_utilization`` of the active
    fleet's aggregate capacity, with a hysteresis band
    (``low_utilization``..``high_utilization``) inside which it holds,
    and a ``cooldown_s`` gate on consecutive actions so one noisy
    sample cannot flap the fleet.  The predictive rule adds a
    least-squares extrapolation of the offered rate ``lookahead_s``
    ahead (defaulting to the slowest boot in the pool — capacity must
    be *ready* when the load arrives, not ordered then).
    """

    kind: str = "reactive"            # "reactive" | "predictive"
    target_utilization: float = 0.60
    high_utilization: float = 0.80
    low_utilization: float = 0.40
    eval_interval_s: float = 2.0
    metric_window_s: float = 6.0
    cooldown_s: float = 12.0
    history_s: float = 30.0           # predictive regression window
    lookahead_s: float = 0.0          # 0: derived from the pool's boots
    headroom: float = 1.0             # margin on the predicted rate

    def __post_init__(self):
        if self.kind not in ("reactive", "predictive"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not 0.0 < self.target_utilization < 1.0:
            raise ValueError("target_utilization must be in (0, 1)")
        if not (0.0 <= self.low_utilization < self.high_utilization <= 1.0):
            raise ValueError("need 0 <= low < high <= 1 utilization band")
        if not (self.low_utilization < self.target_utilization
                < self.high_utilization):
            raise ValueError("target_utilization must sit inside the band")
        if self.eval_interval_s <= 0 or self.metric_window_s <= 0:
            raise ValueError("eval/metric intervals must be > 0")
        if self.cooldown_s < 0 or self.history_s <= 0:
            raise ValueError("cooldown_s >= 0 and history_s > 0 required")
        if self.lookahead_s < 0 or self.headroom < 1.0:
            raise ValueError("lookahead_s >= 0 and headroom >= 1 required")


@dataclass(frozen=True)
class ActuationConfig:
    """How capacity changes become real: boots, drains, floors."""

    boot_s: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_BOOT_S))
    drain_poll_s: float = 0.5
    drain_timeout_s: float = 10.0
    #: Nodes that may never be powered off (a fleet must keep serving).
    min_active: int = 1

    def __post_init__(self):
        for platform, boot in self.boot_s.items():
            if boot < 0:
                raise ValueError(f"boot_s[{platform!r}] must be >= 0")
        if self.drain_poll_s <= 0 or self.drain_timeout_s < 0:
            raise ValueError("drain_poll_s > 0, drain_timeout_s >= 0")
        if self.min_active < 1:
            raise ValueError("min_active must be >= 1")


@dataclass(frozen=True)
class AutoscaleConfig(Record):
    """Top-level switch; off by default (static fleet, bit-identical)."""

    enabled: bool = False
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    actuation: ActuationConfig = field(default_factory=ActuationConfig)

    @classmethod
    def disabled(cls) -> "AutoscaleConfig":
        """The explicit static-fleet marker."""
        return cls(enabled=False)

    @classmethod
    def reactive(cls, **overrides) -> "AutoscaleConfig":
        return cls(enabled=True,
                   policy=PolicyConfig(kind="reactive", **overrides))

    @classmethod
    def predictive(cls, **overrides) -> "AutoscaleConfig":
        return cls(enabled=True,
                   policy=PolicyConfig(kind="predictive", **overrides))
