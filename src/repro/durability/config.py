"""Knobs for the durability plane.

Frozen dataclasses with validation, mirroring :mod:`repro.dvfs.config`:
a config can be serialised into the committed durability day, and an
``enabled=False`` :class:`DurabilityConfig` (the default) is the
explicit "PR-9 behaviour" marker — with it, no phi detector, heartbeat
feeder, repair monitor, ledger or sampler exists, keeping runs
bit-identical to a build without this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.records import Record


@dataclass(frozen=True)
class PhiConfig:
    """The phi-accrual failure detector's knobs.

    ``threshold`` is the suspicion level (Hayashibara's phi): 8 means
    "the odds this silence is ordinary jitter are 1 in 10^8".
    ``heartbeat_s`` is the NodeManager heartbeat period the seeded
    feeder streams jitter around; ``window`` and ``min_std_s`` bound
    the inter-arrival history the detector fits.  ``enabled=False``
    falls back to YARN's fixed heartbeat-count expiry.
    """

    enabled: bool = True
    threshold: float = 8.0
    window: int = 64
    min_std_s: float = 0.05
    heartbeat_s: float = 1.0

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be > 0")
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.min_std_s <= 0 or self.heartbeat_s <= 0:
            raise ValueError("min_std_s and heartbeat_s must be > 0")


@dataclass(frozen=True)
class RepairConfig:
    """The NameNode-style re-replication loop's knobs.

    ``confirm_s`` is the fixed loss-confirmation window used when no
    phi detector is armed (``dfs.namenode.heartbeat.recheck`` in
    spirit); ``throttle_bps`` caps aggregate repair traffic like
    ``dfs.datanode.balance.bandwidthPerSec``; ``max_streams`` bounds
    concurrent block copies.
    """

    enabled: bool = True
    confirm_s: float = 2.0
    throttle_bps: float = 200e6
    max_streams: int = 2

    def __post_init__(self):
        if self.confirm_s < 0:
            raise ValueError("confirm_s must be >= 0")
        if self.throttle_bps <= 0:
            raise ValueError("throttle_bps must be > 0")
        if self.max_streams < 1:
            raise ValueError("max_streams must be >= 1")


@dataclass(frozen=True)
class DurabilityConfig(Record):
    """Top-level switch; off by default (bit-identical to PR 9)."""

    enabled: bool = False
    rack_aware: bool = False
    phi: PhiConfig = field(default_factory=PhiConfig)
    repair: RepairConfig = field(default_factory=RepairConfig)
    sample_interval_s: float = 1.0

    def __post_init__(self):
        if self.sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be > 0")

    @classmethod
    def disabled(cls) -> "DurabilityConfig":
        """The explicit everything-off marker."""
        return cls(enabled=False)

    @classmethod
    def full(cls, rack_aware: bool = True, **overrides
             ) -> "DurabilityConfig":
        """Phi detection + repair + ledger, the whole plane."""
        return cls(enabled=True, rack_aware=rack_aware, **overrides)
