"""Charging metered joules against the grid's clock.

The power meter is ground truth, as everywhere else in the repo: each
run's sampled watts integrate to its joules.  The carbon ledger adds
the *when*: the same trapezoids, shifted onto the day clock and
weighted by the intensity and tariff traces through
:func:`repro.tco.weighted_energy_rate`, become grams of CO2 and
dollars.  Two runs with identical joules can differ 3x in grams purely
by where the day they landed — that difference is the whole subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.records import Record
from ..energy.account import GridImpact
from ..tco.model import weighted_energy_rate
from .trace import SignalTrace


def grid_impact(power_pairs, start_day_s: float, intensity: SignalTrace,
                price: SignalTrace) -> GridImpact:
    """Score one run's power trace against the day's grid signals.

    ``power_pairs`` is the run-local ``(t, watts)`` trace (a
    :class:`~repro.sim.TimeSeries` or plain pairs); ``start_day_s``
    shifts it onto the day clock the traces are indexed by.
    """
    pairs = list(power_pairs.pairs() if hasattr(power_pairs, "pairs")
                 else power_pairs)
    if not pairs:
        return GridImpact()
    shifted = [(start_day_s + t, w) for t, w in pairs]
    start, end = shifted[0][0], shifted[-1][0]
    grams = weighted_energy_rate(shifted, intensity.steps(start, end))
    usd = weighted_energy_rate(shifted, price.steps(start, end))
    return GridImpact(grams_co2=grams, energy_usd=usd)


@dataclass(frozen=True)
class JobRecord(Record):
    """One deferrable job's day, fully accounted."""

    json_tail = ("wait_s", "deadline_met", "suspensions", "suspended_s")

    name: str
    kind: str
    release_s: float
    deadline_s: float
    start_s: float                  # day clock
    end_s: float                    # day clock
    #: Exact run duration as the simulation reported it — ``end_s -
    #: start_s`` loses low bits to the day-clock addition, and the
    #: off-path smoke compares durations float-for-float.
    seconds: float
    joules: float
    grams_co2: float
    energy_usd: float
    suspensions: int = 0
    suspended_s: float = 0.0

    @property
    def wait_s(self) -> float:
        """Queue + policy delay before the job began."""
        return self.start_s - self.release_s

    @property
    def deadline_met(self) -> bool:
        return self.end_s <= self.deadline_s


@dataclass(frozen=True)
class GovernorAction(Record):
    """One suspend/resume flip, on the day clock."""

    time: float
    job: str
    action: str                     # "suspend" | "resume"


class CarbonLedger:
    """Per-job records plus the day's totals for one policy arm."""

    def __init__(self):
        self.records: List[JobRecord] = []
        self.actions: List[GovernorAction] = []

    def add(self, record: JobRecord) -> None:
        self.records.append(record)

    def log_action(self, time: float, job: str, action: str) -> None:
        self.actions.append(GovernorAction(time, job, action))

    # -- totals -----------------------------------------------------------

    @property
    def joules(self) -> float:
        return sum(r.joules for r in self.records)

    @property
    def grams_co2(self) -> float:
        return sum(r.grams_co2 for r in self.records)

    @property
    def energy_usd(self) -> float:
        return sum(r.energy_usd for r in self.records)

    @property
    def wait_hours(self) -> float:
        return sum(r.wait_s for r in self.records) / 3600.0

    @property
    def deadline_misses(self) -> int:
        return sum(1 for r in self.records if not r.deadline_met)

    @property
    def suspensions(self) -> int:
        return sum(r.suspensions for r in self.records)

    @property
    def suspended_s(self) -> float:
        return sum(r.suspended_s for r in self.records)

    def to_grid_impact(self) -> GridImpact:
        return GridImpact(grams_co2=self.grams_co2,
                          energy_usd=self.energy_usd)

    def summary(self) -> Dict[str, object]:
        return {
            "jobs": len(self.records),
            "joules": round(self.joules, 6),
            "grams_co2": round(self.grams_co2, 6),
            "energy_usd": round(self.energy_usd, 8),
            "wait_hours": round(self.wait_hours, 6),
            "deadline_misses": self.deadline_misses,
            "suspensions": self.suspensions,
            "suspended_s": round(self.suspended_s, 3),
            "records": [r.to_dict() for r in self.records],
            "actions": [a.to_dict() for a in self.actions],
        }
