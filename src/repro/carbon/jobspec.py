"""Deferrable work: MapReduce jobs with release times and deadlines.

A :class:`CarbonJobSpec` wraps one of the repo's MapReduce jobs in the
three numbers a deferral policy needs: when the job *may* start
(release), when it *must* finish (deadline), and how long it is
expected to run on each platform (the estimate the policies budget
waiting and suspension time against — measured once at plan-build time
and committed with the plan, like any other calibration constant).

``CARBON_JOB_KINDS`` maps a kind name to a factory producing the
concrete ``(JobSpec, HadoopConfig)`` at the compressed-day scale the
committed experiment uses: a mini TeraSort (the paper's most
shuffle-bound job) and a scan over a WikiDB-shaped sample (the paper's
web-serving dataset put through batch analytics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Tuple

from ..core.records import Record
from ..mapreduce.config import HadoopConfig, default_config
from ..mapreduce.costs import JobCosts
from ..mapreduce.jobs.terasort import MAP_MEM, REDUCE_MEM, TERASORT_COSTS
from ..mapreduce.runtime import JobSpec
from ..workloads import terasort_dataset
from ..workloads.datasets import Dataset, split_evenly
from ..workloads.wikidb import MEAN_TEXT_ROW_BYTES


def _terasort_mini(platform: str) -> Tuple[JobSpec, HadoopConfig]:
    """TeraSort at 1/160th scale: 64 MB over 16 maps, 4 reducers."""
    dataset = terasort_dataset(total_bytes=64_000_000, files=16)
    spec = JobSpec(
        name="terasort-mini", costs=TERASORT_COSTS,
        map_tasks=dataset.file_count, reduce_tasks=4,
        map_mem_mb=MAP_MEM[platform], reduce_mem_mb=REDUCE_MEM[platform],
        dataset=dataset, combiner=False, output_ratio=1.0)
    return spec, default_config(platform)


#: Scan/aggregate cost surface: map-dominant, cheap reduce, and the
#: same per-platform JVM factor TeraSort calibrated.
WIKIDB_SCAN_COSTS = JobCosts(
    map_mi_per_mb=420.0, sort_mi_per_mb=60.0, reduce_mi_per_mb=150.0,
    java_factor=dict(TERASORT_COSTS.java_factor))


def _wikidb_scan(platform: str) -> Tuple[JobSpec, HadoopConfig]:
    """Aggregate scan over a WikiDB-shaped text sample.

    The web tier's database, run through batch analytics: 48 MB of
    wiki-row-sized records, tiny aggregate output (a combiner-friendly
    group-by), one reducer per two maps' worth of keys.
    """
    dataset = Dataset(
        name="wikidb-sample",
        files=split_evenly(48_000_000, 12, "wikidb",
                           bytes_per_record=MEAN_TEXT_ROW_BYTES),
        map_output_record_bytes=64.0,
        map_output_ratio=0.20,
        combine_survival=0.30)
    spec = JobSpec(
        name="wikidb-scan", costs=WIKIDB_SCAN_COSTS,
        map_tasks=dataset.file_count, reduce_tasks=3,
        map_mem_mb=MAP_MEM[platform], reduce_mem_mb=REDUCE_MEM[platform],
        dataset=dataset, combiner=True, output_ratio=0.05)
    return spec, default_config(platform)


CARBON_JOB_KINDS: Dict[str, Callable[[str], Tuple[JobSpec, HadoopConfig]]] \
    = {
        "terasort-mini": _terasort_mini,
        "wikidb-scan": _wikidb_scan,
    }


@dataclass(frozen=True)
class CarbonJobSpec(Record):
    """One deferrable job in the day's workload."""

    name: str
    kind: str                       # key into CARBON_JOB_KINDS
    release_s: float                # earliest allowed start (day clock)
    deadline_s: float               # must finish by (day clock)
    #: Expected runtime per platform, simulated seconds — the committed
    #: calibration the policies budget against.
    est_s: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in CARBON_JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r} "
                             f"(have {sorted(CARBON_JOB_KINDS)})")
        if self.release_s < 0:
            raise ValueError("release_s must be >= 0")
        if self.deadline_s <= self.release_s:
            raise ValueError("deadline_s must be > release_s")
        for platform, est in self.est_s.items():
            if est <= 0:
                raise ValueError(f"est_s[{platform!r}] must be > 0")

    def build(self, platform: str) -> Tuple[JobSpec, HadoopConfig]:
        """Materialise the underlying MapReduce job for ``platform``."""
        return CARBON_JOB_KINDS[self.kind](platform)

    def estimate(self, platform: str) -> float:
        """The committed runtime estimate for ``platform``."""
        if platform not in self.est_s:
            raise KeyError(f"no runtime estimate for {platform!r} on "
                           f"job {self.name!r}")
        return self.est_s[platform]

    def slack_s(self, platform: str) -> float:
        """Deadline slack beyond the estimated runtime."""
        return (self.deadline_s - self.release_s) - self.estimate(platform)
