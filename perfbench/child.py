"""Run one repetition of one workload in this process; print its record.

``run.py`` starts this script once per repetition so that every
repetition pays its own interpreter start, imports and testbed build,
which is what ``setup_s`` measures.  The record is one JSON line on
standard output.

    python3 perfbench/child.py --workload web_edison_35 --seed 1 [--trace]
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = HERE / "out"


#: Host CPU seconds between two host-speed samples.
SAMPLE_EVERY_S = 0.01
#: Heap operations in one reference-loop sample.
REFERENCE_STEPS = 300
#: The reference loop's time, inside the handler, on an uncontended
#: core of a 2.1 GHz Xeon; it only fixes the unit of the rescaled times.
REFERENCE_S = 1.1e-4


class HostSpeed:
    """Samples how fast the host runs while the simulation runs.

    The benchmark host shares its cores: the same work can take 1.5x
    longer for tens of seconds at a time.  Every ``SAMPLE_EVERY_S`` of
    process CPU time a ``SIGPROF`` handler times a fixed reference loop
    (a heap of plain ints: no objects the garbage collector tracks, no
    simulator code).  Sampling is uniform in CPU time, so the mean of
    ``REFERENCE_S / sample`` over an interval converts that interval's
    CPU seconds into seconds at the uncontended speed.
    """

    def __init__(self):
        self.ratios: List[float] = []
        self.cost = 0.0              # seconds spent inside the handler
        self._heap = list(range(256))
        self._table = {i: 0 for i in range(256)}
        self._previous = None

    def _tick(self, signum, frame) -> None:
        heap, table = self._heap, self._table
        replace = heapq.heapreplace
        t0 = time.perf_counter()
        for i in range(REFERENCE_STEPS):
            table[i & 255] = replace(heap, (i * 7919) % 1009)
        elapsed = time.perf_counter() - t0
        self.ratios.append(REFERENCE_S / elapsed)
        self.cost += elapsed

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None

    def mark(self) -> Tuple[int, float]:
        return len(self.ratios), self.cost

    def normalise(self, cpu_s: float, since: Tuple[int, float]) -> float:
        """``cpu_s`` of CPU time since ``since``, at uncontended speed."""
        index, cost = since
        ratios = self.ratios[index:]
        work = cpu_s - (self.cost - cost)
        if not ratios:
            return work
        return work * sum(ratios) / len(ratios)


class RunClock:
    """Host CPU time spent inside ``Simulation.run``.

    ``setup_s`` ends when the first simulated event is about to run:
    interpreter start, imports, testbed build, HDFS staging and RNG
    set-up all come before it.  Both ``setup_s`` and ``host_s`` are
    rescaled by :class:`HostSpeed`; the ``raw_`` values are not.
    """

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.raw_setup_s: Optional[float] = None
        self.setup_s: Optional[float] = None
        self.raw_host_s = 0.0
        self.host_s = 0.0
        self.sim = None
        self._restore = None

    def install(self, simulation_cls) -> None:
        original = simulation_cls.run
        clock = self
        speed = self.speed

        def run(sim, *args, **kwargs):
            mark = speed.mark()
            t0 = time.process_time()
            if clock.raw_setup_s is None:
                clock.raw_setup_s = t0
                clock.setup_s = speed.normalise(t0, (0, 0.0))
            clock.sim = sim
            try:
                return original(sim, *args, **kwargs)
            finally:
                raw = time.process_time() - t0
                clock.raw_host_s += raw
                clock.host_s += speed.normalise(raw, mark)

        simulation_cls.run = run
        self._restore = (simulation_cls, original)

    def uninstall(self) -> None:
        if self._restore is not None:
            cls, original = self._restore
            cls.run = original
            self._restore = None


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    return repro


def digest(result: Dict) -> str:
    """SHA-256 over every result field; floats keep all their digits."""
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def write_spans(trace, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("span,parent,layer,entry,sim_start,sim_end,self_us\n")
        for span, parent, layer, entry, t0, t1, self_s in trace.spans:
            fh.write(f"{span},{parent},{layer},{entry},{t0!r},{t1!r},"
                     f"{self_s * 1e6:.3f}\n")


def run_rep(workload: str, seed: int, speed: HostSpeed,
            traced: bool = False, tiny: bool = False,
            span_path: Optional[Path] = None) -> Dict:
    """Run one repetition here and return its record.

    ``speed`` is the host-speed sampler, started as early as possible
    by the caller; it is stopped here.
    """
    import_repro()
    sys.path.insert(0, str(HERE))
    from cells import CELLS
    from repro.sim.kernel import Simulation

    cell = CELLS[workload]
    trace = None
    clock = RunClock(speed)
    try:
        if traced:
            from layers import install, layer_metrics, self_seconds
            from layertrace import LayerTrace
            trace = install(LayerTrace())
        clock.install(Simulation)
        outcome = cell(seed, tiny)
    finally:
        speed.stop()
        clock.uninstall()
        if trace is not None:
            trace.uninstall()
    calendar = clock.sim.calendar_stats()
    record = {
        "workload": workload, "seed": seed, "traced": traced,
        "setup_s": clock.setup_s,
        "host_s": clock.host_s,
        "raw_setup_s": clock.raw_setup_s,
        "raw_host_s": clock.raw_host_s,
        "speed_samples": len(speed.ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0,
        "events": calendar["processed"],
        "digest": digest(outcome.result),
        "checks": outcome.checks,
        "anchors": {name: {"label": a.label, "simulated": a.simulated,
                           "paper": a.paper, "err_pct": a.err_pct}
                    for name, a in (("perf", outcome.perf),
                                    ("energy", outcome.energy))},
        "note": outcome.note,
    }
    if trace is not None:
        record["layers"] = layer_metrics(trace, calendar)
        record["self_s"] = self_seconds(trace)
        record["spans_kept"] = len(trace.spans)
        if span_path is not None:
            write_spans(trace, span_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    speed = HostSpeed()
    speed.start()
    span_path = (SPAN_DIR / f"{args.workload}.spans.csv"
                 if args.trace else None)
    record = run_rep(args.workload, args.seed, speed, traced=args.trace,
                     span_path=span_path)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
