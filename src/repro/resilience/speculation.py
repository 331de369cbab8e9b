"""LATE speculative execution for MapReduce map tasks.

The runtime creates a :class:`SpecBoard` only when speculation is on and
drives each map task's :class:`TaskCell` through a small seam (attempt
started, attempt ended, has a twin won, task done).  The straggler
baseline, the capped twin pool and the joules wasted live here.
"""

from __future__ import annotations

from functools import partial
import statistics
from typing import List, Optional, Tuple

from ..mapreduce import costs as C
from ..mapreduce.hdfs import BlockUnavailable
from ..mapreduce.runtime import TaskFailed
from ..sim import Interrupt
from .ledger import charge_vcore_waste


class SpeculationWin(Exception):
    """Interrupt cause: a speculative twin finished first; adopt it."""

    def __init__(self, node: str, out_bytes: float):
        super().__init__(f"speculative twin won on {node}")
        self.node = node
        self.out_bytes = out_bytes


class SpeculationKill(Exception):
    """Interrupt cause: the original attempt finished; twin is redundant."""


def estimate_map_s(spec, factor: float, servers) -> float:
    """Cost-model anchor for the straggler baseline.

    Used until enough attempts have completed for the running
    median to be trusted; deliberately coarse (CPU at the loaded
    vcore rate plus the launch/commit floors — I/O omitted), since
    it only has to be the right order of magnitude.
    """
    split = spec.input_bytes / spec.map_tasks if spec.dataset else 0.0
    out = (split * spec.dataset.map_output_ratio if spec.dataset else 0.0)
    mi = (spec.costs.map_mi(split, out) + C.JVM_START_MI) * factor
    # Median per-slave rate, not slave 0's: on a mixed Edison+Dell
    # pool a Dell anchor would flag every Edison attempt as a straggler.
    rate = statistics.median(server.cpu.spec.vcore_dmips
                             for server in servers)
    return C.TASK_LAUNCH_S + C.TASK_COMMIT_S + mi / rate


class TaskCell:
    """Shared scoreboard entry between a map task and its speculative twin."""

    __slots__ = ("index", "board", "primary", "hdfs_file", "started_at",
                 "node", "spec_process", "done", "winner")

    def __init__(self, index: int, board: "SpecBoard"):
        self.index = index
        self.board = board
        self.primary = None          # the map task's Process
        self.hdfs_file = None        # input split, once drawn
        self.started_at = None       # start of the running attempt, if any
        self.node = None             # node of the latest attempt
        self.spec_process = None     # the twin's Process, once launched
        self.done = False            # task completed (either attempt)
        #: (node, out_bytes) once the twin finished first, else None.
        self.winner: Optional[Tuple[str, float]] = None

    # -- the runtime's seam ------------------------------------------------

    def attempt_started(self, node: str, hdfs_file) -> None:
        self.primary = self.board.sim.active_process
        self.hdfs_file = hdfs_file
        self.started_at = self.board.sim.now
        self.node = node

    def attempt_ended(self) -> None:
        self.started_at = None

    def lost_race(self, cause, node: str,
                  seconds: float) -> Optional[Tuple[str, float]]:
        """The twin's output if ``cause`` is its win (the interrupted
        attempt's partial work is then billed), else None."""
        if not isinstance(cause, SpeculationWin):
            return None
        self.board.charge(node, seconds)
        return cause.node, cause.out_bytes

    def task_done(self, seconds: Optional[float]) -> None:
        """The task finished: by its own attempt (``seconds`` long) or,
        with ``seconds`` None, by adopting the twin's output."""
        if seconds is not None:
            self.board.durations.append(seconds)
        self.done = True
        twin = self.spec_process
        if self.winner is None and twin is not None and twin.is_alive:
            # First-finisher-wins: the twin is now redundant.
            twin.interrupt(SpeculationKill())


class SpecBoard:
    """All of a job's task cells, the completed-attempt durations, and
    the monitor that launches speculative twins."""

    def __init__(self, runner, state):
        self.runner = runner
        self.sim = runner.sim
        self.cfg = runner.resilience.speculation_cfg
        self.ledger = runner.resilience_ledger
        self.state = state
        self.cells: List[TaskCell] = []
        self.durations: List[float] = []

    def cell(self, index: int) -> TaskCell:
        cell = TaskCell(index, self)
        self.cells.append(cell)
        return cell

    def start(self) -> None:
        self.sim.process(self._monitor(), name="speculation-monitor")

    def charge(self, node: str, seconds: float) -> None:
        """Bill a killed attempt's partial work to the resilience ledger."""
        charge_vcore_waste(self.ledger, "speculation",
                           self.runner.cluster.servers[node], seconds)
        self.ledger.count("speculative_kills")

    def _monitor(self):
        """Job-wide straggler scan, LATE-style.

        Every ``check_interval_s`` the monitor compares each running
        attempt's elapsed time against ``late_factor`` times the median
        completed-attempt duration (cost-model estimate until
        ``min_completed`` attempts exist) and launches capped
        speculative twins for the laggards.
        """
        cfg = self.cfg
        state = self.state
        estimate = estimate_map_s(state.spec, state.map_factor,
                                  self.runner.slave_servers)
        while not state.all_maps_done.triggered:
            yield cfg.check_interval_s
            if state.all_maps_done.triggered:
                return
            if len(self.durations) >= cfg.min_completed:
                baseline = statistics.median(self.durations)
            else:
                baseline = estimate
            threshold = cfg.late_factor * baseline
            outstanding = sum(
                1 for c in self.cells
                if c.spec_process is not None and c.spec_process.is_alive)
            now = self.sim.now
            # LATE launches against the *worst* stragglers first: with a
            # capped twin pool, spending a slot on a 2x laggard while a
            # 10x one waits forfeits most of the tail saving.  Elapsed
            # time stands in for estimated time-to-end (same input split
            # size, so longer-running means further from done); ties keep
            # task-index order, which keeps the scan deterministic.
            laggards = sorted(
                (c for c in self.cells
                 if not (c.done or c.spec_process is not None
                         or c.started_at is None)
                 and now - c.started_at > threshold),
                key=lambda c: now - c.started_at, reverse=True)
            for cell in laggards:
                if outstanding >= cfg.max_outstanding:
                    break
                outstanding += 1
                self.ledger.count("speculative_launches")
                cell.spec_process = self.sim.process(
                    self._twin(cell), name=f"spec-map-{cell.index}")
                if self.sim.trace is not None:
                    self.sim.trace.instant(
                        "speculation.launch", category="resilience",
                        task=cell.index, elapsed_s=now - cell.started_at,
                        baseline_s=baseline)

    def _twin(self, cell: TaskCell):
        """A speculative twin of one straggling map attempt.

        Races the original: whoever finishes first wins, the loser is
        killed and its joules land on the resilience ledger.  The twin
        is deliberately second-class — its container request gives up
        after a bounded number of heartbeats so speculation never
        starves first attempts on a full cluster.
        """
        runner = self.runner
        ledger = self.ledger
        faults = self.sim.faults
        avoid = (cell.node,) if cell.node is not None else ()
        try:
            grant = yield from runner.yarn.allocate(
                self.state.spec.map_mem_mb,
                max_heartbeats=self.cfg.allocation_heartbeats,
                avoid=avoid)
        except Interrupt:
            return                       # killed while still queueing: free
        if grant is None:
            ledger.count("speculative_abandoned")
            # The cluster was full; let the monitor try again later,
            # when the map tail has freed slots.
            cell.spec_process = None
            return
        if cell.done or (faults is not None and not faults.is_up(grant.node)):
            runner.yarn.release(grant)
            if cell.done:
                ledger.count("speculative_abandoned")
            return
        start = self.sim.now
        process = self.sim.active_process
        trace = self.sim.trace
        attempt_ctx = trace.child_context(runner._job_ctx) \
            if trace is not None else None
        span = partial(runner._trace_attempt, "map", grant.node, start, 0,
                       speculative=True, ctx=attempt_ctx)
        if faults is not None:
            faults.bind(grant.node, process)
        try:
            out_bytes = yield from runner._map_attempt(
                self.state.spec, self.state.map_factor, grant.node,
                cell.hdfs_file, ctx=attempt_ctx)
        except (TaskFailed, Interrupt, BlockUnavailable):
            # Killed by the winner, lost its node, or died on its own:
            # either way the partial work is pure overhead.
            self.charge(grant.node, self.sim.now - start)
            span(ok=False)
            return
        finally:
            if faults is not None:
                faults.unbind(grant.node, process)
            runner.yarn.release(grant)
        if cell.done:
            # Photo finish, original side already committed: duplicate.
            self.charge(grant.node, self.sim.now - start)
            span(ok=False)
            return
        self.durations.append(self.sim.now - start)
        cell.winner = (grant.node, out_bytes)
        ledger.count("speculative_wins")
        span(ok=True, out_bytes=out_bytes)
        if cell.started_at is not None:
            cell.primary.interrupt(SpeculationWin(grant.node, out_bytes))
