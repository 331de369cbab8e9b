"""Per-layer host-time tracing installed from outside the simulator.

The simulator's own sources are never edited: :class:`LayerTrace`
replaces chosen methods on the simulator's classes with timing
wrappers for the lifetime of one traced process.  A wrapped plain call
is one *activation*; a wrapped generator (a simulated process step
such as ``Cpu.execute``) gets one activation per resume, so simulated
waiting never counts as host time.  Activations nest on one stack: a
layer's self time is its activations' duration minus the time of the
wrapped activations nested inside them.

A wrapper costs host time on both sides of its clock window.  The part
inside (stack and counter updates, the counting hooks) is charged to
the wrapped layer; the part outside (entering the wrapper, building the
driving generator, keeping the span, and the extra generator frame
every resume passes through) is charged to whichever activation made
the call or drove the resume - mostly ``sim``, since the event kernel
resumes processes.  :meth:`LayerTrace.calibrate` measures both parts on
no-ops: inside from the recorded self time, outside as the rest of the
wrapped loops' time over the same loops unwrapped.
:meth:`LayerTrace.self_s` subtracts the inside cost from the wrapped
layer and the outside cost from the layer that hosted each activation.
The counting hooks are not calibrated; they stay in their own layer's
self time.

Generator wrappers forward ``send``, ``throw`` and ``close`` and return
the inner generator's return value, so ``yield from`` delegation,
``Interrupt`` delivery and resource-releasing ``finally`` blocks behave
exactly as unwrapped.  The wrappers never touch the simulation's RNG or
its event calendar, so a traced run's results equal the untraced run's.
"""

from __future__ import annotations

import statistics
import time
from types import GeneratorType
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: The host clock every wrapper reads.
CLOCK = time.perf_counter
#: Spans kept in memory per traced process; later calls are still timed
#: and counted, only their individual span rows are not kept.
MAX_SPANS = 100_000
#: Activations per calibration loop, and loops whose median is taken.
CALIBRATION_ACTIVATIONS = 20_000
CALIBRATION_BATCHES = 5


class WrapperCost(NamedTuple):
    """Host seconds one wrapper adds, inside and outside its window."""

    in_call: float = 0.0
    in_resume: float = 0.0
    out_call: float = 0.0
    #: Extra outside cost of a call that returns a generator.
    out_generator: float = 0.0
    out_resume: float = 0.0


class LayerStats:
    """Counters and host self time of one layer."""

    __slots__ = ("calls", "resumes", "yields", "self_s", "total_s",
                 "hosted_calls", "hosted_generators", "hosted_resumes",
                 "extra")

    def __init__(self):
        self.calls = 0
        #: Generator resumes (each one a timed activation).
        self.resumes = 0
        self.yields = 0
        #: Raw self time, wrapper bookkeeping included.
        self.self_s = 0.0
        #: Inclusive host time of activations that ran with no wrapped
        #: activation around them.
        self.total_s = 0.0
        #: Wrapped calls made, generators built and resumes driven while
        #: this layer was the running activation: the outside part of
        #: those wrappers' cost lies in this layer's raw self time.
        self.hosted_calls = 0
        self.hosted_generators = 0
        self.hosted_resumes = 0
        #: Layer-specific counters filled by the entry-point hooks.
        self.extra: Dict[str, float] = {}

    def bump(self, key: str, amount: float = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


class LayerTrace:
    """Owns the wrappers, the activation stack and the kept spans."""

    def __init__(self):
        self.layers: Dict[str, LayerStats] = {}
        #: (span id, parent span id, layer, entry, sim start, sim end,
        #: host self seconds) - parent 0 means no enclosing span.
        self.spans: List[Tuple] = []
        #: The simulation whose clock the spans read (set by a hook).
        self.sim = None
        self.overhead = WrapperCost()
        self._next_id = 1
        self._current = 0            # span id of the running activation
        #: Stats of the running activation; outside any, a sink that no
        #: layer reports.
        self._running = LayerStats()
        self._child_time: List[float] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def stats(self, layer: str) -> LayerStats:
        stats = self.layers.get(layer)
        if stats is None:
            stats = self.layers[layer] = LayerStats()
        return stats

    def wrap(self, owner, attr: str, layer: str,
             on_result: Optional[Callable] = None,
             on_yield: Optional[Callable] = None,
             on_finish: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a timing wrapper charged to ``layer``.

        Hooks receive the layer's :class:`LayerStats` first:
        ``on_result(stats, args, result)`` after every call,
        ``on_yield(stats, args, index, item)`` for each value a wrapped
        generator yields and ``on_finish(stats, args, sim_start, value)``
        when it returns.  They run inside the clock window.
        """
        original = owner.__dict__[attr]
        wrapper = self._make_wrapper(original, attr, layer, on_result,
                                     on_yield, on_finish)
        wrapper.__name__ = original.__name__
        wrapper.__doc__ = original.__doc__
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order of wrapping)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def self_s(self, layer: str) -> float:
        """Self time of ``layer`` with the wrapper bookkeeping removed."""
        stats = self.stats(layer)
        c = self.overhead
        cost = (stats.calls * c.in_call + stats.resumes * c.in_resume
                + stats.hosted_calls * c.out_call
                + stats.hosted_generators * c.out_generator
                + stats.hosted_resumes * c.out_resume)
        return max(0.0, stats.self_s - cost)

    def calibrate(self) -> None:
        """Measure a wrapper's cost around no work, inside its window and
        out, as the median over ``CALIBRATION_BATCHES`` loops."""

        class Probe:
            def call(self):
                return None

            def steps(self, n):
                for _ in range(n):
                    yield None

        n = CALIBRATION_ACTIVATIONS
        clock = CLOCK

        def loops(target, stats):
            """Wall and recorded self time of n plain calls, n one-resume
            generators and one generator of n + 1 resumes."""
            out = []
            for phase in range(3):
                recorded = stats.self_s
                t0 = clock()
                if phase == 0:
                    for _ in range(n):
                        target.call()
                elif phase == 1:
                    for _ in range(n):
                        for _ in target.steps(0):
                            pass
                else:
                    for _ in target.steps(n):
                        pass
                out.append((clock() - t0, stats.self_s - recorded))
            return out

        samples = []
        for _ in range(CALIBRATION_BATCHES):
            bare = loops(Probe(), LayerStats())
            probe = LayerTrace()
            probe.wrap(Probe, "call", "probe")
            probe.wrap(Probe, "steps", "probe")
            try:
                wrapped = loops(Probe(), probe.stats("probe"))
            finally:
                probe.uninstall()
            (calls, in_calls), (gens, in_gens), (resumes, in_resumes) = wrapped
            in_call = in_calls / n
            in_resume = (in_resumes - in_call) / (n + 1)
            out_call = (calls - bare[0][0] - in_calls) / n
            out_resume = (resumes - bare[2][0] - in_resumes) / (n + 1)
            out_generator = ((gens - bare[1][0] - in_gens) / n
                             - out_call - out_resume)
            samples.append((in_call, in_resume, out_call, out_generator,
                            out_resume))
        self.overhead = WrapperCost(*(max(0.0, statistics.median(column))
                                      for column in zip(*samples)))

    # -- timing -------------------------------------------------------------

    def _sim_now(self) -> float:
        sim = self.sim
        return sim._now if sim is not None else 0.0

    def _keep_span(self, span_id: int, parent: int, layer: str, entry: str,
                   sim_start: float, self_s: float) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, layer, entry, sim_start,
                               self._sim_now(), self_s))

    def _make_wrapper(self, fn, entry: str, layer: str, on_result,
                      on_yield, on_finish):
        trace = self
        stats = self.stats(layer)
        clock = CLOCK
        child_time = self._child_time

        def wrapper(*args, **kwargs):
            t0 = clock()
            child_time.append(0.0)
            stats.calls += 1
            caller = trace._running
            caller.hosted_calls += 1
            span_id = trace._next_id
            trace._next_id = span_id + 1
            parent = trace._current
            trace._current = span_id
            trace._running = stats
            sim_start = trace._sim_now()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(stats, args, result)
            finally:
                trace._current = parent
                trace._running = caller
                nested = child_time.pop()
                elapsed = clock() - t0
                self_s = elapsed - nested
                stats.self_s += self_s
                if child_time:
                    child_time[-1] += elapsed
                else:
                    stats.total_s += elapsed
            if type(result) is GeneratorType:
                caller.hosted_generators += 1
                return trace._drive(result, stats, layer, entry, span_id,
                                    parent, sim_start, self_s, args,
                                    on_yield, on_finish)
            trace._keep_span(span_id, parent, layer, entry, sim_start, self_s)
            return result

        return wrapper

    def _drive(self, gen, stats: LayerStats, layer: str, entry: str,
               span_id: int, parent: int, sim_start: float, self_s: float,
               args, on_yield, on_finish):
        """Run ``gen`` with one timed activation per resume."""
        clock = CLOCK
        child_time = self._child_time
        send_value = None
        pending: Optional[BaseException] = None
        index = 0
        while True:
            t0 = clock()
            child_time.append(0.0)
            outer, resumer = self._current, self._running
            resumer.hosted_resumes += 1
            self._current, self._running = span_id, stats
            stats.resumes += 1
            done = False
            try:
                if pending is None:
                    item = gen.send(send_value)
                else:
                    exc, pending = pending, None
                    item = gen.throw(exc)
                if on_yield is not None:
                    on_yield(stats, args, index, item)
            except StopIteration as stop:
                done = True
                value = stop.value
                if on_finish is not None:
                    on_finish(stats, args, sim_start, value)
            finally:
                # Runs on a yield, on return and when the inner generator
                # raises, so the activation stack always stays balanced.
                self._current, self._running = outer, resumer
                nested = child_time.pop()
                elapsed = clock() - t0
                own = elapsed - nested
                stats.self_s += own
                self_s += own
                if child_time:
                    child_time[-1] += elapsed
                else:
                    stats.total_s += elapsed
            if done:
                self._keep_span(span_id, parent, layer, entry, sim_start,
                                self_s)
                return value
            stats.yields += 1
            index += 1
            try:
                send_value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                # Delivered by throw(): forward it into the inner
                # generator, which handles or re-raises it.
                pending = exc
                send_value = None
