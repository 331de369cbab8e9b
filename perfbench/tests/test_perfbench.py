"""Self-tests of the benchmark: wrapper transparency, the metric
contract in BENCHMARK.json, and a tiny run of every workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
from cells import CELLS  # noqa: E402
from layers import SHARE_LAYERS, install, layer_metrics  # noqa: E402
from layertrace import LayerTrace, WrapperCost  # noqa: E402
from repro.hardware.profiles import EDISON, make_server  # noqa: E402
from repro.mapreduce.config import default_config  # noqa: E402
from repro.mapreduce.yarn import YarnScheduler  # noqa: E402
from repro.sim import Interrupt, RngStreams, Simulation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- wrapper transparency ------------------------------------------------------

class Toy:
    def add(self, a, b):
        return a + b

    def boom(self):
        raise KeyError("boom")

    def steps(self, log):
        try:
            got = yield 1
            log.append(("got", got))
            try:
                yield 2
            except ValueError as exc:
                log.append(("caught", str(exc)))
            yield 3
            return "done"
        finally:
            log.append("finally")


@pytest.fixture
def toy():
    trace = LayerTrace()
    trace.wrap(Toy, "add", "toy")
    trace.wrap(Toy, "boom", "toy")
    trace.wrap(Toy, "steps", "toy")
    yield trace
    trace.uninstall()


def test_plain_calls_pass_results_and_errors(toy):
    assert Toy().add(2, 3) == 5
    with pytest.raises(KeyError):
        Toy().boom()
    assert toy.stats("toy").calls == 2
    assert not toy._child_time


def test_generator_forwards_send_throw_and_return(toy):
    log = []
    gen = Toy().steps(log)
    assert next(gen) == 1
    assert gen.send("x") == 2
    assert gen.throw(ValueError("v")) == 3
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert log == [("got", "x"), ("caught", "v"), "finally"]
    assert toy.stats("toy").yields == 3


def test_close_reaches_the_inner_generator(toy):
    log = []
    gen = Toy().steps(log)
    next(gen)
    gen.close()
    assert log == ["finally"]
    assert not toy._child_time


class Host:
    def run(self, n):
        toy = Toy()
        for i in range(n):
            toy.add(i, i)
        return list(toy.steps([]))


def test_wrapper_cost_outside_the_window_is_charged_to_the_host(toy):
    toy.wrap(Host, "run", "host")
    assert Host().run(5) == [1, 2, 3]
    host = toy.stats("host")
    assert (host.hosted_calls, host.hosted_generators) == (6, 1)
    assert host.hosted_resumes == 4          # three yields and the return
    assert toy.stats("toy").resumes == 4
    assert toy._running.hosted_calls == 1    # Host.run itself: no host
    toy.overhead = WrapperCost(out_call=1e-9, out_generator=1e-8,
                               out_resume=1e-7)
    assert toy.self_s("host") == pytest.approx(
        max(0.0, host.self_s - 6e-9 - 1e-8 - 4e-7), abs=1e-15)


def test_calibration_measures_both_sides_of_the_window():
    trace = LayerTrace()
    trace.calibrate()
    cost = trace.overhead
    assert cost.in_call > 0 and cost.in_resume > 0
    assert cost.out_call > 0 and cost.out_resume > 0


def test_uninstall_restores_the_original():
    original = Toy.__dict__["add"]
    trace = LayerTrace()
    trace.wrap(Toy, "add", "toy")
    assert Toy.__dict__["add"] is not original
    trace.uninstall()
    assert Toy.__dict__["add"] is original


def _interrupted_burst():
    """Interrupt a long Cpu.execute; report what the victim saw."""
    sim = Simulation()
    server = make_server(sim, EDISON, "edison-0")
    log = []

    def victim():
        try:
            yield from server.cpu.execute(1e9)
            log.append("finished")
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, sim.now))

    def attacker(proc):
        yield 0.5
        proc.interrupt("fault")

    proc = sim.process(victim())
    sim.process(attacker(proc))
    sim.run()
    return log, server.cpu.vcores.count


def test_interrupt_into_wrapped_cpu_execute():
    plain = _interrupted_burst()
    with_trace = LayerTrace()
    install(with_trace)
    try:
        traced = _interrupted_burst()
    finally:
        with_trace.uninstall()
    assert traced == plain
    assert traced[0] == [("interrupted", "fault", 0.5)]
    assert traced[1] == 0            # the finally released the vcore
    assert with_trace.stats("hardware.cpu").calls == 1


def _three_grants():
    """Three containers requested through ``yield from allocate``."""
    sim = Simulation()
    slaves = [make_server(sim, EDISON, f"edison-{i}") for i in range(2)]
    master = make_server(sim, EDISON, "master")
    yarn = YarnScheduler(sim, slaves, default_config("edison"),
                         RngStreams(7).stream("yarn"), master=master)
    grants = []

    def task(preferred):
        grant = yield from yarn.allocate(300, preferred=preferred)
        grants.append((sim.now, grant.node, grant.local))

    for preferred in (["edison-0"], ["edison-1"], []):
        sim.process(task(preferred))
    sim.run()
    return grants


def test_yield_from_through_wrapped_allocate():
    plain = _three_grants()
    trace = LayerTrace()
    install(trace)
    try:
        traced = _three_grants()
    finally:
        trace.uninstall()
    assert traced == plain and len(traced) == 3
    yarn = trace.stats("mapreduce.yarn")
    assert yarn.extra["requests"] == 3
    assert yarn.extra["grants"] == 3
    assert yarn.extra["rounds"] >= 3
    assert trace.self_s("mapreduce.yarn") >= 0.0


# -- the metric contract -------------------------------------------------------

def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert 1 <= len(SPEC["paths"]) <= 16
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert len(SPEC["command"]) <= 32
    assert all(not arg.startswith("/") and ".." not in arg
               for arg in SPEC["command"])
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("lower", "higher")
        assert UNIT.match(m["unit"]), m["unit"]
        names.append(m["name"])
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_and_layer_metrics_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(CELLS)
    trace = LayerTrace()
    calendar = {"processed": 1, "dropped": 0, "heap_peak": 1}
    produced = set(layer_metrics(trace, calendar))
    produced |= {"sim.us_per_event", "trace.overhead_s"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}
    assert {f"{layer}.self_pct" for layer in SHARE_LAYERS} <= produced


def test_reference_names_a_held_out_seed():
    reference = json.loads((BENCH / "reference.json").read_text())
    assert reference["held_out_seed"] != reference["default_seed"]
    assert set(reference["digests"]) == set(CELLS)
    for digests in reference["digests"].values():
        assert set(digests) == {str(reference["default_seed"]),
                                str(reference["held_out_seed"])}


# -- tiny runs -----------------------------------------------------------------

def _tiny_rep(workload: str, traced: bool):
    speed = child.HostSpeed()
    speed.start()
    return child.run_rep(workload, 3, speed, traced=traced, tiny=True)


@pytest.mark.parametrize("workload", list(CELLS))
def test_tiny_run_completes_traced_and_untraced(workload):
    plain = _tiny_rep(workload, traced=False)
    traced = _tiny_rep(workload, traced=True)
    for record in (plain, traced):
        assert all(ok for _, ok, _ in record["checks"]), record["checks"]
        assert record["events"] > 0 and record["host_s"] > 0
        assert record["setup_s"] > 0
    assert traced["digest"] == plain["digest"]
    assert traced["layers"]["sim.events"] == plain["events"]
    shares = [traced["layers"][f"{layer}.self_pct"] for layer in SHARE_LAYERS]
    assert sum(shares) == pytest.approx(100.0)
