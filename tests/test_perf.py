"""The kernel-scale baseline's event-count ratchet (``--compare``)."""

import importlib.util
import json
from pathlib import Path

from repro import perf

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_perf_baseline.py"


def _cell(digest, processed):
    return {"digest": {"seconds": digest}, "processed": processed,
            "events_per_s": 1.0, "wall_s": 1.0, "heap_peak": 1}


def _bundle(**terasort):
    return {"web_scale": {}, "table7": {},
            "terasort": {slaves: _cell(*cell)
                         for slaves, cell in terasort.items()}}


def test_event_regressions_gate_only_unchanged_digests():
    base = _bundle(a=(1.0, 100), b=(2.0, 100), c=(3.0, 100))
    new = _bundle(a=(1.0, 101), b=(2.5, 900), c=(3.0, 99))
    # a: same result, more events.  b: different result (another libm),
    # not compared.  c: fewer events.  A cell missing from either side
    # is skipped.
    assert perf.event_regressions(base, new) == ["terasort/a: 100 -> 101 events"]
    assert perf.event_regressions(base, _bundle(a=(1.0, 100))) == []


def test_compare_exits_nonzero_on_an_event_regression(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("run_perf_baseline", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    baseline = tmp_path / "BENCH.json"
    baseline.write_text(json.dumps({"post": _bundle(a=(1.0, 100))}))

    def compare(measured):
        monkeypatch.setattr(script.perf, "run_suite",
                            lambda quick, emit: measured)
        return script.main(["--quick", "--compare", str(baseline)])

    assert compare(_bundle(a=(1.0, 100))) == 0
    assert compare(_bundle(a=(1.5, 120))) == 0     # digest differs
    assert compare(_bundle(a=(1.0, 120))) == 1
