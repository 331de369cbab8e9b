"""The simulator benchmark: one paper cell per workload, timed end to end.

    python3 perfbench/run.py --workload web_edison_35 --seed 20160901 \
        --seconds 20 --trace 0

Each repetition runs in a fresh single-threaded process
(``perfbench/child.py``), one at a time, until ``--seconds`` of wall
time have passed (at least two repetitions, so the digest can be
compared).  With ``--trace 0`` the end-to-end metrics are the medians
over the repetitions; with ``--trace 1`` one untraced repetition is
followed by traced ones and the per-layer metrics are reported.  The
metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every
repetition ran and passed its checks.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
#: Every run must end well inside the 180 s a benchmark run may take.
RUN_LIMIT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_child(workload: str, seed: int, traced: bool,
              timeout: float) -> Dict:
    """One repetition in a fresh process; its record or an ``error``."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(records: List[Dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def tail_note(values: List[float]) -> str:
    """Median with its count, and the highest percentile that still has
    at least ten repetitions beyond it (when there are enough)."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median of {n}"
    if n > 10:
        pct = 100.0 * (n - 10) / n
        text += f", p{pct:.0f} = {ordered[n - 11]:.4f}"
    else:
        text += ", no tail percentile until more than 10 repetitions"
    return text


def verdicts(records: List[Dict], first: Optional[Dict]) -> List[str]:
    """Mark each record that fails a check or disagrees with ``first``.

    Every repetition runs the same seed, so its digest and event count
    must equal the first good repetition's, traced or not.
    """
    lines = []
    for i, rec in enumerate(records):
        if "error" in rec:
            lines.append(f"repetition {i}: failed: {rec['error']}")
            rec["ok"] = False
            continue
        failed = [f"{name} ({detail})" for name, ok, detail in rec["checks"]
                  if not ok]
        if rec["digest"] != first["digest"]:
            failed.append(f"digest {rec['digest'][:12]} differs from "
                          f"{first['digest'][:12]}")
        if rec["events"] != first["events"]:
            failed.append(f"{rec['events']} events, not {first['events']}")
        rec["ok"] = not failed
        if failed:
            lines.append(f"repetition {i}: check failed: "
                         + "; ".join(failed))
    return lines


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"no simulator sources under {SRC}")
    if args.seconds <= 0:
        return fail("--seconds must be > 0")
    reference = json.loads(REFERENCE.read_text())
    seed = reference["default_seed"] if args.seed is None else args.seed
    # Byte-compile once up front so no repetition's set-up pays for it.
    compileall.compile_dir(str(SRC), quiet=1)

    start = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - start)

    def more(records: List[Dict], at_least: int) -> bool:
        if records and "error" in records[-1]:
            return False
        elapsed = time.perf_counter() - start
        return len(records) < at_least or elapsed < args.seconds

    plain: List[Dict] = []
    traced: List[Dict] = []
    if args.trace:
        plain.append(run_child(args.workload, seed, False, remaining()))
        while more(traced, 1) and remaining() > 0:
            traced.append(run_child(args.workload, seed, True, remaining()))
    else:
        while more(plain, 2) and remaining() > 0:
            plain.append(run_child(args.workload, seed, False, remaining()))
    records = plain + traced
    first = next((r for r in records if "error" not in r), None)
    problems = verdicts(records, first)
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    good_plain = [r for r in plain if r["ok"]]
    good_traced = [r for r in traced if r["ok"]]
    correct = (failed == 0 and bool(good_plain)
               and (bool(good_traced) or not args.trace))

    print(f"workload {args.workload}, seed {seed}, "
          f"{len(plain)} untraced + {len(traced)} traced repetitions")
    for line in problems:
        print(line)
    print(f"failed_runs = {failed}/{attempted} "
          f"({100.0 * failed / max(1, attempted):.1f}%)")
    if first is not None:
        for name, ok, detail in first["checks"]:
            print(f"check {'pass' if ok else 'FAIL'}: {name}: {detail}")
        expected = reference["digests"].get(args.workload, {}).get(str(seed))
        if expected is None:
            state = "no reference for this seed"
        else:
            state = "match" if expected == first["digest"] else "mismatch"
        print(f"fidelity digest {first['digest'][:16]}: {state} "
              f"(report-only)")
        if first["note"]:
            print(f"note: {first['note']}")

    metrics: Dict[str, Dict] = {}
    if correct and not args.trace:
        anchors = good_plain[0]["anchors"]
        values = {
            "host_s": median_of(good_plain, "host_s"),
            "setup_s": median_of(good_plain, "setup_s"),
            "peak_rss_mb": median_of(good_plain, "peak_rss_mb"),
            "paper_err_pct": anchors["perf"]["err_pct"],
            "paper_energy_err_pct": anchors["energy"]["err_pct"],
        }
        for kind in ("perf", "energy"):
            a = anchors[kind]
            print(f"anchor {a['label']}: simulated {a['simulated']:.4f}, "
                  f"paper {a['paper']:.4f}")
        notes = {key: tail_note([r[key] for r in good_plain])
                 for key in ("host_s", "setup_s", "peak_rss_mb")}
        for key in ("host_s", "setup_s"):
            raw = median_of(good_plain, "raw_" + key)
            notes[key] += f"; unscaled CPU {raw:.4f} s"
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
            extra = f" ({notes[m['name']]})" if m["name"] in notes else ""
            print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}{extra}")
    elif correct:
        untraced = good_plain[0]
        layer = dict(good_traced[0]["layers"])
        layer["sim.us_per_event"] = (1e6 * untraced["host_s"]
                                     / max(1, untraced["events"]))
        traced_host = median_of(good_traced, "host_s")
        layer["trace.overhead_s"] = traced_host - untraced["host_s"]
        for key in layer:
            if key.endswith("_pct") or key == "cluster.build_s":
                layer[key] = statistics.median(r["layers"][key]
                                               for r in good_traced)
        self_s = {k: statistics.median(r["self_s"][k] for r in good_traced)
                  for k in good_traced[0]["self_s"]}
        # The layers' self times with the calibrated wrapper cost
        # removed should add up to about the untraced host time; what
        # is left over is tracing cost the calibration missed.
        kept = statistics.median(
            sum(r["self_s"].values()) * r["host_s"] / r["raw_host_s"]
            for r in good_traced)
        print(f"traced host_s {traced_host:.4f} s vs untraced "
              f"{untraced['host_s']:.4f} s; {good_traced[-1]['spans_kept']} "
              f"spans written to perfbench/out/{args.workload}.spans.csv")
        print(f"layer self time after removing the calibrated wrapper "
              f"cost: {kept:.4f} s at uncontended speed, "
              f"{100.0 * (kept / untraced['host_s'] - 1):+.1f}% against "
              f"untraced host_s")
        # Self times are wall seconds of the traced run, not rescaled.
        print(f"{'layer':<20}{'self wall s':>12}{'share':>9}")
        for name, secs in self_s.items():
            print(f"{name:<20}{secs:>12.4f}{layer[name + '.self_pct']:>8.1f}%")
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer[m["name"]],
                                  "unit": m["unit"]}
            print(f"{m['name']} = {layer[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
