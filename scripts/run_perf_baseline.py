"""Record the kernel-scale perf baseline into BENCH_kernel_scale.json.

Drives the web tier at 35/70/140/280 total nodes plus a Terasort
scaling ladder (see ``repro.perf``) and records wall-clock, events/sec,
heap peak and a bit-exact fidelity digest per cell.

Run once before a performance change and once after::

    PYTHONPATH=src python scripts/run_perf_baseline.py --phase pre
    ... optimise ...
    PYTHONPATH=src python scripts/run_perf_baseline.py --phase post

The ``post`` phase refuses to finish cleanly (exit 1) if any fidelity
digest differs from the recorded ``pre`` digest — optimisations must
not change results, bit for bit.  Both phases land in the same JSON
file, together with a ``speedup`` section, so the improvement and its
evidence travel with the repo.

``--compare FILE`` instead runs the sweep and compares it against the
committed baseline's ``post`` phase (the CI perf-smoke job).  It is an
event-count ratchet: it exits 1 when a cell's fidelity digest matches
the baseline but the cell processed more calendar events than recorded
there.  Event counts are deterministic, so that can only come from a
simulator change.  A cell whose digest differs is reported, not gated
(another host's libm may legitimately differ), and wall-clock and
events/second ratios are always report-only.  ``--quick`` runs the
one-cell-per-workload subset with parameters identical to the full
suite.
"""

import argparse
import json
import os
import sys

from repro import perf


def load(path):
    if os.path.exists(path):
        with open(path) as handle:
            return json.load(handle)
    return {}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="measure kernel-scale perf and fidelity digests")
    parser.add_argument("--phase", choices=("pre", "post"), default="post",
                        help="record under this phase (default: post)")
    parser.add_argument("--out", default="BENCH_kernel_scale.json",
                        help="baseline file (default: %(default)s)")
    parser.add_argument("--quick", action="store_true",
                        help="one cell per workload (CI smoke)")
    parser.add_argument("--compare", metavar="FILE",
                        help="compare against FILE's post phase: fail on "
                             "more events at an unchanged digest, report "
                             "the rest; does not write --out")
    args = parser.parse_args(argv)

    bundle = perf.run_suite(quick=args.quick, emit=print)

    if args.compare:
        recorded = load(args.compare)
        phase = "post" if "post" in recorded else "pre"
        baseline = recorded.get(phase)
        if not baseline:
            print(f"no recorded phases in {args.compare}; nothing to compare")
            return 0
        print(f"\ncomparison vs {args.compare} ({phase}):")
        for cell, ratios in perf.speedup_report(baseline, bundle).items():
            parts = ", ".join(f"{k} {v:.2f}x" for k, v in ratios.items())
            print(f"  {cell}: {parts}")
        mismatches = perf.digest_mismatches(baseline, bundle)
        if mismatches:
            print("  fidelity digests differ (expected across "
                  "hosts/versions; event counts not compared): "
                  + ", ".join(mismatches))
        else:
            print("  fidelity digests identical to baseline")
        regressions = perf.event_regressions(baseline, bundle)
        if regressions:
            print("EVENT-COUNT REGRESSION at an unchanged digest: "
                  + "; ".join(regressions))
            return 1
        print("  no cell processed more events than the baseline")
        return 0

    data = load(args.out)
    data["host"] = perf.host_info()
    data["config"] = {"seed": perf.SEED, "web_duration_s": perf.WEB_DURATION,
                      "web_warmup_s": perf.WEB_WARMUP, "quick": args.quick}
    data[args.phase] = bundle

    status = 0
    if "pre" in data and "post" in data:
        mismatches = perf.digest_mismatches(data["pre"], data["post"])
        data["fidelity"] = {"bit_identical": not mismatches,
                            "mismatches": mismatches}
        data["speedup"] = perf.speedup_report(data["pre"], data["post"])
        print("\nspeedup vs pre:")
        for cell, ratios in data["speedup"].items():
            parts = ", ".join(f"{k} {v:.2f}x" for k, v in ratios.items())
            print(f"  {cell}: {parts}")
        if mismatches:
            print("FIDELITY FAILURE — digests changed: "
                  + ", ".join(mismatches))
            status = 1
        else:
            print("fidelity: post digests bit-identical to pre")

    with open(args.out, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out} ({args.phase} phase)")
    return status


if __name__ == "__main__":
    sys.exit(main())
