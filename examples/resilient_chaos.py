#!/usr/bin/env python
"""Gray failures, graceful degradation, and the energy price of both.

Crash faults are the easy case: a dead node stops answering, detectors
fire, and the cluster routes around it (see ``chaos_energy.py``).
*Gray* failures are nastier — a slave stuck at 8 % clock behind a
failed fan, a NIC dropping a third of its frames — because the sick
node keeps heartbeating, so nothing evicts it and every request or
task it touches simply gets slow.

This script runs the repo's two committed gray-failure experiments,
each a paired run under the *same* seeded fault plan:

* Web tier — three Edison web servers throttle, one crashes and
  returns, a cache node drops packets, all mid-measurement.  The
  unmitigated tier blows its availability SLO; with circuit breakers,
  retries, hedging and load shedding armed it serves every user.
* MapReduce — one slave of eight throttles *permanently* during the
  paper's single-wave optimized wordcount.  Unmitigated, seven healthy
  slaves burn idle watts for an hour-plus waiting on the limper; LATE
  speculation re-runs its two stuck maps elsewhere and finishes 3.4x
  sooner on 3.2x fewer joules.

Both reports price the mitigation in joules — speculative twins that
lost, hedges reaped, sheds issued — so the paper's work-per-joule
metric is quoted *net of the resilience tax*.

Run:  python examples/resilient_chaos.py           (~10 seconds)
"""

import os

from repro.resilience import (GrayPlan, job_resilience_experiment,
                              web_resilience_experiment)

PLAN = os.path.join(os.path.dirname(__file__), "..", "experiments",
                    "gray_failures.json")


def main() -> None:
    plan = GrayPlan.load(PLAN)
    print("Web tier under gray failures (throttles + crash + packet "
          "loss)...")
    web = web_resilience_experiment(plan)
    print()
    for line in web.lines():
        print(line)

    print()
    print("Single-wave wordcount with one slave stuck at 8% clock...")
    job = job_resilience_experiment(plan)
    print()
    for line in job.lines():
        print(line)

    print()
    ratio = job.unmitigated.seconds / job.mitigated.seconds
    print(f"The takeaway: the web tier buys back its SLO for "
          f"{web.waste_fraction * 100:.1f}% of run energy in duplicated "
          f"work, and speculation turns the job's gray straggler from a "
          f"{ratio:.1f}x makespan blowup into "
          f"{job.mitigated.total_waste_joules:.0f} J of insurance.")


if __name__ == "__main__":
    main()
