"""Self-test of the benchmark: seeded job lists and repeatable traced counts.

    python3 perfbench/selftest.py

For every workload it checks that the same seed gives the same job list and
a different seed a different one, and that two traced worker runs of one
seed (the first few jobs of the round) give the same job list, the same
counts (``*.calls``, ``*.arcs``, ``*.columns``, ``*.ambient``), right outputs
and arc totals equal to the closed forms.  Exits 1 if any check fails.
"""

from __future__ import annotations

import sys

import workloads
from run import spawn_worker

SEED = 7
JOBS = 4  # per traced run: enough to reach every layer a workload uses
COUNT_SUFFIXES = (".calls", ".arcs", ".columns", ".ambient")


def traced(workload: str) -> dict:
    args = ["--workload", workload, "--seed", str(SEED), "--trace", "1", "--limit", str(JOBS)]
    return spawn_worker(args)[1]


def main() -> int:
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {label}")

    for workload in workloads.GENERATORS:
        jobs = workloads.make_jobs(workload, SEED, 0)
        check(f"{workload}: same seed, same job list",
              jobs == workloads.make_jobs(workload, SEED, 0))
        check(f"{workload}: another seed, another job list",
              jobs != workloads.make_jobs(workload, SEED + 1, 0))

        first, second = traced(workload), traced(workload)
        check(f"{workload}: traced runs ran the seeded jobs",
              first["rounds"][1]["jobs"] == second["rounds"][1]["jobs"] == jobs[:JOBS])
        counts = [{k: v for k, v in run["trace"]["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
                  for run in (first, second)]
        check(f"{workload}: counts repeat exactly ({sum(counts[0].values())} in all)",
              counts[0] == counts[1] and any(counts[0].values()))
        for run in (first, second):
            errors = [e for r in run["rounds"] for e in r["errors"] if e]
            check(f"{workload}: outputs right and arcs equal closed forms",
                  not errors and not run["trace"]["closed_form_errors"])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
