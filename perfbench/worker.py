"""One benchmark run in a fresh process: import the package, build the job list, run it.

The worker runs single-threaded, one job at a time (a closed loop with one
client).  It prints one JSON object as the last line of its standard output.
Started by ``run.py``; ``--setup-only`` exits as soon as the package is
imported and the job list exists, which is what ``setup_s`` times.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3  # so that every job is timed more than once


def import_package():
    """Import the package from this checkout's sources, never from anywhere else."""
    if not (SRC / "arck0" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import arck0
    import arck0.cli  # noqa: F401  (the CLI is not imported by the package itself)

    if Path(arck0.__file__).resolve().parent != (SRC / "arck0").resolve():
        raise SystemExit(f"perfbench: imported arck0 from {arck0.__file__}, not {SRC}")
    return arck0


def run_round(pkg, workload: str, jobs: list[dict], tracer: Tracer | None = None) -> dict:
    times, errors = [], []
    first = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        # The collector schedules full passes from how much survived the last
        # one, so without this a job's time depends on the jobs before it (the
        # seed reorders them); collected, each starts as a fresh CLI process does.
        gc.collect()
        elapsed, error = workloads.run_job(pkg, workload, job)
        times.append(elapsed)
        errors.append(error)
    return {"wall": time.perf_counter() - first, "jobs": jobs, "times": times,
            "errors": errors}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first LIMIT jobs of each round (self-test)")
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    args = parser.parse_args(argv)

    pkg = import_package()
    jobs = workloads.make_jobs(args.workload, args.seed, 0)[: args.limit]
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result: dict = {"ready": ready}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        # the same jobs untraced, then traced: the difference is the tracing overhead
        rounds = [run_round(pkg, args.workload, jobs)]
        tracer = Tracer(pkg)
        tracer.install()
        try:
            rounds.append(run_round(pkg, args.workload, jobs, tracer))
        finally:
            tracer.uninstall()
        if args.spans:
            tracer.write_spans(args.spans)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = rounds[1]["wall"] - rounds[0]["wall"]
        result["trace"] = {"metrics": metrics,
                           "closed_form_errors": tracer.closed_form_errors()}
    else:
        # whole rounds of the same jobs, each round in another order, until the
        # next one would end after --seconds, and at least MIN_ROUNDS
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(run_round(pkg, args.workload, jobs))
            last = rounds[-1]["wall"]
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + last > args.seconds:
                break
            jobs = workloads.make_jobs(args.workload, args.seed, len(rounds))[: args.limit]

    result["rounds"] = rounds
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
