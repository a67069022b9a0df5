"""Benchmark entry point: one run of one workload, measured from outside the package.

    python3 perfbench/run.py --workload k0_deep --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  The run spawns a few set-up-only workers,
then one worker process that runs the seeded job list in a closed loop, one
job at a time; the processes run one after another, never side by side.  It
checks every job's output, writes a record with the environment, job list and
per-job times to ``perfbench/out/``, and prints as its last line a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
SETUP_PROBES = 4  # set-up-only workers before and again after the main one; setup_s is the median
WORKER_TIMEOUT_S = 170


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: shows slow phases of the host, rescales nothing."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def commit() -> str | None:
    """The checked-out commit when the checkout is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code when there is no commit."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def spawn_worker(args: list[str]) -> tuple[float, dict]:
    """Run one worker to completion; return its set-up time and its result."""
    cmd = [sys.executable, str(WORKER), *args]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["ready"] - spawned, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "arck0" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    probe_before = speed_probe()
    setups = [spawn_worker(common + ["--setup-only"])[0] for _ in range(SETUP_PROBES)]
    run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--spans", str(OUT / f"{label}-spans.jsonl")]
    setup, result = spawn_worker(run_args)
    setups.append(setup)
    setups += [spawn_worker(common + ["--setup-only"])[0] for _ in range(SETUP_PROBES)]
    probe_after = speed_probe()

    rounds = result["rounds"]
    times = [t for r in rounds for t in r["times"]]
    errors = [e for r in rounds for e in r["errors"] if e is not None]
    correct = not errors
    if args.trace:
        trace = result["trace"]
        correct = correct and not trace["closed_form_errors"]
        values = trace["metrics"]
        wanted = spec["per_layer"]
    else:
        # Means over the whole run, not medians or minima: the host switches
        # between speeds up to 1.8x apart, every fraction of a second and for
        # minutes at a time, as other tenants load it.  A median jumps between
        # the speeds and a minimum vanishes in a slow minute, while a mean
        # moves smoothly with the share of the run spent slow.
        per_job: dict[int, list[float]] = {}
        for r in rounds:
            for job, t in zip(r["jobs"], r["times"]):
                per_job.setdefault(job["id"], []).append(t)
        values = {
            "setup_s": statistics.median(setups),
            # first job's start to last job's end, averaged over the rounds
            "wall_s": statistics.fmean(r["wall"] for r in rounds),
            # the median job of the list, each job at its mean time over the rounds
            "job_p50_s": statistics.median(statistics.fmean(ts) for ts in per_job.values()),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    unknown = [m["name"] for m in wanted if m["name"] not in values]
    if unknown:
        print(f"perfbench: cannot measure {unknown}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "speed_probe_s": {"before": probe_before, "after": probe_after},
        "setup_s": setups,
        "jobs_per_round": [len(r["jobs"]) for r in rounds],
        "fail_frac": len(errors) / len(times),
        "errors": errors,
        "rounds": rounds,
        "metrics": metrics,
    }
    if args.trace:
        record["trace"] = trace
    record_path = OUT / f"{label}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"perfbench: {args.workload} seed {args.seed}: {len(times)} jobs in "
          f"{len(rounds)} round(s), fail_frac {record['fail_frac']}, speed probe "
          f"{probe_before:.3f}s/{probe_after:.3f}s, record {record_path.relative_to(ROOT)}")
    for error in errors[:5]:
        print(f"perfbench: wrong output: {error}")
    print(json.dumps({"correct": correct, "attempted": len(times), "failed": len(errors),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
