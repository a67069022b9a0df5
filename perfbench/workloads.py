"""Seeded job lists for the four benchmark workloads, and how each job is run and checked.

The seed draws one job list per run: the anchor offsets and the arcs a
mutation chain exchanges.  A run executes that list in whole rounds, each
round in another seeded order, so that every job is timed once per round,
at moments spread over the run.  The sizes are a fixed schedule on purpose:
job cost grows steeply with them, so a seed-drawn set of sizes would move a
run's time by far more than the spread the benchmark must stay within across
seeds.  The oracle and verify commands take nothing but sizes, so there the
seed only orders the jobs.

A schedule is kept small (a few seconds per round) so that a run repeats
each job many times and each job's mean time (see ``run.py``) is taken over
moments spread across the run.  Round times quoted below are medians over
ten 55 s runs on a shared 2-vCPU 2.1 GHz Xeon VM, whose speed changes by up
to 1.8x as other tenants load it.

Nothing in this module imports the package: the worker passes in the modules,
and every call goes through a module attribute at call time, so that the
tracer's wrappers are the ones called when tracing is on.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from typing import Callable

# n in [4, 20] x depth in [8, 32]: 20 jobs, about 3.3 s per round.  Both
# edges of the range are reached, n=20 at depth 8 and depth 32 at n=4;
# n=20, depth 12 would take 0.65 s, n=16, depth 16 0.8 s and n=20, depth 32
# alone 7 s.
K0_DEEP_SIZES = [
    (4, 8), (4, 10), (4, 12), (6, 8), (4, 16), (8, 8), (6, 10), (4, 20), (6, 12), (8, 10),
    (4, 24), (6, 16), (8, 12), (10, 10), (12, 8), (4, 32), (8, 16), (16, 8), (12, 12), (20, 8),
]

# (n, window) over [2, 6] x [4, 6]: 15 jobs, about 9 s per round.  The four
# cells around the median run twice, which puts eight jobs within a factor
# of two of the median cost; with twelve cells once each, two jobs decided it.
# (6, 4) sets peak_rss_mb; (5, 5), (5, 6), (6, 5) and (6, 6) are left out,
# (6, 6) alone would take 10 s and 300 MB.
ORACLE_WINDOW_SIZES = [
    (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 5), (4, 4), (4, 4), (3, 6), (3, 6), (4, 5),
    (4, 5), (5, 4), (4, 6), (6, 4),
]

# (n, window) from {1,2} x {4,5,6}: 20 jobs, about 3.2 s per round.  (2, 4)
# sets peak_rss_mb; (2, 5) would take 1.5 s, (3, 4) 4.4 s and (3, 5) 12 s.
# The oracle and verify commands take nothing but (n, window), so repeats are
# identical.
VERIFY_HOST_SIZES = [(1, 4)] * 7 + [(1, 5)] * 7 + [(1, 6)] * 5 + [(2, 4)]

# n in [4, 12] x depth in [8, 16]: 20 jobs of one build and two round trips
# (four mutations), about 5.5 s per round (one run).
MUTATE_CHAIN_SIZES = [
    (4, 8), (4, 10), (5, 8), (4, 12), (6, 8), (5, 10), (4, 14), (5, 12), (6, 10), (4, 16),
    (5, 14), (6, 12), (7, 10), (8, 10), (6, 14), (6, 16), (8, 12), (12, 8), (10, 12), (8, 16),
]
ROUND_TRIPS = 2
ANCHOR_RANGE = (-8, 8)


def _anchors(rng: random.Random, n: int) -> list[int]:
    return [rng.randint(*ANCHOR_RANGE) for _ in range(n)]


def _k0_deep(rng: random.Random) -> list[dict]:
    jobs = []
    for n, depth in K0_DEEP_SIZES:
        anchors = ",".join(str(a) for a in _anchors(rng, n))
        argv = ["k0", "--n", str(n), "--depth", str(depth),
                f"--anchors={anchors}", "--format", "json"]
        jobs.append({"argv": argv, "n": n})
    return jobs


def _oracle_window(rng: random.Random) -> list[dict]:
    return [
        {"argv": ["oracle", "--n", str(n), "--window", str(w), "--format", "json"], "n": n}
        for n, w in ORACLE_WINDOW_SIZES
    ]


def _verify_host(rng: random.Random) -> list[dict]:
    return [
        {"argv": ["verify", "--n", str(n), "--window", str(w)], "n": n}
        for n, w in VERIFY_HOST_SIZES
    ]


def _mutate_chain(rng: random.Random) -> list[dict]:
    jobs = []
    for n, depth in MUTATE_CHAIN_SIZES:
        # ladder positions 0 .. 2*depth-1 are interior; 2*depth is the frontier
        picks = [[rng.randrange(n), rng.randrange(2 * depth)] for _ in range(ROUND_TRIPS)]
        jobs.append({"n": n, "depth": depth, "anchors": _anchors(rng, n), "picks": picks})
    return jobs


GENERATORS: dict[str, Callable[[random.Random], list[dict]]] = {
    "k0_deep": _k0_deep,
    "oracle_window": _oracle_window,
    "verify_host": _verify_host,
    "mutate_chain": _mutate_chain,
}


def make_jobs(workload: str, seed: int, round_index: int) -> list[dict]:
    """One round's job list: a pure function of its three arguments.

    Every round of a seed runs the same jobs, each tagged with its ``id``;
    only their order depends on the round.
    """
    jobs = GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    for index, job in enumerate(jobs):
        job["id"] = index
    random.Random(f"{workload}:{seed}:{round_index}").shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# running and checking one job


def _run_cli(pkg, job: dict) -> tuple[float, dict]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(job["argv"])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    elapsed = time.perf_counter() - start
    return elapsed, {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def _check_group(job: dict, result: dict) -> str | None:
    if result["code"] != 0:
        return f"exit {result['code']}: {result['err'].strip()}"
    try:
        got = json.loads(result["out"])
    except json.JSONDecodeError:
        return f"not JSON: {result['out']!r}"
    want = {"free_rank": job["n"], "invariant_factors": []}
    return None if got == want else f"printed {got}, expected {want}"


def _check_verify(job: dict, result: dict) -> str | None:
    if result["code"] != 0:
        return f"exit {result['code']}: {result['out'].strip()} {result['err'].strip()}"
    lines = result["out"].splitlines()
    passes = sum(line.startswith("PASS") for line in lines)
    return None if passes == 6 and len(lines) == 6 else f"expected six PASS lines: {lines}"


def _run_mutate(pkg, job: dict) -> tuple[float, dict]:
    tilting = pkg.tilting
    start = time.perf_counter()
    base = tilting.build_standard_tilting(job["n"], job["anchors"], job["depth"])
    trips = []
    for b, t in job["picks"]:
        i = base.leapfrogs[b][t]
        once = tilting.mutate(base, i)
        trips.append((i, once.arcs[i], tilting.mutate(once, i).arcs))
    elapsed = time.perf_counter() - start
    return elapsed, {"arcs": base.arcs, "trips": trips}


def _check_mutate(job: dict, result: dict) -> str | None:
    arcs = result["arcs"]
    for i, swapped, restored in result["trips"]:
        if swapped == arcs[i]:
            return f"mutation at index {i} left the arc unchanged"
        if restored != arcs:
            return f"round trip at index {i} did not restore the arc tuple"
    return None


def run_job(pkg, workload: str, job: dict) -> tuple[float, str | None]:
    """Run one job; return its time and None if its output is right, else why not.

    An exception counts as a wrong output, with the time spent until it was raised.
    """
    start = time.perf_counter()
    try:
        if workload == "mutate_chain":
            elapsed, result = _run_mutate(pkg, job)
            return elapsed, _check_mutate(job, result)
        elapsed, result = _run_cli(pkg, job)
        check = _check_verify if workload == "verify_host" else _check_group
        return elapsed, check(job, result)
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
