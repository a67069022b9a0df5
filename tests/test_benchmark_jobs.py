"""The benchmark's own output checks, run as tests.

For each workload that ``BENCHMARK.json`` declares, one untimed worker run
(``perfbench/worker.py`` at seed 1, its minimum of three rounds) must exit 0
with no job error, so a change that makes a benchmark job's output wrong
fails here first; ``perfbench/selftest.py`` must pass as well.  Neither
writes a file: records under ``perfbench/out`` come from ``run.py``, which
is not run here, and no bytecode is cached.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / script), *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_jobs_give_right_outputs(workload):
    proc = run("worker.py", "--workload", workload, "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    rounds = json.loads(proc.stdout.splitlines()[-1])["rounds"]
    assert len(rounds) >= 3
    errors = [e for r in rounds for e in r["errors"] if e is not None]
    assert errors == []


def test_benchmark_selftest_passes():
    proc = run("selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
