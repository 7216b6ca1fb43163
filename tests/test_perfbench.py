"""The benchmark's self-checks, run briefly on each workload: a package change
that breaks what ``perfbench/`` calls (``.records``, ``sorted_list()``,
``predictor()``, ``len()``) fails here rather than only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["pipeline", "dataset-noisy", "serve"])
def test_benchmark_self_checks_pass(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stdout
