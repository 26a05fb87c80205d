"""The benchmark harness runs end to end on every workload.

Each case runs one traced pass of `perfbench/run.py` (`--seconds 0` makes
exactly one timed pass) in a subprocess from the repository root and checks
that it exits 0 and that its last stdout line reports every check passed.
This checks that the harness works, not how long the pass takes; no
bytecode is written, so `perfbench/` is only read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["scan", "fit", "predict", "loo"])
def test_one_traced_pass(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
