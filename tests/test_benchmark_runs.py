"""The benchmark's traced run of each workload succeeds on this tree.

``perfbench/run.py --trace 1`` fails when a unit call raises or fails its check, when
the gradient count differs from the rounds run, when a counter differs between its two
traced calls (a cache that outlives one call), or when the floor oracle is not bitwise
equal.  It reads only ``perfbench/`` and ``src/`` and writes to the git-ignored
``perfbench/out/``.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["drift_sweep", "lowerbound_mild", "cli_run"])
def test_the_traced_benchmark_run_passes(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1",
         "--seconds", "0.3"], capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
