"""The benchmark harness must keep running: ``bench/run.py --smoke``.

The smoke mode runs every workload once on tiny inputs, untraced and traced,
checks every op's outputs and that every metric BENCHMARK.json names is
printed.  Wall-clock numbers are not checked.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_runs():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["smoke_ok"] is True
