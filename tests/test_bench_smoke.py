"""The benchmark harness must keep running: ``bench/run.py --smoke``.

The smoke mode runs every workload once on tiny inputs, untraced and traced,
checks every op's outputs and that every metric BENCHMARK.json names is
printed.  Wall-clock numbers are not checked.  A second test checks that the
bench tracer still finds every package name it wraps.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from chainwise_sta import protocols, qcore

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_runs():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["smoke_ok"] is True


def test_tracer_wraps_every_name_and_counts_h_evals():
    # The tracer wraps package names from outside.  A renamed name only
    # prints "not traced" in the smoke run; a bypassed builder silently
    # reads 0 H(t) evaluations.
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        sched = protocols.design_protocol2(1.0, 200 * np.pi)
        qcore.propagate_state(protocols.hamiltonian_rule(sched), qcore.StateVector.basis(3, 0),
                              qcore.TimeGrid(0.0, sched.duration, 2), tol=1e-6)
        assert tracer.metrics(1)["qcore.h_evals"][1] > 0
    finally:
        tracer.restore()
