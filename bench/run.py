"""Benchmark of chainwise-sta: four workloads, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload map --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the workload untraced for half the window and traced for the other
half, and prints the per-layer metrics (see tracing.py), the tracing
overhead and the final-sample ``propagate_density`` rows at P1*, P2* and
M5* (workloads.baseline_rows).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs
every workload once on tiny inputs in both modes and checks that every
metric BENCHMARK.json names is printed.

BENCHMARK.json lists ``map`` and ``design``.  ``scenario`` and ``verify``
run the same way but are left out of it: on a 2-vCPU VM whose speed drifted
by up to 2x over minutes, their runs did not repeat within the bounds.

End-to-end metrics, over the ops of the timed passes (harness checks
between ops are not timed):

* ``ops_per_s``: ops completed per second of op time;
* ``op_ms_p50``: median op wall time;
* ``op_ms_tail``: the percentile of workloads.tail_percentile, printed with
  the op count on the line before the result;
* ``cells_per_s``: result cells per second of op time, one per map cell and
  one per single-point op (scenario, verify);
* ``peak_rss_mb``: peak resident memory of the benchmark process;
* ``setup_s``: median wall time of fresh processes that import the CLI and
  run one tiny propagation.

The package is imported from ``src/`` and the frozen oracle values from
``tests/test_acceptance.py`` of the same checkout; without them the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# One fresh process: import the CLI, build its parser, run one tiny
# propagation.  Only the public CLI entry point is used.
SETUP_CODE = """
import sys
from chainwise_sta.cli import run_cli
sys.exit(run_cli(["simulate", "--protocol", "p2", "--tf", "1", "--delta", "1000pi_MHz",
                  "--tol", "1e-4", "--n-samples", "2", "--out", sys.argv[1]]))
"""


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def prepare() -> None:
    """Guard the environment and make the checkout's package importable."""
    for part in ("src/chainwise_sta", "tests/test_acceptance.py"):
        if not (ROOT / part).exists():
            fail(f"{part} not found under {ROOT}; run from a full checkout")
    # Measure the default sweep worker count, and refuse a default that
    # oversubscribes the cores this process may use.
    os.environ.pop("CHAINWISE_STA_THREADS", None)
    usable = len(os.sched_getaffinity(0))
    if (os.cpu_count() or 1) > usable:
        fail(f"os.cpu_count() = {os.cpu_count()} exceeds the {usable} usable cores; "
             "the sweep pool would oversubscribe them")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def environment() -> dict:
    import numpy
    import scipy
    from chainwise_sta import sweeps

    thread_cap = getattr(sweeps, "thread_cap", None)
    return {
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "sweep_workers": thread_cap() if thread_cap else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def setup_seconds(tmp: Path, repeats: int) -> float:
    """Median wall time of fresh processes doing the set-up work."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for i in range(repeats):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(tmp / f"setup-{i}")],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            fail(f"set-up process exited {proc.returncode}: {proc.stderr.strip()}")
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import workloads

    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp_name:
        tmp = Path(tmp_name)
        workload = workloads.WORKLOADS[workload_name](seed, tmp, smoke)
        rng = random.Random(f"order-{seed}")
        workloads.warm_up(workload)
        if trace:
            metrics, halves = traced_run(workload, rng, seconds, smoke)
        else:
            setup = setup_seconds(tmp, setup_repeats)
            tally = workloads.Tally()
            workloads.run_passes(workload, rng, seconds, {}, tally, workload.min_passes)
            percentile = workloads.tail_percentile(workload)
            metrics = workloads.end_to_end(tally, percentile)
            metrics["setup_s"] = ("s", setup)
            metrics["peak_rss_mb"] = ("MB", peak_rss_mb())
            print(f"op_ms_tail is p{percentile:.1f} of {len(tally.durations)} ops "
                  f"({tally.passes} passes of {len(workload.ops)} ops)")
            halves = [tally]
    failed = sum(h.failed for h in halves)
    return {
        "correct": failed == 0,
        "attempted": sum(h.attempted for h in halves),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }


def traced_run(workload, rng: random.Random, seconds: float, smoke: bool):
    """Untraced then traced passes; per-layer metrics, overhead, baseline rows.

    Both halves share one digest table, so a traced output that differs from
    the untraced one by a single bit fails its op.
    """
    import workloads
    from tracing import Tracer

    digests: dict = {}
    untraced, traced = workloads.Tally(), workloads.Tally()
    workloads.run_passes(workload, rng, seconds / 2, digests, untraced)
    tracer = Tracer()
    tracer.install()
    try:
        workloads.run_passes(workload, rng, seconds / 2, digests, traced)
    finally:
        tracer.restore()
    if tracer.missing:
        print(f"not traced (absent from the package): {', '.join(tracer.missing)}")
    metrics = tracer.metrics(traced.passes)
    fast = untraced.attempted / untraced.busy
    slow = traced.attempted / traced.busy
    metrics["trace.untraced_ops_per_s"] = ("1/s", fast)
    metrics["trace.ops_per_s"] = ("1/s", slow)
    metrics["trace.overhead_ops_per_s"] = ("1/s", slow - fast)
    metrics.update(workloads.baseline_rows(repeats=1 if smoke else 2))
    halves = [untraced, traced]
    metrics["check.max_efficiency_dev"] = ("1", max(h.efficiency_dev for h in halves))
    metrics["check.min_transport_fidelity"] = ("1", min(h.min_fidelity for h in halves))
    return metrics, halves


def smoke() -> int:
    """Every workload once on tiny inputs, both modes; every metric present."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {mode: {m["name"]: m["unit"] for m in spec[key]}
                for mode, key in ((0, "end_to_end"), (1, "per_layer"))}
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run(name, seed=0, seconds=0, trace=bool(trace), smoke=True,
                         setup_repeats=1)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            status = "ok" if result["correct"] and got == expected[trace] else "FAILED"
            print(f"smoke {name} trace={trace}: {status} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            if got != expected[trace]:
                diff = set(got.items()) ^ set(expected[trace].items())
                print(f"  metric names or units differ from BENCHMARK.json: {sorted(diff)}")
            if status != "ok":
                problems.append(f"{name}/trace={trace}")
    print(json.dumps({"smoke_ok": not problems, "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once on tiny inputs and check metric names")
    args = parser.parse_args(argv)
    prepare()
    if args.smoke:
        return smoke()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
