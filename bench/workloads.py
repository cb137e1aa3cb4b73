"""The benchmark's four workloads, their output checks and the timing loop.

Every workload is a fixed list of ops.  One pass runs each op once in an
order the seed permutes; the timed window runs whole passes until
``--seconds`` have passed and at least ``min_passes`` are done, so every run
measures the same op mix.  Load
model: a closed loop with one client, each op starting when the previous
returns; the only extra threads are the sweep's own pool.

Each op is one CLI command (``run_cli`` in-process, stdout captured) or one
library call, reached through its module attribute at call time so that the
tracer's wrappers see it.  After each op, outside its timing, the harness
checks its outputs and records a digest of them: an op whose digest changes
between passes, or between the untraced and the traced half of a traced run,
counts as failed, like an op that raises or fails its check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from chainwise_sta import cli, invariants, protocols, qcore, schemes

import test_acceptance as acceptance
from conftest import CHAIN_STAR, LAMBDA_DECAYS, M_DECAYS, P1_STAR, P2_STAR

FROZEN_EFFICIENCY = {
    "p1": acceptance.FROZEN_P1_EFFICIENCY,
    "p2": acceptance.FROZEN_P2_EFFICIENCY,
    "chainwise": acceptance.FROZEN_M5_EFFICIENCY,
}
STAR = {"p1": P1_STAR, "p2": P2_STAR, "chainwise": CHAIN_STAR}
PRESET = {"p1": "rb2_lambda", "p2": "rb2_lambda", "chainwise": "rb2_m"}
EFFICIENCY_ATOL = 1e-4
PEAK_RTOL = 1e-9

# Grid jitter: the seed picks one of JITTER_LEVELS scale factors s and every
# cell (t_f, delta) becomes (s t_f, delta / s).  That moves each cell by less
# than one grid step while keeping delta * t_f, and with it the Magnus step
# count, per cell unchanged, so the work per pass does not depend on the
# seed.  The levels are few so that map_reference.json can hold a tol-1e-8
# reference for every grid a seed can select.
JITTER_LEVELS = 8
JITTER_SPAN = 0.04
TF_RANGE = {"p1": (1.0, 6.0), "p2": (1.0, 6.0), "chainwise": (1.0, 8.0)}
DELTA_RANGE = (1000 * np.pi, 5000 * np.pi)
MAP_PROTOCOLS = ("p2", "chainwise")
MAP_POINTS = 4       # per axis; ops are 2x2 tiles of the map
MAP_TOL = 1e-6
DESIGN_POINTS = 41   # per axis; ops are bands of t_f rows over all delta
DESIGN_BANDS = ((0, 10), (11, 20), (21, 30), (31, 40))

REFERENCE_PATH = Path(__file__).with_name("map_reference.json")


def jitter_level(seed: int) -> int:
    return random.Random(f"jitter-{seed}").randrange(JITTER_LEVELS)


def jittered_axes(tf_range, points: int, level: int):
    """The (t_f, delta) axes of a jittered grid; see JITTER_LEVELS."""
    scale = 1.0 + JITTER_SPAN * (2.0 * level / (JITTER_LEVELS - 1) - 1.0)
    tf = np.linspace(*tf_range, points) * scale
    delta = np.linspace(*DELTA_RANGE, points) / scale
    return tf, delta


def _range(lo: float, hi: float, count: int) -> str:
    return f"{float(lo)!r}:{float(hi)!r}:{count}"


@dataclass
class Outcome:
    """What the harness learned from one op's outputs."""

    ok: bool
    digest: str
    cells: int = 1
    efficiency_dev: float | None = None
    fidelity: float | None = None
    value: float | None = None


@dataclass
class Op:
    key: str                          # names the same op in every pass
    run: Callable[[], object]         # the timed call
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]
    # Passes a timed run makes even when --seconds runs out first; see
    # tail_percentile().
    min_passes: int = 1
    pass_check: Callable[[dict], set] = lambda outcomes: set()


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _cli_op(key: str, argv: list[str], out: Path, check: Callable[[Path], Outcome]) -> Op:
    argv = [*argv, "--out", str(out)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run_cli(argv)

    def checked(rc):
        if rc != 0:
            return Outcome(False, f"exit {rc}")
        return check(out)

    return Op(key, run, checked)


def _unchecked(out: Path) -> Outcome:
    return Outcome(True, "")


# ---------------------------------------------------------------------------
# scenario: simulate and roundtrip at the three starred points
# ---------------------------------------------------------------------------


def _scenario_argv(command: str, protocol: str, tol: float, samples: int, star=None):
    t_f, delta, *eps = star or STAR[protocol]
    argv = [command, "--preset", PRESET[protocol], "--protocol", protocol,
            "--tf", repr(float(t_f)), "--delta", repr(float(delta)),
            "--tol", repr(tol), "--n-samples", str(samples)]
    if eps:
        argv += ["--epsilon", repr(float(eps[0]))]
    if command == "roundtrip":
        argv += ["--hold", "0.1"]
    return argv


def _scenario_check(protocol: str, roundtrip: bool):
    frozen = FROZEN_EFFICIENCY[protocol]

    def check(out: Path) -> Outcome:
        summary_bytes = (out / "summary.json").read_bytes()
        summary = json.loads(summary_bytes)
        digest = _digest((out / "timeseries.csv").read_bytes(), summary_bytes)
        if roundtrip:
            one_way = summary["one_way_efficiency"]
            dev = abs(one_way - frozen)
            ok = dev <= EFFICIENCY_ATOL and summary["roundtrip_efficiency"] >= one_way**2 - 0.02
        else:
            dev = abs(summary["final_efficiency"] - frozen)
            ok = dev <= EFFICIENCY_ATOL
        return Outcome(ok, digest, efficiency_dev=dev)

    return check


def scenario(seed: int, tmp: Path, smoke: bool) -> Workload:
    cases = [("p2", "simulate")] if smoke else [
        (p, c) for p in ("p1", "p2", "chainwise") for c in ("simulate", "roundtrip")]
    ops = [_cli_op(f"{c}-{p}", _scenario_argv(c, p, 1e-8, 1201), tmp / f"{c}-{p}",
                   _scenario_check(p, c == "roundtrip")) for p, c in cases]
    warm = _cli_op("warmup", _scenario_argv("simulate", "p2", 1e-4, 2, (1.0, 1000 * np.pi)),
                   tmp / "warmup", _unchecked)
    return Workload(ops, [warm], min_passes=1 if smoke else 4)


# ---------------------------------------------------------------------------
# map: lossy efficiency maps at tol 1e-6, checked against a tol-1e-8 reference
# ---------------------------------------------------------------------------


def read_map(path: Path):
    """Axes and cells of a map.csv written by the ``sweep`` command."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    delta = np.array([float(v) for v in rows[0][1:]])
    tf = np.array([float(r[0]) for r in rows[1:]])
    cells = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return tf, delta, cells


def _map_check(reference: np.ndarray, tf: np.ndarray, delta: np.ndarray):
    def check(out: Path) -> Outcome:
        meta = json.loads((out / "map_meta.json").read_text())
        got_tf, got_delta, cells = read_map(out / "map.csv")
        digest = _digest((out / "map.csv").read_bytes())
        same_grid = (got_tf.shape == tf.shape and got_delta.shape == delta.shape
                     and np.allclose(got_tf, tf, rtol=1e-12, atol=0)
                     and np.allclose(got_delta, delta, rtol=1e-12, atol=0))
        if not same_grid:
            return Outcome(False, digest, cells.size)
        dev = float(np.max(np.abs(cells - reference))) if np.all(np.isfinite(cells)) else math.inf
        ok = (not meta["failed_cells"] and np.all(np.isfinite(cells))
              and np.all((cells >= 0.0) & (cells <= 1.0)) and dev <= EFFICIENCY_ATOL)
        return Outcome(bool(ok), digest, cells.size, efficiency_dev=dev)

    return check


def map_tiles(level: int):
    """(protocol, i0, j0, t_f axis, delta axis) of every 2x2 tile of the maps."""
    for protocol in MAP_PROTOCOLS:
        tf, delta = jittered_axes(TF_RANGE[protocol], MAP_POINTS, level)
        for i0 in range(0, MAP_POINTS, 2):
            for j0 in range(0, MAP_POINTS, 2):
                yield protocol, i0, j0, tf[i0:i0 + 2], delta[j0:j0 + 2]


def map_argv(protocol: str, tf, delta, tol: float) -> list[str]:
    return ["sweep", "--metric", "efficiency", "--preset", PRESET[protocol],
            "--protocol", protocol, "--tf", _range(tf[0], tf[-1], tf.size),
            "--delta", _range(delta[0], delta[-1], delta.size), "--tol", repr(tol)]


def efficiency_map(seed: int, tmp: Path, smoke: bool) -> Workload:
    level = jitter_level(seed)
    reference = json.loads(REFERENCE_PATH.read_text())[str(level)]
    ops = []
    for protocol, i0, j0, tf, delta in map_tiles(level):
        ref = np.array(reference[protocol])[i0:i0 + 2, j0:j0 + 2]
        key = f"{protocol}-{i0}-{j0}"
        ops.append(_cli_op(key, map_argv(protocol, tf, delta, MAP_TOL), tmp / key,
                           _map_check(ref, tf, delta)))
    if smoke:
        ops = ops[:1]
    warm = _cli_op("warmup", map_argv("p2", np.array([0.5, 1.0]), np.array([100.0, 200.0]), 1e-4),
                   tmp / "warmup", _unchecked)
    return Workload(ops, [warm], min_passes=1 if smoke else 3)


# ---------------------------------------------------------------------------
# design: 41x41 peak-amplitude maps, checked against the closed forms
# ---------------------------------------------------------------------------


def _peak_check(protocol: str):
    def check(out: Path) -> Outcome:
        tf, delta, cells = read_map(out / "map.csv")
        digest = _digest((out / "map.csv").read_bytes())
        t, d = np.meshgrid(tf, delta, indexing="ij")
        if protocol == "p1":
            expected = np.sqrt(2 * np.pi * d / (t * np.sin(protocols.DEFAULT_BETA)))
        elif protocol == "p2":
            expected = np.sqrt(3 * np.pi * d / t)
        else:
            ok = bool(np.all(np.isfinite(cells)) and np.all(cells > 0))
            return Outcome(ok, digest, cells.size)
        ok = bool(np.all(np.abs(cells - expected) <= PEAK_RTOL * expected))
        return Outcome(ok, digest, cells.size)

    return check


def design(seed: int, tmp: Path, smoke: bool) -> Workload:
    level = jitter_level(seed)
    ops, warm = [], []
    for protocol, tf_range in TF_RANGE.items():
        tf, delta = jittered_axes(tf_range, DESIGN_POINTS, level)
        bands = ((0, 1),) if smoke else DESIGN_BANDS
        cols = delta[:5] if smoke else delta
        for a, b in bands:
            key = f"{protocol}-{a}"
            argv = ["sweep", "--metric", "peak", "--protocol", protocol,
                    "--tf", _range(tf[a], tf[b], b - a + 1),
                    "--delta", _range(cols[0], cols[-1], cols.size)]
            ops.append(_cli_op(key, argv, tmp / key, _peak_check(protocol)))
        warm.append(_cli_op(f"warmup-{protocol}", [
            "sweep", "--metric", "peak", "--protocol", protocol,
            "--tf", "1.0:2.0:2", "--delta", "1000.0:2000.0:2"], tmp / f"warmup-{protocol}",
            _unchecked))
    return Workload(ops, warm, min_passes=1 if smoke else 3)


# ---------------------------------------------------------------------------
# verify: lossless transport, invariant residuals, elimination gaps (library)
# ---------------------------------------------------------------------------

_DESIGNS = {
    "p1": lambda: protocols.design_protocol1(
        *P1_STAR, mode=protocols.DeltaTwoMode.exact_clamped()),
    "p2": lambda: protocols.design_protocol2(*P2_STAR),
    "chainwise": lambda: protocols.design_chainwise(*CHAIN_STAR),
}
_STAR_GAP_BOUND = {"p2": 0.02, "chainwise": 0.03}
_RATIOS = (20.0, 60.0, 200.0)


def _eigenstates(protocol: str):
    return invariants.eigenstates3 if protocol == "chainwise" else invariants.eigenstates2


def _transport_op(protocol: str) -> Op:
    target = 2 if protocol == "chainwise" else 1

    def run():
        sched = _DESIGNS[protocol]()
        aux = sched.design["aux"]
        eig = _eigenstates(protocol)
        grid = qcore.TimeGrid(0.0, sched.duration, 401)
        traj = qcore.propagate_state(protocols.effective_rule(sched), eig(aux, 0.0)[0],
                                     grid, tol=1e-10)
        fids = np.array([qcore.fidelity(eig(aux, t)[0], qcore.StateVector(traj.states[i]))
                         for i, t in enumerate(grid.times)])
        return fids, traj

    def check(result) -> Outcome:
        fids, traj = result
        worst = float(np.min(fids))
        ok = worst >= 0.999 and traj.populations[-1, target] >= 0.999
        return Outcome(bool(ok), _digest(fids, traj.states), fidelity=worst)

    return Op(f"transport-{protocol}", run, check)


def _residual_op(protocol: str) -> Op:
    def run():
        sched = _DESIGNS[protocol]()
        aux = sched.design["aux"]
        rule = (invariants.invariant3_rule(aux) if protocol == "chainwise"
                else invariants.invariant2_rule(aux))
        return invariants.invariant_residual(rule, protocols.effective_rule(sched),
                                             qcore.TimeGrid(0.0, sched.duration, 2001))

    def check(residual) -> Outcome:
        ok = residual <= acceptance.FROZEN_RESIDUAL_BOUNDS[protocol]
        return Outcome(bool(ok), _digest(np.float64(residual)), value=float(residual))

    return Op(f"residual-{protocol}", run, check)


def _star_gap_op(protocol: str) -> Op:
    full_target, eff_target = (4, 2) if protocol == "chainwise" else (2, 1)

    def run():
        sched = _DESIGNS[protocol]()
        grid = qcore.TimeGrid(0.0, sched.duration, 2)
        full_rule = protocols.hamiltonian_rule(sched)
        eff_rule = protocols.effective_rule(sched)
        full = qcore.propagate_state(full_rule, qcore.StateVector.basis(full_rule.dimension, 0), grid)
        eff = qcore.propagate_state(eff_rule, qcore.StateVector.basis(eff_rule.dimension, 0), grid)
        return full, eff

    def check(result) -> Outcome:
        full, eff = result
        gap = abs(full.populations[-1, full_target] - eff.populations[-1, eff_target])
        return Outcome(bool(gap <= _STAR_GAP_BOUND[protocol]),
                       _digest(full.states, eff.states), value=float(gap))

    return Op(f"star-gap-{protocol}", run, check)


def _ratio_gap_op(ratio: float) -> Op:
    def run():
        p = schemes.LambdaParams(1.0, 1.0, delta_single=ratio, duration=20.0)
        grid = qcore.TimeGrid(0.0, 20.0, 2)
        full = qcore.propagate_state(schemes.build_lambda(p), qcore.StateVector.basis(3, 0),
                                     grid, tol=1e-10)
        eff = qcore.propagate_state(schemes.reduce_lambda(p).hamiltonian(),
                                    qcore.StateVector.basis(2, 0), grid, tol=1e-10)
        return full, eff

    def check(result) -> Outcome:
        full, eff = result
        gap = abs(full.populations[-1, 2] - eff.populations[-1, 1])
        return Outcome(True, _digest(full.states, eff.states), value=float(gap))

    return Op(f"ratio-gap-{ratio:g}", run, check)


def _ratio_monotone(outcomes: dict) -> set:
    """The elimination gap must shrink as the detuning ratio grows."""
    keys = [f"ratio-gap-{r:g}" for r in _RATIOS]
    if not all(k in outcomes for k in keys):
        return set()
    gaps = [outcomes[k].value for k in keys]
    return set() if gaps[0] > gaps[1] > gaps[2] else set(keys)


def verify(seed: int, tmp: Path, smoke: bool) -> Workload:
    if smoke:
        ops = [_transport_op("p2"), _residual_op("p2"), _star_gap_op("p2"), _ratio_gap_op(200.0)]
    else:
        ops = [*(f(p) for f in (_transport_op, _residual_op) for p in _DESIGNS),
               *(_star_gap_op(p) for p in _STAR_GAP_BOUND),
               *(_ratio_gap_op(r) for r in _RATIOS)]
    return Workload(ops, [_transport_op("p2")], min_passes=1 if smoke else 3,
                    pass_check=_ratio_monotone)


# Workload name -> function making its op list from (seed, output dir, smoke).
WORKLOADS = {"scenario": scenario, "map": efficiency_map, "verify": verify, "design": design}


# ---------------------------------------------------------------------------
# timing loop
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Timings and check results of the passes of one half of a run."""

    durations: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    cells: int = 0
    passes: int = 0
    efficiency_dev: float = 0.0
    min_fidelity: float = 1.0

    @property
    def busy(self) -> float:
        return sum(self.durations)


def _run_op(op: Op) -> tuple[float, Outcome]:
    start = perf_counter()
    try:
        result = op.run()
    except Exception:  # an op that raises is a failed op, not a failed run
        elapsed = perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return elapsed, Outcome(False, "raised")
    elapsed = perf_counter() - start
    try:
        return elapsed, op.check(result)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return elapsed, Outcome(False, "check raised")


def warm_up(workload: Workload) -> None:
    for op in workload.warmup:
        _, outcome = _run_op(op)
        if not outcome.ok:
            raise RuntimeError(f"warm-up op {op.key} failed")


def run_passes(workload: Workload, rng: random.Random, seconds: float,
               digests: dict, tally: Tally, min_passes: int = 1) -> None:
    """Whole passes until ``seconds`` of wall time and ``min_passes`` are done."""
    start = perf_counter()
    while tally.passes < min_passes or perf_counter() - start < seconds:
        order = list(workload.ops)
        rng.shuffle(order)
        outcomes = {}
        for op in order:
            elapsed, outcome = _run_op(op)
            tally.durations.append(elapsed)
            outcomes[op.key] = outcome
        bad = workload.pass_check(outcomes)
        for key, outcome in outcomes.items():
            stable = digests.setdefault(key, outcome.digest) == outcome.digest
            tally.attempted += 1
            if not (outcome.ok and stable) or key in bad:
                tally.failed += 1
                print(f"op {key} failed (check ok={outcome.ok}, digest stable={stable})",
                      file=sys.stderr)
                continue
            tally.cells += outcome.cells
            if outcome.efficiency_dev is not None:
                tally.efficiency_dev = max(tally.efficiency_dev, outcome.efficiency_dev)
            if outcome.fidelity is not None:
                tally.min_fidelity = min(tally.min_fidelity, outcome.fidelity)
        tally.passes += 1


def tail_percentile(workload: Workload) -> float:
    """The highest percentile with ten ops beyond it in the shortest timed run.

    The shortest run is ``min_passes`` passes; a longer run has more than ten
    ops beyond it.  Fixing the percentile per workload keeps it on the same
    op kind whatever the pass count, where a fixed rank from the top would
    jump between kinds as the pass count changes.  A workload with ten ops
    or fewer in its shortest run reports its slowest op.
    """
    n = workload.min_passes * len(workload.ops)
    return 100.0 * (1.0 - 10.0 / n) if n > 10 else 100.0


def end_to_end(tally: Tally, percentile: float) -> dict:
    return {
        "ops_per_s": ("1/s", tally.attempted / tally.busy),
        "op_ms_p50": ("ms", 1e3 * float(np.median(tally.durations))),
        "op_ms_tail": ("ms", 1e3 * float(np.percentile(tally.durations, percentile))),
        "cells_per_s": ("1/s", tally.cells / tally.busy),
    }


# ---------------------------------------------------------------------------
# ROADMAP baseline rows: propagate_density at the starred points
# ---------------------------------------------------------------------------


def baseline_rows(repeats: int = 2) -> dict:
    """Best-of-``repeats`` final-sample ``propagate_density`` at P1*, P2*, M5*.

    Each row has its wall time, its H(t) matrix count and the deviation of
    its efficiency from the frozen oracle value.
    """
    cases = (
        ("p1", protocols.design_protocol1(*P1_STAR), LAMBDA_DECAYS, 2, FROZEN_EFFICIENCY["p1"]),
        ("p2", protocols.design_protocol2(*P2_STAR), LAMBDA_DECAYS, 2, FROZEN_EFFICIENCY["p2"]),
        ("m5", protocols.design_chainwise(*CHAIN_STAR), M_DECAYS, 4,
         FROZEN_EFFICIENCY["chainwise"]),
    )
    rows = {}
    for label, sched, decays, target, frozen in cases:
        rule = protocols.hamiltonian_rule(sched)
        evaluate, evals = rule.evaluator, [0]

        def counted(t, evaluate=evaluate, evals=evals):
            evals[0] += np.size(t)
            return evaluate(t)

        counted_rule = dataclasses.replace(rule, evaluator=counted)
        rho0 = qcore.DensityMatrix.pure(qcore.StateVector.basis(rule.dimension, 0))
        grid = qcore.TimeGrid(0.0, sched.duration, 2)
        for tol, tag in ((1e-6, "1e-6"), (1e-8, "1e-8")):
            best = math.inf
            for _ in range(repeats):
                evals[0] = 0
                start = perf_counter()
                traj = qcore.propagate_density(counted_rule, qcore.DecayVector(decays), rho0,
                                               grid, tol=tol, breakpoints=sched.breakpoints)
                best = min(best, perf_counter() - start)
            name = f"baseline.{label}_{tag}"
            rows[f"{name}.ms"] = ("ms", 1e3 * best)
            rows[f"{name}.h_evals"] = ("count", evals[0])
            rows[f"{name}.efficiency_dev"] = (
                "1", abs(float(traj.populations[-1, target]) - frozen))
    return rows
