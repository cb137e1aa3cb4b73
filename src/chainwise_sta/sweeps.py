"""Parameter-sweep and single-scenario experiments over designed schedules.

A sweep evaluates a designer over a rectangular grid of leg duration and
single-photon detuning, producing a :class:`GridMap` of either peak channel
amplitude (no propagation) or transfer efficiency (full lossy propagation
per cell).  Cells are independent tasks executed on a thread pool capped by
the ``CHAINWISE_STA_THREADS`` environment variable; the assembled map is
bitwise-identical regardless of evaluation order or worker count.

Efficiency is the population of the target level at the end of the
schedule: level 3 of the three-level ladder, level 5 of the chain.  Cells
whose propagation fails are recorded in the metadata and set to NaN rather
than aborting the map.
"""

from __future__ import annotations

import os
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .protocols import (
    DEFAULT_BETA,
    DeltaTwoMode,
    PulseSchedule,
    build_roundtrip,
    design_chainwise,
    design_protocol1,
    design_protocol2,
    hamiltonian_rule,
    peak_amplitude,
)
from .qcore import (
    DecayVector,
    DensityMatrix,
    IntegrationError,
    StateVector,
    TimeGrid,
    propagate_density,
)

__all__ = [
    "SweepSpec",
    "GridMap",
    "ScenarioResult",
    "sweep_peak_amplitude",
    "sweep_efficiency",
    "run_scenario",
    "design_schedule",
]

PROTOCOL_LEVELS = {"p1": 3, "p2": 3, "chainwise": 5}  # levels of the driven scheme
PROTOCOLS = tuple(PROTOCOL_LEVELS)
DEFAULT_MAP_TOL = 1e-6
DEFAULT_SCENARIO_TOL = 1e-8
DEFAULT_SCENARIO_SAMPLES = 1201
DEFAULT_EPSILON = 0.03

_TARGET_LEVEL = {"lambda3": 2, "m5": 4}
_EXCITED_LEVELS = {"lambda3": (1,), "m5": (1, 3)}


def thread_cap() -> int:
    raw = os.environ.get("CHAINWISE_STA_THREADS", "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(f"CHAINWISE_STA_THREADS must be an integer, got {raw!r}")
    return os.cpu_count() or 1


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    stamp = float(epoch) if epoch else _time.time()
    return _time.strftime("%Y-%m-%dT%H:%M:%SZ", _time.gmtime(stamp))


@dataclass(frozen=True)
class SweepSpec:
    """Grid and fixed options for one sweep."""

    protocol: str
    tf_range: tuple[float, float, int]        # min, max, count (us)
    delta_range: tuple[float, float, int]     # min, max, count (rad/us)
    decays: DecayVector
    beta: float = DEFAULT_BETA
    epsilon: float = DEFAULT_EPSILON
    delta_two_mode: DeltaTwoMode = field(default_factory=DeltaTwoMode.dropped)
    tol: float = DEFAULT_MAP_TOL

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        for name, (lo, hi, count) in (("t_f", self.tf_range), ("delta", self.delta_range)):
            if count < 2:
                raise ValueError(f"{name} range needs at least 2 points")
            if not 0 < lo <= hi < np.inf:
                raise ValueError(f"{name} range must be finite, positive and ordered")
        expected = PROTOCOL_LEVELS[self.protocol]
        if self.decays.dimension != expected:
            raise ValueError(
                f"{self.protocol} needs {expected} decay rates, got {self.decays.dimension}"
            )

    @property
    def tf_values(self) -> np.ndarray:
        lo, hi, count = self.tf_range
        return np.linspace(lo, hi, count)

    @property
    def delta_values(self) -> np.ndarray:
        lo, hi, count = self.delta_range
        return np.linspace(lo, hi, count)


@dataclass
class GridMap:
    """2-D result grid over (t_f, delta) with provenance metadata.

    ``cells[i, j]`` corresponds to ``tf_values[i]`` and ``delta_values[j]``.
    """

    tf_values: np.ndarray
    delta_values: np.ndarray
    cells: np.ndarray
    metadata: dict

    def __post_init__(self):
        if self.cells.shape != (self.tf_values.size, self.delta_values.size):
            raise ValueError("cell block does not match the axes")

    def to_csv(self, path) -> None:
        """Matrix layout: first row the delta axis, first column the t_f axis."""
        with open(path, "w", newline="") as fh:
            fh.write("tf_us\\delta_rad_us," + ",".join(f"{d:.17g}" for d in self.delta_values) + "\n")
            for i, tf in enumerate(self.tf_values):
                row = ",".join(f"{v:.17g}" for v in self.cells[i])
                fh.write(f"{tf:.17g},{row}\n")


def design_schedule(
    protocol: str,
    t_f: float,
    delta: float,
    beta: float = DEFAULT_BETA,
    epsilon: float = DEFAULT_EPSILON,
    delta_two_mode: DeltaTwoMode | None = None,
) -> PulseSchedule:
    """Dispatch one of the three designers by protocol name."""
    if protocol == "p1":
        return design_protocol1(t_f, delta, beta=beta, mode=delta_two_mode)
    if protocol == "p2":
        return design_protocol2(t_f, delta)
    if protocol == "chainwise":
        return design_chainwise(t_f, delta, epsilon)
    raise ValueError(f"unknown protocol {protocol!r}")


def _base_metadata(spec: SweepSpec, metric: str) -> dict:
    return {
        "metric": metric,
        "protocol": spec.protocol,
        "decays_rad_us": [float(g) for g in spec.decays.rates],
        "tf_range_us": list(spec.tf_range),
        "delta_range_rad_us": list(spec.delta_range),
        "beta": float(spec.beta),
        "epsilon": float(spec.epsilon),
        "delta_two_mode": spec.delta_two_mode.mode,
        "delta_two_clamp_rad_us": float(spec.delta_two_mode.limit),
        "tolerance": float(spec.tol),
        "timestamp": _timestamp(),
        "failed_cells": [],
    }


def _run_cells(spec: SweepSpec, cell_fn) -> tuple[np.ndarray, list]:
    tf_vals = spec.tf_values
    dl_vals = spec.delta_values
    cells = np.full((tf_vals.size, dl_vals.size), np.nan)
    failures = []

    def task(idx):
        i, j = idx
        return i, j, cell_fn(tf_vals[i], dl_vals[j])

    indices = [(i, j) for i in range(tf_vals.size) for j in range(dl_vals.size)]
    with ThreadPoolExecutor(max_workers=thread_cap()) as pool:
        for i, j, outcome in pool.map(task, indices):
            value, err = outcome
            cells[i, j] = value
            if err is not None:
                failures.append([int(i), int(j), err])
    failures.sort()
    return cells, failures


def sweep_peak_amplitude(spec: SweepSpec) -> GridMap:
    """Peak channel amplitude per cell; pure design, no propagation.

    Design errors abort the sweep with the failing cell coordinates in the
    message (an invalid design is a configuration problem, not a lost cell).
    """

    def cell(tf, delta):
        try:
            sched = design_schedule(
                spec.protocol, tf, delta,
                beta=spec.beta, epsilon=spec.epsilon, delta_two_mode=spec.delta_two_mode,
            )
        except ValueError as exc:
            raise ValueError(f"design failed at t_f={tf:.6g} us, delta={delta:.6g} rad/us: {exc}") from exc
        return peak_amplitude(sched), None

    cells, failures = _run_cells(spec, cell)
    meta = _base_metadata(spec, "peak_amplitude")
    meta["failed_cells"] = failures
    return GridMap(spec.tf_values, spec.delta_values, cells, meta)


def sweep_efficiency(spec: SweepSpec) -> GridMap:
    """Final target-level population per cell under the spec's decays.

    Each cell designs its schedule and integrates the lossy dynamics from
    the first level; integration failures become NaN cells listed in
    ``metadata["failed_cells"]``.
    """

    def cell(tf, delta):
        sched = design_schedule(
            spec.protocol, tf, delta,
            beta=spec.beta, epsilon=spec.epsilon, delta_two_mode=spec.delta_two_mode,
        )
        h = hamiltonian_rule(sched)
        target = _TARGET_LEVEL[sched.scheme]
        rho0 = DensityMatrix.pure(StateVector.basis(h.dimension, 0))
        grid = TimeGrid(0.0, sched.duration, 2)
        try:
            traj = propagate_density(h, spec.decays, rho0, grid, tol=spec.tol,
                                     breakpoints=sched.breakpoints)
        except IntegrationError as exc:
            return np.nan, str(exc)
        return float(traj.populations[-1, target]), None

    cells, failures = _run_cells(spec, cell)
    meta = _base_metadata(spec, "efficiency")
    meta["failed_cells"] = failures
    return GridMap(spec.tf_values, spec.delta_values, cells, meta)


@dataclass
class ScenarioResult:
    """Full time series and summary scalars for one designed run."""

    schedule: PulseSchedule
    times: np.ndarray
    populations: np.ndarray  # (n_samples, n)
    traces: np.ndarray
    final_efficiency: float
    peak_excited: dict[int, float]
    one_way_efficiency: float | None = None
    roundtrip_efficiency: float | None = None

    @property
    def peak_excited_total(self) -> float:
        return max(self.peak_excited.values())

    def to_csv(self, path) -> None:
        n = self.populations.shape[1]
        header = "t_us," + ",".join(f"pop_{k + 1}" for k in range(n)) + ",trace\n"
        with open(path, "w", newline="") as fh:
            fh.write(header)
            for i, t in enumerate(self.times):
                cols = ",".join(f"{p:.12g}" for p in self.populations[i])
                fh.write(f"{t:.9g},{cols},{self.traces[i]:.12g}\n")

    def summary(self) -> dict:
        out = {
            "scheme": self.schedule.scheme,
            "duration_us": float(self.schedule.duration),
            "final_efficiency": float(self.final_efficiency),
            "peak_excited": {str(k + 1): float(v) for k, v in self.peak_excited.items()},
            "final_trace": float(self.traces[-1]),
        }
        if self.one_way_efficiency is not None:
            out["one_way_efficiency"] = float(self.one_way_efficiency)
        if self.roundtrip_efficiency is not None:
            out["roundtrip_efficiency"] = float(self.roundtrip_efficiency)
        return out


def run_scenario(
    protocol: str,
    t_f: float,
    delta: float,
    decays: DecayVector,
    beta: float = DEFAULT_BETA,
    epsilon: float = DEFAULT_EPSILON,
    delta_two_mode: DeltaTwoMode | None = None,
    roundtrip_hold: float | None = None,
    tol: float = DEFAULT_SCENARIO_TOL,
    n_samples: int = DEFAULT_SCENARIO_SAMPLES,
) -> ScenarioResult:
    """Design one schedule, propagate the lossy dynamics, report the outcome.

    With ``roundtrip_hold`` set, the forward leg is extended into a
    forward/hold/return sequence; ``one_way_efficiency`` is then the target
    population at the end of the forward leg and ``final_efficiency`` (and
    ``roundtrip_efficiency``) the population recovered in the initial level.
    """
    leg = design_schedule(protocol, t_f, delta, beta=beta, epsilon=epsilon,
                          delta_two_mode=delta_two_mode)
    schedule = leg if roundtrip_hold is None else build_roundtrip(leg, roundtrip_hold)
    h = hamiltonian_rule(schedule)
    if decays.dimension != h.dimension:
        raise ValueError(
            f"{protocol} needs {h.dimension} decay rates, got {decays.dimension}"
        )
    grid = TimeGrid(0.0, schedule.duration, n_samples)
    rho0 = DensityMatrix.pure(StateVector.basis(h.dimension, 0))
    traj = propagate_density(h, decays, rho0, grid, tol=tol,
                             breakpoints=schedule.breakpoints)
    pops = traj.populations
    target = _TARGET_LEVEL[schedule.scheme]
    peak_excited = {
        lvl: float(np.max(pops[:, lvl])) for lvl in _EXCITED_LEVELS[schedule.scheme]
    }
    if roundtrip_hold is None:
        return ScenarioResult(
            schedule=schedule,
            times=traj.times,
            populations=pops,
            traces=traj.traces,
            final_efficiency=float(pops[-1, target]),
            peak_excited=peak_excited,
        )
    one_way = float(np.interp(t_f, traj.times, pops[:, target]))
    recovered = float(pops[-1, 0])
    return ScenarioResult(
        schedule=schedule,
        times=traj.times,
        populations=pops,
        traces=traj.traces,
        final_efficiency=recovered,
        peak_excited=peak_excited,
        one_way_efficiency=one_way,
        roundtrip_efficiency=recovered,
    )
