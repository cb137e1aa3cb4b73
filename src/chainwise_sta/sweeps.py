"""Parameter-sweep and single-scenario experiments over designed schedules.

A sweep evaluates a designer over a rectangular grid of leg duration and
single-photon detuning, producing a :class:`GridMap` of either peak channel
amplitude (no propagation) or transfer efficiency (full lossy propagation
per cell).  A peak map makes one design, at its first cell, and then
samples a reference row plus candidates: each designed first channel is a
delta-free profile with the detuning applied as a positive scalar, and the
profiles differ between rows only through t_f, so the first row is sampled
in full and every other row only at the samples where the first row
comes near its peak (``protocols.peak_amplitudes``), bitwise equal to
designing each cell.  The map runs in the calling thread.  Efficiency
cells spend their time in large numpy operations that release the GIL;
they run as independent tasks on a thread pool capped by the
``CHAINWISE_STA_THREADS`` environment variable (a positive integer;
default: the cores this process may run on).
Cells are submitted in descending t_f * delta, the detuning phase budget
that every Magnus step count scales with, so that the longest cells
mostly do not start last and leave one worker finishing alone.  The order
is approximate: a cell certified against a coarser check run walks
55-67% of the steps per unit of budget of a cell on the finer check, and
a gate-closed cell on the heuristic count more (see
``qcore._propagate``).  It still schedules well: over the 64 2x2 bench
map tiles (8 jitter levels, tol 1e-6), two-worker list scheduling of
solo per-cell times (best of 3, one thread) gives a total makespan of
2,346 ms in this order, against 2,333 ms for the best order of each
tile (+0.6%) and 2,479 ms for row-major order.  Results are placed by
index: the assembled map is bitwise-identical regardless of evaluation
order or worker count.

An efficiency cell is ``run_scenario`` at 2 output samples: the
population of the target level, the last one (level 3 of the three-level
ladder, level 5 of the chain), at the end of the schedule.  Cells whose
propagation fails are recorded in the metadata and set to NaN rather
than aborting the map.
"""

from __future__ import annotations

import os
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np

from .protocols import (
    PulseSchedule,
    build_roundtrip,
    design_chainwise,
    design_protocol1,
    design_protocol2,
    hamiltonian_rule,
    peak_amplitude,  # noqa: F401 (part of this module's namespace; bench/tracing.py wraps it)
    peak_amplitudes,
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
    "design_options",
]

# Protocol -> (levels of the driven scheme, keyword options its designer takes).
_PROTOCOLS = {"p1": (3, ("beta", "mode")), "p2": (3, ()), "chainwise": (5, ("epsilon",))}
PROTOCOL_LEVELS = {name: levels for name, (levels, _) in _PROTOCOLS.items()}
PROTOCOLS = tuple(_PROTOCOLS)
DEFAULT_MAP_TOL = 1e-6
DEFAULT_SCENARIO_TOL = 1e-8
DEFAULT_SCENARIO_SAMPLES = 1201


def design_options(protocol: str) -> tuple[str, ...]:
    """The keyword options that the protocol's designer takes."""
    if protocol not in _PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    return _PROTOCOLS[protocol][1]


def _check_decays(protocol: str, decays: DecayVector) -> None:
    levels = PROTOCOL_LEVELS[protocol]
    if decays.dimension != levels:
        raise ValueError(f"{protocol} needs {levels} decay rates, got {decays.dimension}")


def _check_design(protocol: str, design) -> None:
    takes = design_options(protocol)
    for name in design:
        if name not in takes:
            raise ValueError(f"the {protocol} designer takes no option {name!r} "
                             f"(it takes {', '.join(takes) or 'none'})")


def thread_cap() -> int:
    raw = os.environ.get("CHAINWISE_STA_THREADS", "")
    if raw.strip():
        try:
            cap = int(raw)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ValueError(f"CHAINWISE_STA_THREADS must be a positive integer, got {raw!r}")
        return cap
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _timestamp() -> str:
    """UTC time of the run, or ``SOURCE_DATE_EPOCH`` (decimal integer seconds) if set."""
    raw = os.environ.get("SOURCE_DATE_EPOCH", "")
    try:
        if raw and not (raw.isascii() and raw.removeprefix("-").isdigit()):
            raise ValueError
        stamp = _time.gmtime(int(raw)) if raw else _time.gmtime()
    except (ValueError, OverflowError, OSError):
        raise ValueError(f"SOURCE_DATE_EPOCH must be a decimal integer of seconds "
                         f"within the platform's time range, got {raw!r}") from None
    return _time.strftime("%Y-%m-%dT%H:%M:%SZ", stamp)


@dataclass(frozen=True)
class SweepSpec:
    """The grid of one sweep: a protocol, its design options and two axes.

    ``design`` holds keyword options of the protocol's designer, under the
    designer's own names (``design_options(protocol)``); the designer's
    defaults fill the rest, and an option it does not take is a ValueError.
    A peak map reads nothing else; an efficiency map takes its decays and
    tolerance as arguments of :func:`sweep_efficiency`.
    """

    protocol: str
    tf_range: tuple[float, float, int]        # min, max, count (us)
    delta_range: tuple[float, float, int]     # min, max, count (rad/us)
    design: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_design(self.protocol, self.design)
        for name, (lo, hi, count) in (("t_f", self.tf_range), ("delta", self.delta_range)):
            if count < 2:
                raise ValueError(f"{name} range needs at least 2 points")
            if not 0 < lo <= hi < np.inf:
                raise ValueError(f"{name} range must be finite, positive and ordered")

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
        cols = ",".join(["%.17g"] * self.delta_values.size)
        header = ("tf_us\\delta_rad_us," + cols + "\n") % tuple(self.delta_values.tolist())
        line = "%.17g," + cols + "\n"
        # Python floats format faster than numpy scalars, to the same text.
        table = np.column_stack([self.tf_values, self.cells]).tolist()
        with open(path, "w", newline="") as fh:
            fh.write(header + "".join(line % tuple(row) for row in table))


def design_schedule(protocol: str, t_f: float, delta: float, **design) -> PulseSchedule:
    """Dispatch one of the three designers by protocol name.

    ``design`` passes keyword options to the designer: ``beta`` and
    ``mode`` for p1, none for p2, ``epsilon`` for chainwise.  Any other
    option raises ValueError naming it.
    """
    _check_design(protocol, design)
    # Looked up per call, so a patched module name sees every design.
    designer = {"p1": design_protocol1, "p2": design_protocol2,
                "chainwise": design_chainwise}[protocol]
    return designer(t_f, delta, **design)


def _base_metadata(spec: SweepSpec, metric: str) -> dict:
    """The run's record of its grid; a metric adds what else it reads."""
    return {
        "metric": metric,
        "protocol": spec.protocol,
        "tf_range_us": list(spec.tf_range),
        "delta_range_rad_us": list(spec.delta_range),
        # The options given; a DeltaTwoMode is written as its mode and limit.
        "design": {name: asdict(value) if is_dataclass(value) else value
                   for name, value in spec.design.items()},
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

    # Roughly heaviest first: every step count scales with the phase budget
    # t_f * delta, but a cell checked by a coarser run takes fewer steps
    # than a finer-checked or heuristic cell of the same budget.
    indices = sorted(((i, j) for i in range(tf_vals.size) for j in range(dl_vals.size)),
                     key=lambda ij: -tf_vals[ij[0]] * dl_vals[ij[1]])
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

    The map makes one design, with every check of the designer, at its
    first cell; ``peak_amplitudes`` then takes every cell from a reference
    row's delta-free profile plus the other rows' candidate samples.  Each
    cell is bitwise equal to ``peak_amplitude(design_schedule(...))`` of
    that cell.  A design error, or the first cell in row-major order whose
    peak (or whose row's sampled profile) is not finite, aborts the sweep
    with the cell coordinates in the message (an invalid design is a
    configuration problem, not a lost cell).
    """
    tf_vals = spec.tf_values
    dl_vals = spec.delta_values
    meta = _base_metadata(spec, "peak_amplitude")
    try:
        leg = design_schedule(spec.protocol, tf_vals[0], dl_vals[0], **spec.design)
    except ValueError as exc:
        raise _cell_error(tf_vals[0], dl_vals[0], exc) from exc
    cells = peak_amplitudes(leg, tf_vals, dl_vals)
    bad = np.argwhere(~np.isfinite(cells))
    if bad.size:
        i, j = bad[0]
        raise _cell_error(tf_vals[i], dl_vals[j], "peak amplitude is not finite")
    return GridMap(tf_vals, dl_vals, cells, meta)


def _cell_error(tf: float, delta: float, reason) -> ValueError:
    return ValueError(f"design failed at t_f={tf:.6g} us, delta={delta:.6g} rad/us: {reason}")


def sweep_efficiency(spec: SweepSpec, decays: DecayVector,
                     tol: float = DEFAULT_MAP_TOL) -> GridMap:
    """Final target-level population per cell under ``decays``.

    ``decays`` holds one rate per level of the protocol's scheme; a wrong
    count is a ValueError before any cell is designed.  Each cell is
    ``run_scenario(..., tol=tol, n_samples=2).final_efficiency``;
    integration failures become NaN cells listed in
    ``metadata["failed_cells"]``.  The metadata also records the decays
    and tol.
    """
    _check_decays(spec.protocol, decays)

    def cell(tf, delta):
        try:
            result = run_scenario(spec.protocol, tf, delta, decays,
                                  tol=tol, n_samples=2, **spec.design)
        except IntegrationError as exc:
            return np.nan, str(exc)
        return result.final_efficiency, None

    meta = _base_metadata(spec, "efficiency")
    meta.update(decays_rad_us=[float(g) for g in decays.rates], tolerance=float(tol))
    cells, meta["failed_cells"] = _run_cells(spec, cell)
    return GridMap(spec.tf_values, spec.delta_values, cells, meta)


@dataclass
class ScenarioResult:
    """Full time series and summary scalars for one designed run.

    ``final_efficiency`` is the population of the last level at the end of
    a one-way run, and of the first level, where the run started, at the
    end of a round trip.  ``peak_excited`` maps each intermediate level to
    its largest population over the output samples; ``one_way_efficiency``
    (round trips only) is the last level's population at the end of the
    forward leg, and ``roundtrip_efficiency`` reads ``final_efficiency``
    there and ``None`` on a one-way run.
    """

    schedule: PulseSchedule
    times: np.ndarray
    populations: np.ndarray  # (n_samples, n)
    traces: np.ndarray
    final_efficiency: float
    peak_excited: dict[int, float]
    one_way_efficiency: float | None = None

    @property
    def roundtrip_efficiency(self) -> float | None:
        return None if self.one_way_efficiency is None else self.final_efficiency

    @property
    def peak_excited_total(self) -> float:
        return max(self.peak_excited.values())

    def to_csv(self, path) -> None:
        n = self.populations.shape[1]
        header = "t_us," + ",".join(f"pop_{k + 1}" for k in range(n)) + ",trace\n"
        line = "%.9g," + ",".join(["%.12g"] * n) + ",%.12g\n"
        table = np.column_stack([self.times, self.populations, self.traces]).tolist()
        with open(path, "w", newline="") as fh:
            fh.write(header + "".join(line % tuple(row) for row in table))

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
            out["roundtrip_efficiency"] = float(self.roundtrip_efficiency)
        return out


def run_scenario(
    protocol: str,
    t_f: float,
    delta: float,
    decays: DecayVector,
    roundtrip_hold: float | None = None,
    tol: float = DEFAULT_SCENARIO_TOL,
    n_samples: int = DEFAULT_SCENARIO_SAMPLES,
    **design,
) -> ScenarioResult:
    """Design one schedule, propagate the lossy dynamics, report the outcome.

    ``design`` passes keyword options to the protocol's designer, as in
    ``design_schedule``; an option the designer does not take raises
    ValueError naming it.

    The run starts in the first level; the last level is the target (level
    3 of the three-level ladder, level 5 of the chain) and the odd interior
    levels (2, and 2 and 4) the excited ones.  With ``roundtrip_hold`` set,
    the forward leg is extended into a forward/hold/return sequence;
    ``one_way_efficiency`` is then the target population at t_f, the end
    of the forward leg, and ``final_efficiency`` (and
    ``roundtrip_efficiency``) the population recovered in the first level.
    t_f is a breakpoint of the round trip, hence a Magnus step edge, so the
    one-way value is the state there from the same propagation, whatever
    ``n_samples`` is.  ``peak_excited`` is the largest population of each
    excited level over the ``n_samples`` output samples only: a coarse grid
    can miss the true peak.  An efficiency map cell is this run's
    ``final_efficiency`` at 2 samples.
    """
    leg = design_schedule(protocol, t_f, delta, **design)
    schedule = leg if roundtrip_hold is None else build_roundtrip(leg, roundtrip_hold)
    h = hamiltonian_rule(schedule)
    n = h.dimension
    _check_decays(protocol, decays)
    grid = TimeGrid(0.0, schedule.duration, n_samples)
    rho0 = DensityMatrix.pure(StateVector.basis(n, 0))
    traj = propagate_density(h, decays, rho0, grid, tol=tol, breakpoints=schedule.breakpoints)
    pops = traj.populations
    one_way = None
    if roundtrip_hold is not None:
        # The forward leg ends at the first breakpoint, a step edge of the run.
        one_way = float((np.abs(traj.breakpoint_states) ** 2)[0, n - 1])
    return ScenarioResult(
        schedule=schedule,
        times=traj.times,
        populations=pops,
        traces=traj.norms_sq,
        final_efficiency=float(pops[-1, n - 1 if one_way is None else 0]),
        peak_excited={lvl: float(np.max(pops[:, lvl])) for lvl in range(1, n - 1, 2)},
        one_way_efficiency=one_way,
    )
