"""Inverse-engineered laboratory pulse schedules.

Each designer starts from an invariant-eigenstate transport target in the
eliminated (effective) frame and maps the required effective drive back onto
laboratory Rabi channels of the full level scheme:

* protocol 1: linear mixing-angle ramp at fixed phase angle ``beta``; the
  laboratory coupling comes out constant and a small auxiliary two-photon
  detuning appears, singular at the leg edges.  It contributes so little
  that it can be clamped or dropped outright (``DeltaTwoMode``).
* protocol 2: cubic mixing-angle ramp with flat ends; the laboratory
  coupling is a smooth bump vanishing at both edges and no two-photon
  detuning is needed.
* chainwise: the five-level chain driven through the null eigenstate of the
  three-level invariant; four channels are synthesized under the
  Stark-balancing constraint, all vanishing at the leg edges.

Round-trip schedules append a dark hold and a return leg: the three-level
scheme reuses the forward pulses unchanged, the five-level scheme reverses
the sweep direction of the ``vartheta`` angle.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import schemes
from .invariants import (
    ThreeLevelAux,
    TwoLevelAux,
    _cubic_rate,
    _scaled_angles,
    solve_aux_polynomials,
)
from .qcore import HamiltonianRule

__all__ = [
    "DEFAULT_BETA",
    "DEFAULT_EPSILON",
    "DeltaTwoMode",
    "Segment",
    "PulseSchedule",
    "design_protocol1",
    "design_protocol2",
    "design_chainwise",
    "build_roundtrip",
    "hamiltonian_rule",
    "effective_rule",
    "peak_amplitude",
    "peak_amplitudes",
]

DEFAULT_BETA = np.pi / 1.99
DEFAULT_EPSILON = 0.03
DEFAULT_CLAMP = 200.0 * np.pi
CSV_POINTS_PER_LEG = 2000
_PROBE_POINTS = 257   # finiteness probe of a schedule, chainwise gauge and floor
_PEAK_POINTS = 2001   # endpoint-inclusive peak samples per leg
# A peak band's reference row names the samples where every row can peak.
_PEAK_MARGIN = 1e-6   # relative: a candidate sample lies this close to the row's peak
_TAN_MARGIN = 1e-6    # least |tan chi| on a certifying chainwise reference row
_PEAK_FLOOR = 1e-70   # least certified profile peak: its fourth power stays a normal float

_CHANNELS = {"lambda3": ("omega",), "m5": ("omega1", "omega2", "omega3", "omega4")}


@dataclass(frozen=True)
class DeltaTwoMode:
    """Handling of the auxiliary two-photon detuning near its edge singularities."""

    mode: str
    limit: float = DEFAULT_CLAMP

    def __post_init__(self):
        if self.mode not in ("exact_clamped", "dropped"):
            raise ValueError(f"unknown delta_two mode {self.mode!r}")
        if self.mode == "exact_clamped" and not self.limit > 0:
            raise ValueError("clamp limit must be positive")

    @classmethod
    def dropped(cls) -> "DeltaTwoMode":
        return cls(mode="dropped")

    @classmethod
    def exact_clamped(cls, limit: float = DEFAULT_CLAMP) -> "DeltaTwoMode":
        return cls(mode="exact_clamped", limit=limit)


@dataclass(frozen=True)
class Segment:
    kind: str  # "forward" | "hold" | "backward"
    duration: float

    def __post_init__(self):
        if self.kind not in ("forward", "hold", "backward"):
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if not 0 <= self.duration < np.inf:
            raise ValueError("segment duration must be finite and non-negative")


def _zero_channel(t):
    return np.zeros(np.asarray(t, dtype=float).shape)


def _column(couplings, k: int):
    """Channel k of a stacked couplings function."""
    return lambda t: couplings(t)[..., k]


@dataclass(frozen=True)
class PulseSchedule:
    """A designed set of laboratory Rabi channels over a fixed duration.

    ``couplings`` maps an array of times to every channel, in rad/us, on a
    last axis in channel order: ``omega`` for the three-level scheme,
    ``omega1`` .. ``omega4`` for the five-level one.  ``channels`` is built
    from it, each name mapped to the function giving its column.
    ``delta_two`` is the auxiliary two-photon detuning (identically zero for
    the five-level scheme); ``segments`` lists the legs making up the
    schedule.  ``design`` records the generating parameters so derived
    schedules (round trips, effective models) can be rebuilt.

    Construction checks, in one ``couplings`` call on 257 probe times, that
    it gives one column per channel, all finite (a failure names the first
    channel that is not), and that ``delta_two`` is finite there too.
    """

    scheme: str
    couplings: Callable
    delta_single: float
    delta_two: Callable
    duration: float
    segments: tuple[Segment, ...]
    design: dict = field(default_factory=dict)
    channels: dict[str, Callable] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scheme not in _CHANNELS:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        names = _CHANNELS[self.scheme]
        total = sum(s.duration for s in self.segments)
        if abs(total - self.duration) > 1e-9 * max(1.0, self.duration):
            raise ValueError("segment durations do not add up to the schedule duration")
        probe = np.linspace(0.0, self.duration, _PROBE_POINTS)
        vals = np.asarray(self.couplings(probe), dtype=float)
        if vals.shape != probe.shape + (len(names),):
            raise ValueError(f"couplings must give one column per channel "
                             f"{names}, got shape {vals.shape}")
        finite = np.all(np.isfinite(vals), axis=0)
        if not np.all(finite):
            raise ValueError(f"channel {names[np.argmin(finite)]!r} is not finite everywhere")
        if not np.all(np.isfinite(np.asarray(self.delta_two(probe), dtype=float))):
            raise ValueError("delta_two is not finite everywhere")
        object.__setattr__(self, "channels", {
            name: _column(self.couplings, k) for k, name in enumerate(names)})

    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(self.channels)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Interior segment boundaries, where channels may be non-smooth."""
        edges = np.cumsum([s.duration for s in self.segments])[:-1]
        return tuple(float(e) for e in edges)

    def sample(self, points_per_leg: int = CSV_POINTS_PER_LEG):
        """Sample times plus channel and delta_two values, leg by leg."""
        if points_per_leg < 1:
            raise ValueError(f"points_per_leg must be at least 1, got {points_per_leg}")
        pieces = []
        start = 0.0
        for seg in self.segments:
            if seg.duration > 0:
                pieces.append(np.linspace(start, start + seg.duration, points_per_leg, endpoint=False))
            start += seg.duration
        pieces.append(np.array([self.duration]))
        times = np.concatenate(pieces)
        values = dict(zip(self.channel_names, np.asarray(self.couplings(times), dtype=float).T))
        return times, values, np.asarray(self.delta_two(times), dtype=float)

    def to_csv(self, path, points_per_leg: int = CSV_POINTS_PER_LEG) -> None:
        """Write the sampled schedule:  t_us, one column per channel, delta_two."""
        times, values, d2 = self.sample(points_per_leg)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_us", *self.channel_names, "delta_two"])
            for i, t in enumerate(times):
                writer.writerow(
                    [f"{t:.9g}"]
                    + [f"{values[name][i]:.12g}" for name in self.channel_names]
                    + [f"{d2[i]:.12g}"]
                )


def _leg(scheme, protocol, couplings, t_f, delta_single, delta_two=_zero_channel, **record):
    """One designed forward leg of duration t_f.

    Its design record holds ``protocol``, ``t_f`` and ``delta_single``,
    which ``peak_amplitude(s)`` and ``build_roundtrip`` read, then
    ``record``.
    """
    t_f, delta_single = float(t_f), float(delta_single)
    return PulseSchedule(
        scheme=scheme,
        couplings=couplings,
        delta_single=delta_single,
        delta_two=delta_two,
        duration=t_f,
        segments=(Segment("forward", t_f),),
        design={"protocol": protocol, "t_f": t_f, "delta_single": delta_single, **record},
    )


def design_protocol1(
    t_f: float,
    delta_single: float,
    beta: float = DEFAULT_BETA,
    mode: DeltaTwoMode | None = None,
    printed_delta_form: bool = False,
) -> PulseSchedule:
    """Constant-coupling schedule from a linear mixing-angle ramp.

    The laboratory coupling is sqrt(2 pi delta_single / (t_f sin beta)),
    independent of time.  The auxiliary two-photon detuning
    -(pi/t_f) cot(theta) cot(beta) diverges at the leg edges and is handled
    per ``mode`` (default: dropped, which barely changes the dynamics).
    ``printed_delta_form`` switches to dividing by cot(beta) instead of
    multiplying, for comparison runs only; it makes the detuning large.
    """
    if not 0 < t_f < np.inf:
        raise ValueError("t_f must be finite and positive")
    if not (np.isfinite(delta_single) and delta_single != 0):
        raise ValueError("delta_single must be finite and nonzero")
    if not (np.isfinite(beta) and abs(np.sin(beta)) >= 1e-12):
        raise ValueError("beta must be finite with sin(beta) nonzero")
    omega_bar = float(_p1_coupling(t_f, delta_single, beta))
    if np.isnan(omega_bar):
        raise ValueError(
            "delta_single * sin(beta) < 0 makes the squared coupling negative"
        )
    mode = mode or DeltaTwoMode.dropped()

    def couplings(t):
        return np.full(np.shape(t) + (1,), omega_bar)

    cot_beta = np.cos(beta) / np.sin(beta)
    if printed_delta_form:
        if cot_beta == 0:
            raise ValueError("printed delta form divides by cot(beta) = 0")
        factor = 1.0 / cot_beta
    else:
        factor = cot_beta

    # cos(pi/2) is ~6e-17 in floats; a cot(beta) at roundoff level means the
    # auxiliary detuning is identically zero physically.
    if mode.mode == "dropped" or (not printed_delta_form and abs(cot_beta) < 1e-12):
        delta_two = _zero_channel
    else:
        limit = mode.limit

        def delta_two(t):
            theta = np.pi * np.asarray(t, dtype=float) / t_f
            with np.errstate(divide="ignore", invalid="ignore"):
                raw = -(np.pi / t_f) * (np.cos(theta) / np.sin(theta)) * factor
            raw = np.nan_to_num(raw, nan=0.0, posinf=np.inf, neginf=-np.inf)
            return np.clip(raw, -limit, limit)

    return _leg("lambda3", "p1", couplings, t_f, delta_single, delta_two,
                beta=float(beta), mode=mode, printed_delta_form=printed_delta_form,
                aux=TwoLevelAux.linear_sweep(t_f, beta))


def _p1_coupling(t_f, delta_single, beta):
    """sqrt(2 pi delta_single / (t_f sin beta)), NaN where the square is negative.

    ``delta_single`` may be an array: the value at each entry is bitwise the
    coupling a p1 design at that detuning carries.
    """
    with np.errstate(invalid="ignore"):
        return np.sqrt(2.0 * delta_single * np.pi / (t_f * np.sin(beta)))


def _p2_rate(theta_dot):
    """The delta-free p2 profile: d(theta)/dt clipped at zero."""
    return np.clip(theta_dot, 0.0, None)


def _p2_coupling(delta_single, rate):
    """sqrt(2 delta_single rate); non-decreasing in ``rate`` for delta_single > 0."""
    return np.sqrt(2.0 * delta_single * rate)


def design_protocol2(t_f: float, delta_single: float) -> PulseSchedule:
    """Smooth-bump schedule from a cubic mixing-angle ramp with flat ends.

    The laboratory coupling sqrt(2 delta_single d(theta)/dt) vanishes at
    both leg edges and peaks at sqrt(3 pi delta_single / t_f); no auxiliary
    two-photon detuning is required.
    """
    if not 0 < t_f < np.inf:
        raise ValueError("t_f must be finite and positive")
    if not 0 < delta_single < np.inf:
        raise ValueError("delta_single must be finite and positive (negative makes the "
                         "squared coupling negative)")
    aux = TwoLevelAux.cubic_sweep(t_f)

    def couplings(t):
        return _p2_coupling(delta_single, _p2_rate(aux.theta_dot(t)))[..., None]

    return _leg("lambda3", "p2", couplings, t_f, delta_single, aux=aux)


def _chain_effective_couplings(aux: ThreeLevelAux):
    """The effective pair t -> (omega_e1, omega_e2) of the chain transport,
    from one ``aux.angles`` call."""

    def pair(t):
        return _effective_pair(*aux.angles(t))

    return pair


def _effective_pair(chi, chi_d, vt, vt_d):
    """(omega_e1, omega_e2) from the chain angles and their rates:

        omega_e1 = 2 (vartheta_dot cot(chi) sin(vartheta) + chi_dot cos(vartheta))
        omega_e2 = 2 (vartheta_dot cot(chi) cos(vartheta) - chi_dot sin(vartheta))
    """
    rate = vt_d / np.tan(chi)
    sv, cv = np.sin(vt), np.cos(vt)
    # In place where the inputs are arrays; each step is bitwise the
    # formula's (products and sums commute exactly).
    e1 = rate * sv
    e2 = rate
    e2 *= cv
    cv *= chi_d
    sv *= chi_d
    e1 += cv
    e2 -= sv
    e1 *= 2.0
    e2 *= 2.0
    return e1, e2


def _chain_floor(e1, e2):
    """1e-24 times the largest squared effective coupling over the last axis."""
    return 1e-24 * np.max(e1**2 + e2**2, axis=-1)


def _chain_amplitude(e1, e2, floor):
    """(e1^2 + e2^2)^(1/4), zero where the square is at or below ``floor``."""
    s = e1**2
    s += e2**2
    on = s > floor
    s **= 0.25
    return np.where(on, s, 0.0)


def _chain_channels(effective_pair, floor: float, root, gauge: float):
    """t -> (omega1, omega2, omega3, omega4) on a last axis, from one
    effective-pair evaluation.

    With the delta-free omega1 profile a = (omega_e1^2 + omega_e2^2)^(1/4)
    and root = sqrt(2 delta):

        omega1 = omega4 = root * a
        omega2 = gauge * root * omega_e1 / a,   omega3 = gauge * root * omega_e2 / a

    Squared couplings at or below ``floor`` are exact zeros of the design
    (the fourth root would amplify float dust into visible channel
    values): a is zero there, and so are omega2 and omega3.
    """
    scale = gauge * root

    def channels(t):
        e1, e2 = effective_pair(t)
        amp = _chain_amplitude(e1, e2, floor)
        on = amp > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            o2 = np.where(on, scale * e1 / amp, 0.0)
            o3 = np.where(on, scale * e2 / amp, 0.0)
        o1 = root * amp
        return np.stack([o1, o2, o3, o1], axis=-1)

    return channels


def _chain_root(delta_single):
    """sqrt(2 delta_single), the factor every chainwise channel carries."""
    return np.sqrt(2.0 * delta_single)


def design_chainwise(
    t_f: float,
    delta_single: float,
    epsilon: float = DEFAULT_EPSILON,
    direction: str = "creation",
) -> PulseSchedule:
    """Four-channel schedule driving the five-level chain end to end.

    ``epsilon`` is chi at both leg edges, the floor on the mixing angle
    that keeps the drive finite (see ``solve_aux_polynomials``).

    Solves the angle polynomials, forms the effective pair (omega_e1,
    omega_e2), and inverts the elimination:

        omega_2 = omega_e1 * (4 delta^2 / (omega_e1^2 + omega_e2^2))^(1/4)
        omega_3 = omega_e2 * (same prefactor)
        omega_1 = omega_4 = (4 delta^2 (omega_e1^2 + omega_e2^2))^(1/4)

    All channels vanish at both leg edges.  Where both effective couplings
    vanish at an interior point the channels are set to zero by continuity.
    The joint sign of (omega_2, omega_3), a pure gauge for populations, is
    canonicalized positive so that a detection leg mirrors a creation leg
    channel for channel.
    """
    if not 0 < delta_single < np.inf:
        raise ValueError("delta_single must be finite and positive")
    aux = solve_aux_polynomials(t_f, epsilon, direction)
    effective_pair = _chain_effective_couplings(aux)

    # Joint gauge sign: make the dominant lobe of omega_2 positive.
    probe = np.linspace(0.0, t_f, _PROBE_POINTS)
    e1, e2 = effective_pair(probe)
    gauge = 1.0 if float(np.trapezoid(e1, probe)) >= 0.0 else -1.0

    floor = float(_chain_floor(e1, e2))
    return _leg("m5", "chainwise",
                _chain_channels(effective_pair, floor, _chain_root(delta_single), gauge),
                t_f, delta_single, epsilon=float(epsilon), direction=direction, aux=aux,
                gauge=gauge, floor=floor)


def _piecewise(forward: Callable, backward: Callable, t_leg: float, hold: float) -> Callable:
    """Forward leg, zero through the hold, return leg; each design is
    evaluated only at the times of its own leg.  Stacked couplings keep
    their last axis."""

    def combined(t):
        t_arr = np.asarray(t, dtype=float)
        fwd = t_arr < t_leg
        bwd = t_arr >= t_leg + hold
        ahead = forward(np.clip(t_arr[fwd], 0.0, t_leg))
        back = backward(np.clip(t_arr[bwd] - t_leg - hold, 0.0, t_leg))
        out = np.zeros(t_arr.shape + np.shape(ahead)[1:])
        out[fwd] = ahead
        out[bwd] = back
        return out

    return combined


def build_roundtrip(leg: PulseSchedule, hold_duration: float) -> PulseSchedule:
    """Forward leg, dark hold, and a return leg in one schedule.

    Three-level schedules repeat the forward pulses unchanged (the
    invariant's second eigenstate carries the population back); five-level
    schedules rebuild the return leg with the sweep direction reversed.
    """
    if not 0 <= hold_duration < np.inf:
        raise ValueError("hold_duration must be finite and non-negative")
    if len(leg.segments) != 1 or leg.segments[0].kind != "forward":
        raise ValueError("round trips are built from a single forward leg")
    t_leg = leg.duration

    if leg.scheme == "m5":
        d = leg.design
        if d.get("protocol") != "chainwise":
            raise ValueError("five-level round trip needs a chainwise-designed leg")
        back = design_chainwise(
            d["t_f"],
            d["delta_single"],
            d["epsilon"],
            direction="detection" if d["direction"] == "creation" else "creation",
        )
    else:
        back = leg

    return PulseSchedule(
        scheme=leg.scheme,
        couplings=_piecewise(leg.couplings, back.couplings, t_leg, hold_duration),
        delta_single=leg.delta_single,
        delta_two=_piecewise(leg.delta_two, back.delta_two, t_leg, hold_duration),
        duration=2.0 * t_leg + hold_duration,
        segments=(
            Segment("forward", t_leg),
            Segment("hold", hold_duration),
            Segment("backward", t_leg),
        ),
        design={
            "protocol": "roundtrip",
            "hold": float(hold_duration),
            "forward": leg.design,
            "backward": back.design,
        },
    )


def _m_params(schedule: PulseSchedule) -> schemes.MParams:
    return schemes.MParams(schedule.couplings, schedule.delta_single, schedule.duration)


def hamiltonian_rule(schedule: PulseSchedule) -> HamiltonianRule:
    """Full-model Hamiltonian of a schedule (3x3 or 5x5)."""
    if schedule.scheme == "lambda3":
        params = schemes.LambdaParams(
            omega1=schedule.channels["omega"],
            omega2=schedule.channels["omega"],
            delta_single=schedule.delta_single,
            delta_two=schedule.delta_two,
            duration=schedule.duration,
        )
        return schemes.build_lambda(params)
    return schemes.build_m(_m_params(schedule))


def effective_rule(schedule: PulseSchedule) -> HamiltonianRule:
    """Eliminated-frame Hamiltonian of a schedule (2x2 or 3x3).

    The reduction of a designed schedule is known in closed form, so this
    skips the generic regime diagnostics (a clamped two-photon spike at the
    leg edge would trip them spuriously).  For a designed chainwise leg the
    angle trajectories fix the sign of the effective pair; a five-level
    schedule without design metadata falls back to the generic reduction.
    """
    if schedule.scheme == "lambda3":
        return schemes._eliminate_bridge(
            schedule.channels["omega"], schedule.delta_two, schedule.delta_single
        ).hamiltonian()
    aux = schedule.design.get("aux")
    if aux is not None:
        effective_pair = _chain_effective_couplings(aux)
        return schemes.EffThreeLevel(lambda t: np.stack(effective_pair(t), axis=-1)).hamiltonian()
    return schemes.reduce_m(_m_params(schedule)).hamiltonian()


def peak_amplitude(schedule: PulseSchedule) -> float:
    """Largest |first channel| over 2001 endpoint-inclusive samples per leg.

    The first channel is ``omega`` or ``omega1``; the odd sample count puts
    each leg's midpoint on the grid, where the smooth designs peak.  A leg
    with a p1, p2 or chainwise design record is the one cell of
    :func:`peak_amplitudes` at its own t_f and detuning: the delta-free
    profile is sampled once (p1's is a constant) and its peak mapped
    through the detuning, bitwise the sampled channel's peak, and the
    couplings are never evaluated.  Any other schedule samples its first
    channel, a column of the stacked couplings; that path is the
    independent check of the record path.
    """
    d = schedule.design
    if d.get("protocol") in ("p1", "p2", "chainwise"):
        return float(peak_amplitudes(schedule, [d["t_f"]], [d["delta_single"]])[0, 0])
    channel = schedule.channels[schedule.channel_names[0]]
    best = 0.0
    start = 0.0
    for seg in schedule.segments:
        if seg.duration > 0:
            t = np.linspace(start, start + seg.duration, _PEAK_POINTS)
            best = max(best, float(np.max(np.abs(channel(t)))))
        start += seg.duration
    return best


def _rows_linspace(stops, num: int, columns=None) -> np.ndarray:
    """Row i is ``np.linspace(0.0, stops[i], num)``, bitwise, C-contiguous;
    with ``columns``, only its entries at those sample indices.

    numpy builds the rows along axis 0; the copy lays each row out
    contiguously, so that elementwise work against a column of durations
    runs in long inner loops.  The selected entries repeat linspace's own
    arithmetic, index * (stop / (num - 1)) with the last sample the stop
    itself.  That is linspace's result wherever the step is nonzero; a
    step that underflows to zero gives zeros here.
    """
    if columns is None:
        return np.ascontiguousarray(np.linspace(0.0, stops, num, axis=1))
    stops = stops[:, None]
    return np.where(columns == num - 1, stops, columns * (stops / (num - 1)))


def peak_amplitudes(leg: PulseSchedule, tf_values, deltas) -> np.ndarray:
    """``peak_amplitude`` of a designed leg redone at every (t_f, delta) cell.

    Entry (i, j) is bitwise ``peak_amplitude`` of the same designer at
    ``tf_values[i]`` and ``deltas[j]``; the leg fixes every other design
    parameter (beta, epsilon, direction), and both axes must be positive.

    Every designer's first channel is a delta-free profile with the
    detuning applied as a positive scalar through a non-decreasing map (the
    p1 coupling, sqrt(2 delta rate), sqrt(2 delta) * amplitude).  Such a map
    commutes with the maximum in floating point, so one sampling of a row's
    profile on the ``peak_amplitude`` grid serves every detuning.  The
    profiles depend on t_f only through s = t / t_f and factors of 1/t_f
    (the chainwise angle coefficients in s come from epsilon and direction
    alone), so rows are sampled with t_f as a column, each row's times,
    257-point floor probe and values bitwise those of its own design.

    A reference row plus candidates: the first row is sampled at all
    ``_PEAK_POINTS`` times.  Every other row's profile is that one, scaled,
    to about 1e-15 relative, so the other rows are sampled only at the
    candidate indices where the reference lies within ``_PEAK_MARGIN`` of
    its peak.  The reference certifies this when its samples are finite,
    its peak is finite and at least ``_PEAK_FLOOR`` (so the squares behind
    it are normal floats) and, for chainwise, |tan chi| stays at or above
    ``_TAN_MARGIN`` (no other row can divide by a zero tangent off the
    candidates); every other row's candidate peak must also be finite and
    at least ``_PEAK_FLOOR``.  Otherwise every row is sampled at all times
    in one batch, so a row with a non-finite sampled profile has NaN cells.
    """
    d = leg.design
    tf_values = np.asarray(tf_values, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    column = tf_values[:, None]
    protocol = d.get("protocol")
    if protocol == "p1":
        return _p1_coupling(column, deltas, d["beta"])
    if protocol == "p2":

        def sample(rows, columns=None):
            """(peaks, profile, chi) of ``rows`` at ``columns``; p2 has no chi."""
            times = _rows_linspace(tf_values[rows], _PEAK_POINTS, columns)
            rate = np.abs(_p2_rate(_cubic_rate(times, column[rows])))
            # max propagates a non-finite rate into the row's peak.
            return np.max(rate, axis=1), rate, None

    elif protocol == "chainwise":
        aux = d["aux"]
        probe = _rows_linspace(tf_values, _PROBE_POINTS)
        floor = _chain_floor(*_effective_pair(
            *_scaled_angles(probe, column, aux.scaled_a, aux.scaled_b)))

        def sample(rows, columns=None):
            """(peaks, profile, chi) of ``rows`` at ``columns``."""
            times = _rows_linspace(tf_values[rows], _PEAK_POINTS, columns)
            chi, chi_d, vt, vt_d = _scaled_angles(times, column[rows],
                                                  aux.scaled_a, aux.scaled_b)
            e1, e2 = _effective_pair(chi, chi_d, vt, vt_d)
            amp = _chain_amplitude(e1, e2, floor[rows, None])
            # The amplitude zeroes a NaN square, so the samples are checked
            # here.  It is never negative, so its maximum is that of
            # |omega1| / root.
            finite = np.isfinite(floor[rows]) & np.all(np.isfinite(e1) & np.isfinite(e2), axis=1)
            return np.where(finite, np.max(amp, axis=1), np.nan), amp, chi

    else:
        raise ValueError(f"peak maps need a designed p1, p2 or chainwise leg, got {protocol!r}")

    def certified(peaks):
        return bool(np.all(np.isfinite(peaks) & (peaks >= _PEAK_FLOOR)))

    peak, profile, chi = sample(slice(0, 1))
    ok = certified(peak) and (chi is None or bool(np.all(np.abs(np.tan(chi)) >= _TAN_MARGIN)))
    if ok:
        candidates = np.flatnonzero(profile[0] >= (1.0 - _PEAK_MARGIN) * peak[0])
        rest = sample(slice(1, None), candidates)[0]
        peaks = np.concatenate([peak, rest])
        ok = certified(rest)
    if not ok:
        peaks = sample(slice(None))[0]
    if protocol == "p2":
        return _p2_coupling(deltas, peaks[:, None])
    return _chain_root(deltas) * peaks[:, None]
