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
from .invariants import ThreeLevelAux, TwoLevelAux, solve_aux_polynomials
from .qcore import HamiltonianRule

__all__ = [
    "DEFAULT_BETA",
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
]

DEFAULT_BETA = np.pi / 1.99
DEFAULT_CLAMP = 200.0 * np.pi
CSV_POINTS_PER_LEG = 2000

_LAMBDA_CHANNELS = ("omega",)
_M_CHANNELS = ("omega1", "omega2", "omega3", "omega4")


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


@dataclass(frozen=True)
class PulseSchedule:
    """A designed set of laboratory Rabi channels over a fixed duration.

    ``channels`` maps channel names to functions of an array of times, in
    rad/us; ``delta_two`` is the auxiliary two-photon detuning (identically
    zero for the five-level scheme); ``segments`` lists the legs making up
    the schedule.  ``design`` records the generating parameters so derived
    schedules (round trips, effective models) can be rebuilt.
    """

    scheme: str
    channels: dict[str, Callable]
    delta_single: float
    delta_two: Callable
    duration: float
    segments: tuple[Segment, ...]
    design: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scheme not in ("lambda3", "m5"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        expected = _LAMBDA_CHANNELS if self.scheme == "lambda3" else _M_CHANNELS
        if tuple(self.channels) != expected:
            raise ValueError(f"{self.scheme} schedule needs channels {expected}")
        total = sum(s.duration for s in self.segments)
        if abs(total - self.duration) > 1e-9 * max(1.0, self.duration):
            raise ValueError("segment durations do not add up to the schedule duration")
        probe = np.linspace(0.0, self.duration, 257)
        for name, chan in self.channels.items():
            vals = np.asarray(chan(probe), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"channel {name!r} is not finite everywhere")
        if not np.all(np.isfinite(np.asarray(self.delta_two(probe), dtype=float))):
            raise ValueError("delta_two is not finite everywhere")

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
        values = {name: np.asarray(chan(times), dtype=float) for name, chan in self.channels.items()}
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
    sb, cb = np.sin(beta), np.cos(beta)
    radicand = 2.0 * delta_single * np.pi / (t_f * sb)
    if radicand < 0:
        raise ValueError(
            "delta_single * sin(beta) < 0 makes the squared coupling negative"
        )
    mode = mode or DeltaTwoMode.dropped()
    omega_bar = float(np.sqrt(radicand))

    def omega(t):
        return np.full(np.asarray(t, dtype=float).shape, omega_bar)

    cot_beta = cb / sb
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

    aux = TwoLevelAux.linear_sweep(t_f, beta)
    return PulseSchedule(
        scheme="lambda3",
        channels={"omega": omega},
        delta_single=float(delta_single),
        delta_two=delta_two,
        duration=float(t_f),
        segments=(Segment("forward", float(t_f)),),
        design={
            "protocol": "p1",
            "t_f": float(t_f),
            "delta_single": float(delta_single),
            "beta": float(beta),
            "mode": mode,
            "printed_delta_form": printed_delta_form,
            "aux": aux,
        },
    )


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

    def omega(t):
        theta_dot = np.clip(aux.theta_dot(t), 0.0, None)
        return np.sqrt(2.0 * delta_single * theta_dot)

    return PulseSchedule(
        scheme="lambda3",
        channels={"omega": omega},
        delta_single=float(delta_single),
        delta_two=_zero_channel,
        duration=float(t_f),
        segments=(Segment("forward", float(t_f)),),
        design={
            "protocol": "p2",
            "t_f": float(t_f),
            "delta_single": float(delta_single),
            "aux": aux,
        },
    )


def _chain_effective_couplings(aux: ThreeLevelAux):
    """Effective-drive closures for the chain invariant transport."""

    def omega_e1(t):
        t_arr = np.asarray(t, dtype=float)
        chi = aux.chi(t_arr)
        vt = aux.vartheta(t_arr)
        return 2.0 * (aux.vartheta_deriv(t_arr) / np.tan(chi) * np.sin(vt)
                      + aux.chi_deriv(t_arr) * np.cos(vt))

    def omega_e2(t):
        t_arr = np.asarray(t, dtype=float)
        chi = aux.chi(t_arr)
        vt = aux.vartheta(t_arr)
        return 2.0 * (aux.vartheta_deriv(t_arr) / np.tan(chi) * np.cos(vt)
                      - aux.chi_deriv(t_arr) * np.sin(vt))

    return omega_e1, omega_e2


def design_chainwise(
    t_f: float,
    delta_single: float,
    epsilon: float,
    direction: str = "creation",
) -> PulseSchedule:
    """Four-channel schedule driving the five-level chain end to end.

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
    omega_e1, omega_e2 = _chain_effective_couplings(aux)

    # Joint gauge sign: make the dominant lobe of omega_2 positive.
    probe = np.linspace(0.0, t_f, 257)
    gauge = 1.0 if float(np.trapezoid(omega_e1(probe), probe)) >= 0.0 else -1.0

    root = np.sqrt(2.0 * delta_single)
    # Squared couplings at roundoff level are exact zeros of the design (the
    # fourth root would amplify float dust into visible channel values).
    floor = 1e-24 * float(np.max(omega_e1(probe) ** 2 + omega_e2(probe) ** 2))

    def _parts(t):
        e1 = omega_e1(t)
        e2 = omega_e2(t)
        s = e1**2 + e2**2
        return e1, e2, s

    def omega1(t):
        _, _, s = _parts(t)
        return np.where(s > floor, root * s**0.25, 0.0)

    def omega2(t):
        e1, _, s = _parts(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = gauge * root * e1 / s**0.25
        return np.where(s > floor, val, 0.0)

    def omega3(t):
        _, e2, s = _parts(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = gauge * root * e2 / s**0.25
        return np.where(s > floor, val, 0.0)

    return PulseSchedule(
        scheme="m5",
        channels={"omega1": omega1, "omega2": omega2, "omega3": omega3, "omega4": omega1},
        delta_single=float(delta_single),
        delta_two=_zero_channel,
        duration=float(t_f),
        segments=(Segment("forward", float(t_f)),),
        design={
            "protocol": "chainwise",
            "t_f": float(t_f),
            "delta_single": float(delta_single),
            "epsilon": float(epsilon),
            "direction": direction,
            "aux": aux,
            "gauge": gauge,
        },
    )


def _piecewise(forward: Callable, backward: Callable, t_leg: float, hold: float) -> Callable:
    def combined(t):
        t_arr = np.asarray(t, dtype=float)
        fwd = forward(np.clip(t_arr, 0.0, t_leg))
        bwd = backward(np.clip(t_arr - t_leg - hold, 0.0, t_leg))
        out = np.where(t_arr < t_leg, fwd, 0.0)
        return np.where(t_arr >= t_leg + hold, bwd, out)

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

    channels = {
        name: _piecewise(leg.channels[name], back.channels[name], t_leg, hold_duration)
        for name in leg.channel_names
    }
    delta_two = _piecewise(leg.delta_two, back.delta_two, t_leg, hold_duration)
    return PulseSchedule(
        scheme=leg.scheme,
        channels=channels,
        delta_single=leg.delta_single,
        delta_two=delta_two,
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
    return schemes.MParams(
        omega1=schedule.channels["omega1"],
        omega2=schedule.channels["omega2"],
        omega3=schedule.channels["omega3"],
        omega4=schedule.channels["omega4"],
        delta_single=schedule.delta_single,
        duration=schedule.duration,
    )


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
        omega_e1, omega_e2 = _chain_effective_couplings(aux)
        return schemes.EffThreeLevel(omega_e1=omega_e1, omega_e2=omega_e2).hamiltonian()
    return schemes.reduce_m(_m_params(schedule)).hamiltonian()


def peak_amplitude(schedule: PulseSchedule) -> float:
    """Largest |first channel| over 2001 endpoint-inclusive samples per leg.

    The first channel is ``omega`` or ``omega1``; the odd sample count puts
    each leg's midpoint on the grid, where the smooth designs peak.
    """
    chan = schedule.channels[schedule.channel_names[0]]
    best = 0.0
    start = 0.0
    for seg in schedule.segments:
        if seg.duration > 0:
            t = np.linspace(start, start + seg.duration, 2001)
            best = max(best, float(np.max(np.abs(chan(t)))))
        start += seg.duration
    return best
