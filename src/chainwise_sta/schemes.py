"""Level-scheme Hamiltonians and their large-detuning reductions.

Two chainwise-coupled schemes are covered:

* a three-level ladder (Feshbach level, excited bridge, deep level) driven by
  a pump/Stokes pair sharing a single-photon detuning ``delta_single`` and a
  two-photon detuning ``delta_two``;
* a five-level chain with two excited bridges, both sitting at the common
  detuning ``delta_single``.

When the single-photon detuning dominates every coupling, the excited levels
can be eliminated adiabatically.  The three-level ladder reduces to an
effective two-level system with coupling ``-Omega^2 / (2 delta)``; the
five-level chain reduces, once the Stark-balancing constraint
``Omega_1 = Omega_4 = sqrt(Omega_2^2 + Omega_3^2)`` holds, to a resonant
effective three-level chain.  The reductions carry regime diagnostics: a
warning below a detuning-to-coupling ratio of 10, and a hard error when the
balancing constraint is broken.

Channels may be passed as plain floats (constant drive) or as callables of
time that accept numpy arrays.  A chain comes in one form: its couplings are
one callable giving them all on a last axis, which :func:`stack_channels`
builds from channels, and its diagonal is one row of all its entries, a
constant array or one such callable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .qcore import HamiltonianRule, TimeGrid

__all__ = [
    "Channel",
    "RegimeWarning",
    "StarkBalanceError",
    "LambdaParams",
    "MParams",
    "EffTwoLevel",
    "EffThreeLevel",
    "as_channel",
    "stack_channels",
    "build_lambda",
    "reduce_lambda",
    "build_m",
    "reduce_m",
    "adiabaticity_margin",
]

Channel = Union[float, Callable[[np.ndarray], np.ndarray]]

REGIME_RATIO = 10.0
_N_PROBE = 241


class RegimeWarning(UserWarning):
    """Adiabatic-elimination regime guard: detuning not clearly dominant."""


class StarkBalanceError(ValueError):
    """The four-channel balancing constraint is violated."""


def as_channel(value: Channel) -> Callable[[np.ndarray], np.ndarray]:
    """Normalize a float or callable into an array-valued function of time.

    A constant gives a read-only broadcast view of one stored value in the
    shape of t, so no call fills an array with it.
    """
    if callable(value):
        func = value

        def channel(t):
            t_arr = np.asarray(t, dtype=float)
            return np.broadcast_to(np.asarray(func(t_arr), dtype=float), t_arr.shape)

        return channel
    const = np.array(float(value))
    return lambda t: np.broadcast_to(const, np.shape(t))


def stack_channels(channels: tuple[Channel, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """t -> the channels (floats or callables) on a last axis, in order.

    A float fills its column as a scalar and a callable's values are
    written into its column, so neither makes a per-call array of its own
    shape; a callable given twice as the same object (pump = Stokes in the
    ladder, omega4 = omega1 in a chain) is evaluated once per call.
    """
    funcs = {id(c): c for c in channels if callable(c)}
    consts = {k: float(c) for k, c in enumerate(channels) if not callable(c)}

    def stacked(t):
        t_arr = np.asarray(t, dtype=float)
        vals = {key: f(t_arr) for key, f in funcs.items()}
        out = np.empty(t_arr.shape + (len(channels),))
        for k, c in enumerate(channels):
            out[..., k] = consts[k] if k in consts else vals[id(c)]
        return out

    return stacked


def _chain_rule(n: int, diagonal, couplings: Callable[[np.ndarray], np.ndarray]) -> HamiltonianRule:
    """Tridiagonal n-level chain from one diagonal row and one couplings row.

    H[k,k] is entry k of the diagonal row and H[k,k+1] = H[k+1,k] =
    couplings(t)[..., k] / 2.  Every chain Hamiltonian of this module, full
    or eliminated, is built here, and both rows come in one form:
    ``diagonal`` holds all n entries, as a constant array or as a function
    of t giving them on a last axis, and ``couplings`` maps t to all n - 1
    couplings on a last axis (see :func:`stack_channels`).  Each row is
    evaluated once per call and assigned in one step, so entries sharing a
    computation make it once.
    """
    levels = np.arange(n)
    row = diagonal if callable(diagonal) else np.asarray(diagonal, dtype=float)

    def evaluate(t):
        t_arr = np.asarray(t, dtype=float)
        out = np.zeros(t_arr.shape + (n, n), dtype=complex)
        out[..., levels, levels] = row(t_arr) if callable(row) else row
        val = 0.5 * couplings(t_arr)
        out[..., levels[:-1], levels[1:]] = val
        out[..., levels[1:], levels[:-1]] = val
        return out

    return HamiltonianRule(n, evaluate)


@dataclass(frozen=True)
class LambdaParams:
    """Drive parameters of the three-level ladder.

    ``duration`` is the window over which :func:`reduce_lambda` checks the
    drive; it is required when any channel is a function of time, and
    constant channels need none.
    """

    omega1: Channel
    omega2: Channel
    delta_single: float
    delta_two: Channel = 0.0
    duration: float | None = None


@dataclass(frozen=True)
class MParams:
    """Drive parameters of the five-level chain.

    ``couplings`` maps times to the four Rabi channels (omega1, omega2,
    omega3, omega4) on a last axis; :func:`stack_channels` builds it from
    floats or callables.  :func:`build_m` and :func:`reduce_m` both read it;
    :func:`reduce_m` checks the couplings over [0, ``duration``], so it
    needs the duration.
    """

    couplings: Callable[[np.ndarray], np.ndarray]
    delta_single: float
    duration: float | None = None


@dataclass(frozen=True)
class EffTwoLevel:
    """Effective two-level drive after eliminating the excited bridge."""

    omega_e: Callable[[np.ndarray], np.ndarray]
    delta_e: Callable[[np.ndarray], np.ndarray]

    def hamiltonian(self) -> HamiltonianRule:
        """Symmetric form: diag(+delta_e/2, -delta_e/2) with omega_e/2 coupling.

        The diagonal row is one delta_e evaluation per call, split in two.
        """
        return _chain_rule(2, lambda t: np.multiply.outer(self.delta_e(t), (0.5, -0.5)),
                           stack_channels((self.omega_e,)))


@dataclass(frozen=True)
class EffThreeLevel:
    """Effective resonant three-level chain after eliminating both bridges.

    ``couplings`` maps times to (omega_e1, omega_e2) on a last axis, so H(t)
    evaluates what the two couplings share once per call.
    """

    couplings: Callable[[np.ndarray], np.ndarray]

    def hamiltonian(self) -> HamiltonianRule:
        return _chain_rule(3, np.zeros(3), self.couplings)


def _probe_times(duration: float | None, channels) -> np.ndarray:
    """The times at which a reduction checks its drive, across [0, duration].

    A drive with a channel that is a function of time needs its duration;
    a constant drive is the same at every time, so it needs none.  A given
    duration must be finite and non-negative: a NaN one would make every
    probe NaN, and every check against a bound would pass.
    """
    if duration is None:
        if any(callable(c) for c in channels):
            raise ValueError("a drive that varies in time needs a duration to check it over")
        duration = 0.0
    elif not 0 <= duration < np.inf:
        raise ValueError(f"duration must be finite and non-negative, got {duration!r}")
    return np.linspace(0.0, duration, _N_PROBE)


def build_lambda(p: LambdaParams) -> HamiltonianRule:
    """Three-level ladder Hamiltonian.

    Couplings omega1/2 and omega2/2 sit on the chain; the diagonal row is
    (0, delta_single, delta_two(t)), so delta_two is evaluated once per call.
    """
    return _chain_rule(3, stack_channels((0.0, p.delta_single, p.delta_two)),
                       stack_channels((p.omega1, p.omega2)))


def build_m(p: MParams) -> HamiltonianRule:
    """Five-level chain Hamiltonian with diagonal (0, delta, 0, delta, 0)."""
    delta = p.delta_single
    return _chain_rule(5, (0.0, delta, 0.0, delta, 0.0), p.couplings)


def _warn_regime(delta: float, coupling_scale: float, context: str) -> None:
    if coupling_scale > 0 and abs(delta) < REGIME_RATIO * coupling_scale:
        warnings.warn(
            f"{context}: |delta| = {abs(delta):.4g} is below {REGIME_RATIO:g} x "
            f"the coupling scale {coupling_scale:.4g}; the eliminated model "
            "may be inaccurate",
            RegimeWarning,
            stacklevel=3,
        )


def reduce_lambda(p: LambdaParams) -> EffTwoLevel:
    """Eliminate the excited bridge of the three-level ladder.

    Requires equal pump and Stokes channels.  Returns the effective drive
    omega_e(t) = -omega(t)^2 / (2 delta), delta_e(t) = -delta_two(t).
    """
    delta = float(p.delta_single)
    if delta == 0.0:
        raise ValueError("reduction undefined for delta_single = 0")
    om1 = as_channel(p.omega1)
    om2 = as_channel(p.omega2)
    dl2 = as_channel(p.delta_two)
    probes = _probe_times(p.duration, (p.omega1, p.omega2, p.delta_two))
    o1 = om1(probes)
    o2 = om2(probes)
    mismatch = float(np.max(np.abs(o1 - o2)))
    scale = max(float(np.max(np.abs(o1))), 1e-300)
    if mismatch > 1e-9 * scale:
        raise ValueError(
            f"reduction requires omega1 = omega2; max channel mismatch {mismatch:.3e}"
        )
    _warn_regime(delta, max(float(np.max(np.abs(o1))), float(np.max(np.abs(dl2(probes))))),
                 "three-level reduction")
    return _eliminate_bridge(om1, dl2, delta)


def _eliminate_bridge(omega: Callable, delta_two: Callable, delta: float) -> EffTwoLevel:
    """omega_e = -omega^2 / (2 delta), delta_e = -delta_two, without regime checks."""

    def omega_e(t):
        return -omega(np.asarray(t, dtype=float)) ** 2 / (2.0 * delta)

    def delta_e(t):
        return -delta_two(np.asarray(t, dtype=float))

    return EffTwoLevel(omega_e=omega_e, delta_e=delta_e)


def reduce_m(p: MParams) -> EffThreeLevel:
    """Eliminate both excited bridges of the five-level chain.

    Valid only under the Stark-balancing constraint
    omega1 = omega4 = sqrt(omega2^2 + omega3^2), which equalizes the
    light-shift diagonal so the reduced three-level chain is resonant.  The
    effective couplings are

        omega_e1 = -omega2 * sqrt(omega2^2 + omega3^2) / (2 delta)
        omega_e2 = -omega3 * sqrt(omega2^2 + omega3^2) / (2 delta)

    Raises StarkBalanceError naming the largest pointwise violation when the
    constraint fails beyond 1e-6 relative.
    """
    delta = float(p.delta_single)
    if delta == 0.0:
        raise ValueError("reduction undefined for delta_single = 0")
    probes = _probe_times(p.duration, (p.couplings,))
    vals = np.asarray(p.couplings(probes), dtype=float)
    o1, o2, o3, o4 = vals.T
    root = np.sqrt(o2**2 + o3**2)
    amp = max(float(np.max(root)), 1e-300)
    denom = np.maximum(root, 1e-9 * amp)
    viol = np.maximum(np.abs(o1 - root), np.abs(o4 - root)) / denom
    worst = int(np.argmax(viol))
    if viol[worst] > 1e-6:
        raise StarkBalanceError(
            f"balancing constraint omega1 = omega4 = sqrt(omega2^2 + omega3^2) "
            f"violated: relative defect {viol[worst]:.3e} at t = {probes[worst]:.6g} us"
        )
    _warn_regime(delta, float(np.max(np.abs(vals))), "five-level reduction")

    def couplings(t):
        chain = np.asarray(p.couplings(np.asarray(t, dtype=float)), dtype=float)
        o2, o3 = chain[..., 1], chain[..., 2]
        root = np.sqrt(o2**2 + o3**2)
        return np.stack([-o2 * root / (2.0 * delta), -o3 * root / (2.0 * delta)], axis=-1)

    return EffThreeLevel(couplings)


def adiabaticity_margin(e: EffTwoLevel, grid: TimeGrid) -> float:
    """Peak ratio of mixing-angle rotation rate to eigenfrequency splitting.

    Returns max over the grid of

        |d(omega_e)/dt * delta_e - d(delta_e)/dt * omega_e|
        -----------------------------------------------------
              2 (omega_e^2 + delta_e^2)^(3/2)

    with derivatives by central differences on the grid.  Values much below
    one indicate the drive could be followed adiabatically.  Raises when the
    splitting vanishes at any sample (criterion undefined there).
    """
    times = grid.times
    om = np.asarray(e.omega_e(times), dtype=float)
    dl = np.asarray(e.delta_e(times), dtype=float)
    om = np.broadcast_to(om, times.shape)
    dl = np.broadcast_to(dl, times.shape)
    denom = om**2 + dl**2
    if np.any(denom == 0.0):
        raise ValueError("omega_e^2 + delta_e^2 vanishes on the grid; margin undefined")
    om_dot = np.gradient(om, times)
    dl_dot = np.gradient(dl, times)
    ratio = 0.5 * np.abs(om_dot * dl - dl_dot * om) / denom**1.5
    return float(np.max(ratio))
