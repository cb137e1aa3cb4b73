"""Dynamical invariants for inverse-engineered population transfer.

A Hermitian operator I(t) satisfying dI/dt = dI/dt|_partial - i [I, H] = 0
has eigenstates whose populations are exactly conserved, so driving a system
along one such eigenstate realizes the adiabatic end state without slow
evolution.  Two parameterizations are provided:

* two-level: mixing angle ``theta`` and phase ``beta``; the eigenstate pair
  interpolates between the bare levels as theta sweeps 0 to pi;
* three-level: angles ``chi`` and ``vartheta`` whose null eigenstate carries
  population across the chain as vartheta sweeps between 0 and pi/2, with a
  small floor ``epsilon`` on chi keeping the inverse-engineered drive finite.

Both invariants have scale 1 (eigenvalues +-1/2, and 0 for the chain); the
scale is arbitrary and never enters any designed pulse or population.  The
two-level angle rates are required analytic functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qcore import HamiltonianRule, StateVector, TimeGrid

__all__ = [
    "TwoLevelAux",
    "ThreeLevelAux",
    "invariant2",
    "eigenstates2",
    "invariant3",
    "eigenstates3",
    "invariant2_rule",
    "invariant3_rule",
    "solve_aux_polynomials",
    "invariant_residual",
    "lr_phase",
]

EPSILON_MIN = 1e-3


@dataclass(frozen=True)
class TwoLevelAux:
    """Auxiliary angle trajectories (theta, beta) for the two-level invariant.

    Each field maps an array of times to an array of angles (rad) or rates
    (rad/us).  The rates ``theta_dot`` and ``beta_dot`` are required in
    analytic form, because cot(theta) in the designed drives amplifies any
    error in them near the leg edges.
    """

    theta: Callable[[np.ndarray], np.ndarray]
    beta: Callable[[np.ndarray], np.ndarray]
    theta_dot: Callable[[np.ndarray], np.ndarray]
    beta_dot: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def linear_sweep(cls, t_f: float, beta: float) -> "TwoLevelAux":
        """theta ramps 0 -> pi linearly over t_f at constant beta."""
        if not 0 < t_f < np.inf:
            raise ValueError("t_f must be finite and positive")
        if not (np.isfinite(beta) and abs(np.sin(beta)) >= 1e-12):
            raise ValueError("beta must be finite with sin(beta) nonzero")
        rate = np.pi / t_f

        return cls(
            theta=lambda t: rate * np.asarray(t, dtype=float),
            beta=lambda t: np.full(np.asarray(t, dtype=float).shape, float(beta)),
            theta_dot=lambda t: np.full(np.asarray(t, dtype=float).shape, rate),
            beta_dot=lambda t: np.zeros(np.asarray(t, dtype=float).shape),
        )

    @classmethod
    def cubic_sweep(cls, t_f: float) -> "TwoLevelAux":
        """theta = 3 pi (t/t_f)^2 - 2 pi (t/t_f)^3, flat at both ends; beta = pi/2."""
        if not 0 < t_f < np.inf:
            raise ValueError("t_f must be finite and positive")

        def theta(t):
            s = np.asarray(t, dtype=float) / t_f
            return np.pi * s * s * (3.0 - 2.0 * s)

        half_pi = np.pi / 2

        return cls(
            theta=theta,
            beta=lambda t: np.full(np.asarray(t, dtype=float).shape, half_pi),
            theta_dot=lambda t: _cubic_rate(np.asarray(t, dtype=float), t_f),
            beta_dot=lambda t: np.zeros(np.asarray(t, dtype=float).shape),
        )


@dataclass(frozen=True)
class ThreeLevelAux:
    """Polynomial angle trajectories (chi, vartheta) for the chain invariant.

    chi is the unique quartic meeting chi(0) = chi(t_f) = epsilon,
    chi(t_f/2) = pi/4 and flat endpoints; vartheta is the unique cubic
    sweeping 0 -> pi/2 (creation) or pi/2 -> 0 (detection) with flat
    endpoints.  Coefficients ``scaled_a`` / ``scaled_b`` live in the scaled
    time s = t / t_f, where the endpoint derivatives cancel exactly in
    floating point (the inverse-engineered channels take a fourth root of
    the squared derivatives, so exact zeros matter); ``poly_a`` / ``poly_b``
    expose the same polynomials in plain time.

    ``angles(t)`` returns (chi, chi_dot, vartheta, vartheta_dot) from one
    scaled time; the derivative coefficients are formed from the current
    ``scaled_a`` / ``scaled_b`` on each call, and every value is bitwise
    equal to numpy's ``polyval``/``polyder``.  ``chi``, ``chi_deriv``,
    ``vartheta`` and ``vartheta_deriv`` pick one entry of it.  Callers that
    need several angles at the same times make one ``angles`` call.
    """

    t_f: float
    epsilon: float
    direction: str
    scaled_a: np.ndarray  # chi coefficients in s = t / t_f, degree 4
    scaled_b: np.ndarray  # vartheta coefficients in s, degree 3

    def __post_init__(self):
        object.__setattr__(self, "scaled_a", np.asarray(self.scaled_a, dtype=float))
        object.__setattr__(self, "scaled_b", np.asarray(self.scaled_b, dtype=float))
        if self.scaled_a.size != 5 or self.scaled_b.size != 4:
            raise ValueError("need 5 chi coefficients and 4 vartheta coefficients")
        if self.direction not in ("creation", "detection"):
            raise ValueError(f"unknown direction {self.direction!r}")
        tf, eps = self.t_f, self.epsilon
        start, end = (0.0, np.pi / 2) if self.direction == "creation" else (np.pi / 2, 0.0)
        chi, chi_d, vt, vt_d = self.angles(np.array([0.0, tf, tf / 2]))
        checks = (
            chi - (eps, eps, np.pi / 4),
            chi_d[:2],
            vt[:2] - (start, end),
            vt_d[:2],
        )
        worst = float(np.max(np.abs(np.concatenate(checks))))
        if not worst <= 1e-12:
            raise ValueError(f"boundary conditions violated by {worst:.3e}")

    @property
    def poly_a(self) -> np.ndarray:
        return self.scaled_a / self.t_f ** np.arange(5)

    @property
    def poly_b(self) -> np.ndarray:
        return self.scaled_b / self.t_f ** np.arange(4)

    def angles(self, t):
        """(chi, chi_dot, vartheta, vartheta_dot) at times t, in rad and rad/us."""
        return _scaled_angles(np.asarray(t, dtype=float), self.t_f, self.scaled_a, self.scaled_b)

    def chi(self, t):
        return self.angles(t)[0]

    def chi_deriv(self, t):
        return self.angles(t)[1]

    def vartheta(self, t):
        return self.angles(t)[2]

    def vartheta_deriv(self, t):
        return self.angles(t)[3]


def _cubic_rate(t, t_f):
    """d(theta)/dt of the cubic sweep: 6 pi s (1 - s) / t_f at s = t / t_f.

    ``t_f`` may be a column of durations against one row of times each.
    """
    s = t / t_f
    return 6.0 * np.pi * s * (1.0 - s) / t_f


def _scaled_angles(t, t_f, scaled_a, scaled_b):
    """(chi, chi_dot, vartheta, vartheta_dot) of scaled-time coefficients at times t.

    The derivative coefficients are formed here as ``c[1:] * arange(1, n)``.
    ``t_f`` may be a column of durations against one row of times each;
    every entry is then bitwise the value for its own duration alone.
    """
    s = t / t_f
    a, b = scaled_a, scaled_b
    chi_d = _polyval(s, a[1:] * np.arange(1, a.size))
    chi_d /= t_f
    vt_d = _polyval(s, b[1:] * np.arange(1, b.size))
    vt_d /= t_f
    return _polyval(s, a), chi_d, _polyval(s, b), vt_d


def _polyval(s, coeffs):
    """sum_k coeffs[k] s^k by Horner's rule, in numpy ``polyval``'s operation order.

    The steps run in place on one array: (val * s) + c is bitwise c + val * s.
    """
    val = s * 0
    val += coeffs[-1]
    for c in coeffs[-2::-1]:
        val *= s
        val += c
    return val


def solve_aux_polynomials(t_f: float, epsilon: float, direction: str = "creation") -> ThreeLevelAux:
    """Closed-form (chi, vartheta) polynomials meeting the boundary conditions.

    chi: five conditions (values at 0, t_f/2, t_f and flat endpoints) fix a
    quartic; vartheta: four conditions fix a cubic.  epsilon must lie in
    [1e-3, pi/4): the floor keeps cot(chi), and with it every designed
    pulse, finite.

    The coefficients are written in the scaled time s = t / t_f as small
    integer multiples of pi/4 - epsilon and pi/2, which makes the
    flat-endpoint conditions exact in floating point; ``ThreeLevelAux``
    checks all nine conditions on construction.  They depend on epsilon
    and direction alone: t_f enters the angles only through s and the
    1/t_f of the rates.
    """
    if not 0 < t_f < np.inf:
        raise ValueError("t_f must be finite and positive")
    if not (EPSILON_MIN <= epsilon < np.pi / 4):
        raise ValueError(f"epsilon must lie in [{EPSILON_MIN}, pi/4), got {epsilon}")
    if direction not in ("creation", "detection"):
        raise ValueError(f"unknown direction {direction!r}")

    bump = np.pi / 4 - epsilon
    scaled_a = np.array([epsilon, 0.0, 16 * bump, -32 * bump, 16 * bump])
    sweep = np.pi / 2
    if direction == "creation":
        scaled_b = np.array([0.0, 0.0, 3 * sweep, -2 * sweep])
    else:
        scaled_b = np.array([sweep, 0.0, -3 * sweep, 2 * sweep])
    return ThreeLevelAux(
        t_f=t_f, epsilon=epsilon, direction=direction,
        scaled_a=scaled_a, scaled_b=scaled_b,
    )


# ---------------------------------------------------------------------------
# invariant matrices and eigenstates
# ---------------------------------------------------------------------------


def _invariant2_stack(aux: TwoLevelAux, times) -> np.ndarray:
    t_arr = np.asarray(times, dtype=float)
    th = np.broadcast_to(np.asarray(aux.theta(t_arr), dtype=float), t_arr.shape)
    be = np.broadcast_to(np.asarray(aux.beta(t_arr), dtype=float), t_arr.shape)
    out = np.zeros(t_arr.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 0.5 * np.cos(th)
    out[..., 1, 1] = -0.5 * np.cos(th)
    off = 0.5 * np.sin(th) * np.exp(-1j * be)
    out[..., 0, 1] = off
    out[..., 1, 0] = off.conj()
    return out


def invariant2(aux: TwoLevelAux, t: float) -> np.ndarray:
    """Two-level invariant matrix at time t; eigenvalues are +-1/2."""
    return _invariant2_stack(aux, np.asarray(float(t)))


def eigenstates2(aux: TwoLevelAux, t: float) -> tuple[StateVector, StateVector]:
    """Orthonormal eigenstate pair (phi_plus, phi_minus) at time t."""
    times = np.asarray(float(t))
    return tuple(StateVector(_eigvec_and_deriv_2(aux, n, times)[0])
                 for n in ("plus", "minus"))


def _invariant3_stack(aux: ThreeLevelAux, times) -> np.ndarray:
    t_arr = np.asarray(times, dtype=float)
    chi, _, vt, _ = aux.angles(t_arr)
    out = np.zeros(t_arr.shape + (3, 3), dtype=complex)
    cchi, schi = np.cos(chi), np.sin(chi)
    out[..., 0, 1] = 0.5 * cchi * np.sin(vt)
    out[..., 1, 0] = out[..., 0, 1]
    out[..., 1, 2] = 0.5 * cchi * np.cos(vt)
    out[..., 2, 1] = out[..., 1, 2]
    out[..., 0, 2] = -1j * 0.5 * schi
    out[..., 2, 0] = 1j * 0.5 * schi
    return out


def invariant3(aux: ThreeLevelAux, t: float) -> np.ndarray:
    """Three-level invariant matrix at time t; spectrum {-1/2, 0, +1/2}."""
    return _invariant3_stack(aux, np.asarray(float(t)))


def eigenstates3(aux: ThreeLevelAux, t: float) -> tuple[StateVector, StateVector, StateVector]:
    """Eigenstates (phi_0, phi_plus, phi_minus) of the three-level invariant."""
    times = np.asarray(float(t))
    return tuple(StateVector(_eigvec_and_deriv_3(aux, n, times)[0])
                 for n in ("zero", "plus", "minus"))


def invariant2_rule(aux: TwoLevelAux) -> HamiltonianRule:
    """The two-level invariant as a Hermitian matrix-valued function of time."""
    return HamiltonianRule(2, lambda t: _invariant2_stack(aux, t))


def invariant3_rule(aux: ThreeLevelAux) -> HamiltonianRule:
    """The three-level invariant as a Hermitian matrix-valued function of time."""
    return HamiltonianRule(3, lambda t: _invariant3_stack(aux, t))


def invariant_residual(i_rule: HamiltonianRule, h_rule: HamiltonianRule, grid: TimeGrid) -> float:
    """Peak Frobenius norm of dI/dt|_partial - i [I, H] over the grid.

    The partial derivative is taken by central differences with a fixed
    stencil width of 1e-5 times the grid duration (shifted one-sided at the
    window edges), so the result is a property of the pair rather than of
    the sampling density.  Near-zero certifies that H transports the
    invariant's eigenstates exactly.
    """
    if i_rule.dimension != h_rule.dimension:
        raise ValueError(
            f"dimension mismatch: invariant {i_rule.dimension}, "
            f"Hamiltonian {h_rule.dimension}"
        )
    times = grid.times
    stencil = 1e-5 * grid.duration
    t_plus = np.minimum(times + stencil, grid.t_end)
    t_minus = np.maximum(times - stencil, grid.t_start)
    di = (i_rule.matrices(t_plus) - i_rule.matrices(t_minus)) / (
        (t_plus - t_minus)[:, None, None]
    )
    i_m = i_rule.matrices(times)
    h_m = h_rule.matrices(times)
    residual = di - 1j * (i_m @ h_m - h_m @ i_m)
    return float(np.max(np.sqrt(np.sum(np.abs(residual) ** 2, axis=(1, 2)))))


# ---------------------------------------------------------------------------
# Lewis-Riesenfeld phases
# ---------------------------------------------------------------------------


def _eigvec_and_deriv_2(aux: TwoLevelAux, which: str, times: np.ndarray):
    th = np.broadcast_to(np.asarray(aux.theta(times), dtype=float), times.shape)
    be = np.broadcast_to(np.asarray(aux.beta(times), dtype=float), times.shape)
    th_d = np.broadcast_to(np.asarray(aux.theta_dot(times), dtype=float), times.shape)
    be_d = np.broadcast_to(np.asarray(aux.beta_dot(times), dtype=float), times.shape)
    c, s = np.cos(th / 2), np.sin(th / 2)
    eb_m = np.exp(-1j * be)
    eb_p = np.exp(1j * be)
    if which == "plus":
        vec = np.stack([c * eb_m, s], axis=-1)
        dvec = np.stack(
            [(-0.5 * th_d * s - 1j * be_d * c) * eb_m, 0.5 * th_d * c], axis=-1
        )
    elif which == "minus":
        vec = np.stack([s, -c * eb_p], axis=-1)
        dvec = np.stack(
            [0.5 * th_d * c, (0.5 * th_d * s - 1j * be_d * c) * eb_p], axis=-1
        )
    else:
        raise ValueError(f"two-level eigenstate selector must be 'plus' or 'minus', got {which!r}")
    return vec, dvec


def _eigvec_and_deriv_3(aux: ThreeLevelAux, which: str, times: np.ndarray):
    chi, chi_d, vt, vt_d = aux.angles(times)
    cc, sc = np.cos(chi), np.sin(chi)
    cv, sv = np.cos(vt), np.sin(vt)
    if which == "zero":
        vec = np.stack([cc * cv, -1j * sc, -cc * sv], axis=-1)
        dvec = np.stack(
            [
                -chi_d * sc * cv - vt_d * cc * sv,
                -1j * chi_d * cc,
                chi_d * sc * sv - vt_d * cc * cv,
            ],
            axis=-1,
        )
    elif which in ("plus", "minus"):
        sign = 1.0 if which == "plus" else -1.0
        rt2 = np.sqrt(2.0)
        vec = np.stack(
            [sc * cv + sign * 1j * sv, 1j * cc, -sc * sv + sign * 1j * cv], axis=-1
        ) / rt2
        dvec = np.stack(
            [
                chi_d * cc * cv - vt_d * sc * sv + sign * 1j * vt_d * cv,
                -1j * chi_d * sc,
                -chi_d * cc * sv - vt_d * sc * cv - sign * 1j * vt_d * sv,
            ],
            axis=-1,
        ) / rt2
    else:
        raise ValueError(
            f"three-level eigenstate selector must be 'zero', 'plus' or 'minus', got {which!r}"
        )
    return vec, dvec


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Integral of the samples y(x) from x[0] to each x[k], starting at 0.

    Interval [x_k, x_k+1] takes the integral of the parabola through its
    ends and one neighbour: x_k+2 for even k, x_k-1 for odd k and for the
    last interval.  Two samples fall back to the trapezoid.  Same formulas
    as ``scipy.integrate.cumulative_simpson``.
    """
    dx = np.diff(x)
    if y.size < 3:
        return np.concatenate(([0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)))

    def leading(y, dx):  # over [x_k, x_k+1], parabola through x_k, x_k+1, x_k+2
        h1, h2 = dx[:-1], dx[1:]
        r1 = h1 / (h1 + h2)
        r12 = r1 * (h1 / h2)
        return h1 / 6 * ((3 - r1) * y[:-2] + (3 + r12 + r1) * y[1:-1] + (-r12) * y[2:])

    forward, backward = leading(y, dx), leading(y[::-1], dx[::-1])[::-1]
    parts = np.empty(dx.size)
    parts[:-1:2] = forward[::2]
    parts[1::2] = backward[::2]
    parts[-1] = backward[-1]
    return np.concatenate(([0.0], np.cumsum(parts)))


def lr_phase(
    n: str,
    aux: TwoLevelAux | ThreeLevelAux,
    eff_h: HamiltonianRule,
    grid: TimeGrid,
) -> Callable[[float], float]:
    """Lewis-Riesenfeld phase zeta_n(t) of one invariant eigenstate.

    zeta_n(t) = integral from t_start of <phi_n| i d/dt' - H(t') |phi_n> dt',
    accumulated by Simpson quadrature on the grid; zeta_n(t_start) = 0.
    Populations of a transported solution never depend on these phases;
    they matter only when eigenstate superpositions interfere.

    ``n`` selects the eigenstate: "plus"/"minus" for a two-level aux,
    "zero"/"plus"/"minus" for a three-level aux.
    """
    times = grid.times
    if isinstance(aux, TwoLevelAux):
        vec, dvec = _eigvec_and_deriv_2(aux, n, times)
    else:
        vec, dvec = _eigvec_and_deriv_3(aux, n, times)
    h_m = eff_h.matrices(times)
    geometric = np.real(1j * np.einsum("ti,ti->t", vec.conj(), dvec))
    dynamic = np.real(np.einsum("ti,tij,tj->t", vec.conj(), h_m, vec))
    zeta = _cumulative_simpson(geometric - dynamic, times)

    def phase(t):
        return np.interp(t, times, zeta)

    return phase
