"""Dense linear algebra and deterministic time propagation for small quantum
systems.

All routines work on systems of dimension 1 to 5, with time measured in
microseconds and every angular frequency (Rabi frequencies, detunings, decay
rates) in rad/us.  Decay is modelled as population loss out of the system:
each level k leaks amplitude at rate ``gamma[k]`` and nothing is refilled, so
the trace of the density matrix is the surviving fraction.

Propagation uses one integrator: a fixed-step fourth-order Magnus method with
two-point Gauss collocation and batched matrix exponentials (Blanes, Casas,
Oteo & Ros, Phys. Rep. 470, 151 (2009)); the step propagators between output
samples are multiplied by a pairwise tree.  The matrix exponential treats an
arbitrarily large static detuning exactly, so the step count follows the
sampled spectral scale of H(t) rather than its stiffness.  Step edges are
grade-refined at segment boundaries where pulse envelopes have square-root
edges or clamped spikes.  Identical inputs produce bitwise-identical
trajectories on one platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "IntegrationError",
    "StateVector",
    "DensityMatrix",
    "DecayVector",
    "TimeGrid",
    "HamiltonianRule",
    "StateTrajectory",
    "DensityTrajectory",
    "propagate_state",
    "propagate_density",
    "population",
    "fidelity",
]

DEFAULT_TOL = 1e-8
TOL_MIN, TOL_MAX = 1e-12, 1e-4

# Gauss-Legendre collocation nodes on [0, 1] for the fourth-order Magnus step.
_GL_C1 = 0.5 - np.sqrt(3.0) / 6.0
_GL_C2 = 0.5 + np.sqrt(3.0) / 6.0

# 1/k! for the degree-12 Taylor kernel of _expm_batch.
_INV_FACTORIAL = 1.0 / np.cumprod(np.concatenate(([1.0], np.arange(1.0, 13.0))))


class IntegrationError(RuntimeError):
    """Raised when a propagation fails or violates its accuracy contract."""


def _as_square_complex(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class StateVector:
    """Pure state amplitudes for an n-level system (n between 1 and 5)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", arr)
        if arr.size < 1 or arr.size > 5:
            raise ValueError(f"state dimension must be 1..5, got {arr.size}")
        if self.norm_sq > 1.0 + 1e-9:
            raise ValueError(f"squared norm {self.norm_sq:.3e} exceeds 1 + 1e-9")

    @property
    def dimension(self) -> int:
        return self.amplitudes.size

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @classmethod
    def basis(cls, dimension: int, level: int) -> "StateVector":
        amp = np.zeros(dimension, dtype=complex)
        amp[level] = 1.0
        return cls(amp)

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class DensityMatrix:
    """Density operator for an n-level system.

    Construction validates Hermiticity (1e-10 entrywise), trace in
    (0, 1 + 1e-9] and positive semidefiniteness (eigenvalues >= -1e-8).
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_square_complex(self.entries, "density matrix")
        object.__setattr__(self, "entries", arr)
        if arr.shape[0] < 1 or arr.shape[0] > 5:
            raise ValueError(f"density dimension must be 1..5, got {arr.shape[0]}")
        defect = np.max(np.abs(arr - arr.conj().T))
        if defect > 1e-10:
            raise ValueError(f"density matrix not Hermitian: defect {defect:.3e}")
        tr = float(np.trace(arr).real)
        if not (0.0 < tr <= 1.0 + 1e-9):
            raise ValueError(f"trace {tr:.6e} outside (0, 1 + 1e-9]")
        lo = float(np.min(np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))))
        if lo < -1e-8:
            raise ValueError(f"density matrix not PSD: lowest eigenvalue {lo:.3e}")

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    @classmethod
    def pure(cls, state: StateVector) -> "DensityMatrix":
        a = state.amplitudes
        return cls(np.outer(a, a.conj()))

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.entries))


@dataclass(frozen=True)
class DecayVector:
    """Per-level loss rates (rad/us) draining population out of the system."""

    rates: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rates, dtype=float).reshape(-1)
        object.__setattr__(self, "rates", arr)
        if not np.all(np.isfinite(arr) & (arr >= 0.0)):
            raise ValueError(f"decay rates must be finite and non-negative, got {arr.tolist()}")

    @property
    def dimension(self) -> int:
        return self.rates.size

    @classmethod
    def none(cls, dimension: int) -> "DecayVector":
        return cls(np.zeros(dimension))


@dataclass(frozen=True)
class TimeGrid:
    """Output sampling window: [t_start, t_end] in us with n_samples points."""

    t_start: float
    t_end: float
    n_samples: int = 201

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        if self.n_samples < 2:
            raise ValueError("n_samples must be at least 2")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_samples)


@dataclass(frozen=True)
class HamiltonianRule:
    """A time-dependent Hermitian matrix H(t) in rad/us.

    ``evaluator`` maps a time to the n x n matrix and an array of times to
    the stacked ``(..., n, n)`` array, in one call.
    """

    dimension: int
    evaluator: Callable[[np.ndarray | float], np.ndarray]

    def __call__(self, t):
        return self.evaluator(t)

    def matrices(self, times: np.ndarray) -> np.ndarray:
        """Evaluate on an array of times, always returning (m, n, n)."""
        times = np.asarray(times, dtype=float)
        out = np.asarray(self(times), dtype=complex)
        return out.reshape(times.shape + (self.dimension, self.dimension))

    @classmethod
    def constant(cls, matrix) -> "HamiltonianRule":
        m = _as_square_complex(matrix, "Hamiltonian")
        if np.max(np.abs(m - m.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
            raise ValueError("constant Hamiltonian is not Hermitian")
        n = m.shape[0]

        def evaluate(t):
            t_arr = np.asarray(t, dtype=float)
            return np.broadcast_to(m, t_arr.shape + (n, n)).copy()

        return cls(dimension=n, evaluator=evaluate)


@dataclass
class StateTrajectory:
    """Sampled solution of the Schrodinger equation i dpsi/dt = H(t) psi."""

    times: np.ndarray
    states: np.ndarray  # (n_samples, n) complex

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.states) ** 2

    @property
    def norms_sq(self) -> np.ndarray:
        return np.sum(np.abs(self.states) ** 2, axis=1)


@dataclass
class DensityTrajectory:
    """Sampled solution of the lossy von Neumann equation."""

    times: np.ndarray
    matrices: np.ndarray  # (n_samples, n, n) complex

    @property
    def dimension(self) -> int:
        return self.matrices.shape[1]

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.diagonal(self.matrices, axis1=1, axis2=2))

    @property
    def traces(self) -> np.ndarray:
        return np.real(np.trace(self.matrices, axis1=1, axis2=2))


# ---------------------------------------------------------------------------
# integration machinery
# ---------------------------------------------------------------------------


def _expm_batch(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack of small matrices.

    Each matrix's mean diagonal ``mu = tr(a) / n`` is split off as the exact
    scalar factor ``exp(mu)``, which lowers the norm of the remainder ``b``.
    The remainder is scaled by ``2**-s`` to max-row-sum norm at most 0.5, with
    ``s`` shared across the batch so that all work stays in batched matmuls.
    Its degree-12 Taylor polynomial is evaluated by Paterson-Stockmeyer
    (``b**2``, ``b**3``, then three Horner steps in ``b**3``: five matmuls in
    place of eleven), and ``s`` squarings undo the scaling.  See Al-Mohy &
    Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009), and Bader, Blanes &
    Casas (2019).
    """
    n = a.shape[-1]
    diag = np.arange(n)
    mu = np.trace(a, axis1=-2, axis2=-1) / n
    b = a.copy()
    b[..., diag, diag] -= mu[..., None]
    norm = float(np.max(np.sum(np.abs(b), axis=-1))) if b.size else 0.0
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.5))))
    b *= 2.0**-s
    b2 = b @ b
    b3 = b2 @ b

    def block(k: int) -> np.ndarray:
        # sum_{i<3} b**i / (k+i)!, plus b**3 / 12! in the top block
        out = b * _INV_FACTORIAL[k + 1] + b2 * _INV_FACTORIAL[k + 2]
        out[..., diag, diag] += _INV_FACTORIAL[k]
        if k == 9:
            out += b3 * _INV_FACTORIAL[12]
        return out

    e = block(9)
    for k in (6, 3, 0):
        e = block(k) + b3 @ e
    for _ in range(s):
        e = e @ e
    e *= np.exp(mu)[..., None, None]
    return e


def _validated_tol(tol: float) -> float:
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}], got {tol:g}")
    return float(tol)


def _checked_action(h: HamiltonianRule, grid: TimeGrid, gamma: np.ndarray | None) -> float:
    """Validate H and return the run's sampled phase budget in radians.

    H is evaluated once, on the output samples followed by 33 to 129 evenly
    spaced probe times.  Every row must be finite and the sample rows
    Hermitian.  The action is the duration times the largest max-row-sum
    norm over the probe rows, plus half the largest decay rate.
    """
    samples = grid.times
    times = np.concatenate([samples, np.linspace(grid.t_start, grid.t_end,
                                                 min(129, max(grid.n_samples, 33)))])
    mats = h.matrices(times)
    finite = np.all(np.isfinite(mats), axis=(-2, -1))
    if not np.all(finite):
        raise ValueError(
            f"Hamiltonian evaluator returned non-finite entries at t = {times[~finite][0]:.6g}"
        )
    at_samples, at_probes = mats[:samples.size], mats[samples.size:]
    defect = float(np.max(np.abs(at_samples - np.swapaxes(at_samples, -1, -2).conj())))
    scale = max(1.0, float(np.max(np.abs(at_samples))))
    if defect > 1e-12 * scale:
        raise ValueError(
            f"Hamiltonian evaluator is not Hermitian: max asymmetry {defect:.3e}"
        )
    omega = float(np.max(np.sum(np.abs(at_probes), axis=-1)))
    if gamma is not None and gamma.size:
        omega += 0.5 * float(np.max(gamma))
    return grid.duration * omega


def _segment_edges(grid: TimeGrid, breakpoints) -> np.ndarray:
    """Sorted distinct times partitioning the run into smooth segments."""
    pts = [grid.t_start, grid.t_end]
    if breakpoints is not None:
        for b in breakpoints:
            if grid.t_start < b < grid.t_end:
                pts.append(float(b))
    pts = np.array(sorted(pts))
    keep = np.concatenate(([True], np.diff(pts) > 1e-12 * grid.duration))
    return pts[keep]


def _magnus_nodes(grid: TimeGrid, breakpoints, n_target: int):
    """Step-edge times for the Magnus path.

    Every output sample and every breakpoint is a step edge; each gap is
    subdivided uniformly to approach ``n_target`` total steps, and the first
    and last step of each smooth segment get an extra geometric refinement
    (pulse envelopes routinely have sqrt edges there).
    """
    samples = grid.times
    segs = _segment_edges(grid, breakpoints)
    anchors = np.unique(np.concatenate([samples, segs]))
    duration = grid.duration
    ratios = np.cumsum(1.6 ** np.arange(16))
    ratios /= ratios[-1]

    parts = [np.array([anchors[0]])]
    for a, b in zip(anchors[:-1], anchors[1:]):
        gap = b - a
        k = max(1, int(np.ceil(n_target * gap / duration)))
        interior = [np.linspace(a, b, k + 1)[1:-1]]
        sub = gap / k
        if np.any(np.abs(segs - a) <= 1e-12 * duration):
            interior.append(a + sub * ratios[:-1])
        if np.any(np.abs(segs - b) <= 1e-12 * duration):
            interior.append(b - sub * ratios[:-1])
        pts = np.unique(np.concatenate(interior))
        pts = pts[(pts > a) & (pts < b)]
        parts.append(pts)
        parts.append(np.array([b]))
    all_edges = np.concatenate(parts)
    sample_idx = np.searchsorted(all_edges, samples)
    return all_edges, sample_idx


def _magnus_step_count(tol: float, action: float) -> int:
    # Calibrated on the level schemes this package targets: global error of a
    # few times 1e-6 at tol 1e-8 on the worst smooth pulses, scaling ~h^3..h^4.
    factor = (1e-8 / tol) ** 0.25
    factor = min(max(factor, 0.1), 4.0)
    return int(np.clip(np.ceil(0.75 * action * factor), 1024, 200_000))


def _magnus_propagators(h: HamiltonianRule, gamma: np.ndarray | None, edges: np.ndarray):
    """One fourth-order Magnus propagator per step between consecutive edges."""
    dt = np.diff(edges)
    h1 = h.matrices(edges[:-1] + _GL_C1 * dt)
    h2 = h.matrices(edges[:-1] + _GL_C2 * dt)
    dtc = dt[:, None, None]
    # h1 and h2 are Hermitian, so [h1, h2] = p - p^dagger with p = h1 h2.
    p = h1 @ h2
    comm = p - np.swapaxes(p, -1, -2).conj()
    omega = -0.5j * dtc * (h1 + h2)
    if gamma is not None and np.any(gamma):
        # With the diagonal loss L = -i/2 diag(gamma) on both nodes,
        # [h1 + L, h2 + L] = [h1, h2] + [L, h2 - h1], entrywise in L.
        loss = -0.5j * gamma
        comm += (loss[:, None] - loss[None, :]) * (h2 - h1)
        omega[..., np.arange(gamma.size), np.arange(gamma.size)] -= 0.5 * dt[:, None] * gamma
    omega += (np.sqrt(3.0) / 12.0 * dtc * dtc) * comm
    finite = np.all(np.isfinite(omega), axis=(-2, -1))
    if not np.all(finite):
        raise IntegrationError(
            f"non-finite Magnus generator on the step starting at t = {edges[:-1][~finite][0]:.6g}"
        )
    return _expm_batch(omega)


# Propagators are built in blocks of this many steps.  The block bounds the
# working set: a long stiff run can need >100k steps, and the matrix
# exponential keeps several powers of each block alive at once.
_MAGNUS_CHUNK = 4096


def _ordered_product(x: np.ndarray) -> np.ndarray:
    """``x[..., -1, :, :] @ ... @ x[..., 0, :, :]`` by a pairwise tree."""
    while (m := x.shape[-3]) > 1:
        pairs = x[..., 1::2, :, :] @ x[..., 0:m - 1:2, :, :]
        x = np.concatenate([pairs, x[..., -1:, :, :]], axis=-3) if m % 2 else pairs
    return x[..., 0, :, :]


def _magnus_sample_propagators(h: HamiltonianRule, gamma: np.ndarray | None,
                               edges: np.ndarray, sample_idx: np.ndarray) -> np.ndarray:
    """Propagators between consecutive output samples.

    Entry j maps the state at edge ``sample_idx[j]`` to the state at edge
    ``sample_idx[j + 1]``: the ordered product of the step propagators in
    between.  Steps are built in blocks of ``_MAGNUS_CHUNK``; a product that
    straddles a block boundary is carried into the next block.
    """
    n = h.dimension
    out = np.empty((len(sample_idx) - 1, n, n), dtype=complex)
    out[:] = np.eye(n)  # stays the identity between samples on one edge
    n_steps = len(edges) - 1
    carry = None
    for c0 in range(0, n_steps, _MAGNUS_CHUNK):
        c1 = min(c0 + _MAGNUS_CHUNK, n_steps)
        u = _magnus_propagators(h, gamma, edges[c0:c1 + 1])
        # Cut the block at the samples inside it; pieces of equal length
        # are reduced together as one batch.
        inside = sample_idx[(sample_idx > c0) & (sample_idx < c1)]
        cuts = np.unique(np.concatenate(([c0], inside, [c1])))
        lengths = np.diff(cuts)
        prods = np.empty((lengths.size, n, n), dtype=complex)
        for length in np.unique(lengths):
            sel = np.flatnonzero(lengths == length)
            prods[sel] = _ordered_product(u[cuts[sel, None] - c0 + np.arange(length)])
        if carry is not None:
            prods[0] = prods[0] @ carry
        ends = cuts[1:]
        at_sample = np.isin(ends, sample_idx)
        out[np.searchsorted(sample_idx, ends[at_sample]) - 1] = prods[at_sample]
        carry = None if at_sample[-1] else prods[-1]
    return out


def propagate_state(
    h: HamiltonianRule,
    psi0: StateVector,
    grid: TimeGrid,
    tol: float = DEFAULT_TOL,
    breakpoints: Sequence[float] | None = None,
) -> StateTrajectory:
    """Integrate i dpsi/dt = H(t) psi and sample on the grid.

    Parameters
    ----------
    h : HamiltonianRule
        Hermitian generator, validated on the output samples.
    psi0 : StateVector
        Initial state, normalized within 1e-9.
    grid : TimeGrid
        Output window and sampling density.
    tol : float
        Accuracy knob in [1e-12, 1e-4]; norm drift over the run stays
        within 100 * tol.
    breakpoints : sequence of float, optional
        Interior times where H is not smooth (segment boundaries of a
        composite pulse schedule); integration restarts there.

    Raises
    ------
    ValueError
        Non-Hermitian evaluator (the message reports the max asymmetry),
        non-finite H at an output sample or spectral probe, dimension
        mismatch, or unnormalized initial state.
    IntegrationError
        Non-finite H at a Magnus node, or violated norm-conservation
        contract.
    """
    tol = _validated_tol(tol)
    if psi0.dimension != h.dimension:
        raise ValueError(
            f"dimension mismatch: state {psi0.dimension}, Hamiltonian {h.dimension}"
        )
    if abs(psi0.norm_sq - 1.0) > 1e-9:
        raise ValueError(f"initial state not normalized: |psi|^2 = {psi0.norm_sq:.12f}")
    action = _checked_action(h, grid, None)
    edges, sample_idx = _magnus_nodes(grid, breakpoints, _magnus_step_count(tol, action))
    states = np.empty((grid.n_samples, h.dimension), dtype=complex)
    states[0] = psi0.amplitudes
    for j, u in enumerate(_magnus_sample_propagators(h, None, edges, sample_idx)):
        states[j + 1] = u @ states[j]

    traj = StateTrajectory(times=grid.times, states=states)
    drift = float(np.max(np.abs(traj.norms_sq - psi0.norm_sq)))
    if drift > 100.0 * tol:
        raise IntegrationError(
            f"norm drift {drift:.3e} exceeds 100*tol; input may be stiff or singular"
        )
    return traj


def propagate_density(
    h: HamiltonianRule,
    gamma: DecayVector,
    rho0: DensityMatrix,
    grid: TimeGrid,
    tol: float = DEFAULT_TOL,
    breakpoints: Sequence[float] | None = None,
) -> DensityTrajectory:
    """Integrate drho/dt = -i[H, rho] - 1/2 {diag(gamma), rho}.

    The anticommutator term drains each level k at rate gamma[k] with no
    refilling, so the trace is the fraction of population still inside the
    modelled levels.  Trace monotonicity (within 10 * tol) and Hermiticity
    (within 1e-9) are enforced on the output samples.

    Raises as :func:`propagate_state`, plus ValueError for a rho0 violating
    the DensityMatrix invariants (checked at construction) and
    IntegrationError on trace/Hermiticity contract violations.
    """
    tol = _validated_tol(tol)
    n = h.dimension
    if rho0.dimension != n or gamma.dimension != n:
        raise ValueError(
            f"dimension mismatch: rho {rho0.dimension}, gamma {gamma.dimension}, "
            f"Hamiltonian {n}"
        )
    action = _checked_action(h, grid, gamma.rates)
    edges, sample_idx = _magnus_nodes(grid, breakpoints, _magnus_step_count(tol, action))
    mats = np.empty((grid.n_samples, n, n), dtype=complex)
    mats[0] = rho0.entries
    for j, u in enumerate(_magnus_sample_propagators(h, gamma.rates, edges, sample_idx)):
        mats[j + 1] = u @ mats[j] @ u.conj().T

    traj = DensityTrajectory(times=grid.times, matrices=mats)
    herm = float(np.max(np.abs(mats - np.swapaxes(mats, -1, -2).conj())))
    if herm > 1e-9:
        raise IntegrationError(f"Hermiticity drift {herm:.3e} exceeds 1e-9")
    traces = traj.traces
    growth = float(np.max(np.diff(traces))) if traces.size > 1 else 0.0
    if growth > 10.0 * tol:
        raise IntegrationError(f"trace increased by {growth:.3e} (> 10*tol)")
    lo = float(np.min(np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, -1, -2).conj()))))
    if lo < -1e-8:
        raise IntegrationError(f"density lost positivity: eigenvalue {lo:.3e}")
    return traj


def population(traj: StateTrajectory | DensityTrajectory, level_index: int, t: float) -> float:
    """Population of one level at time t, linearly interpolated between samples."""
    if not 0 <= level_index < traj.dimension:
        raise ValueError(f"level index {level_index} out of range for n={traj.dimension}")
    times = traj.times
    span = times[-1] - times[0]
    if not times[0] - 1e-12 * span <= t <= times[-1] + 1e-12 * span:
        raise ValueError(f"time {t} outside sampled window [{times[0]}, {times[-1]}]")
    pops = traj.populations[:, level_index]
    return float(np.interp(t, times, pops))


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2; symmetric and global-phase invariant."""
    if a.dimension != b.dimension:
        raise ValueError(f"dimension mismatch: {a.dimension} vs {b.dimension}")
    for name, s in (("a", a), ("b", b)):
        if abs(s.norm_sq - 1.0) > 1e-6:
            raise ValueError(f"state {name} not normalized: |{name}|^2 = {s.norm_sq:.8f}")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
