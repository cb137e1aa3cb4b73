"""Dense linear algebra and deterministic time propagation for small quantum
systems.

All routines work on systems of dimension 1 to 5, with time measured in
microseconds and every angular frequency (Rabi frequencies, detunings, decay
rates) in rad/us.  Decay is modelled as population loss out of the system:
each level k leaks population at rate ``gamma[k]`` and nothing is refilled.
Every propagation therefore carries amplitudes: a lossy run integrates
psi under the non-Hermitian H - i/2 diag(gamma), |psi|^2 is the surviving
fraction, and a pure start stays pure (rho(t) = psi psi^dagger exactly).
:func:`propagate_density` is the lossy entry point; it takes a rank-1 rho0
and returns the same :class:`StateTrajectory` as :func:`propagate_state`.
Both entry points check their own inputs and make one call to
``_propagate``, which validates ``tol``, runs the integrator and checks
the norm contract of the run's loss: a drift of at most 100 * tol without
decays, a growth of at most 10 * tol between samples with them.

Propagation uses one integrator: a fixed-step Magnus method with two-point
Gauss collocation and batched matrix exponentials (Blanes, Casas, Oteo &
Ros, Phys. Rep. 470, 151 (2009)).  Its step is fourth order, except on the
certified coarse runs below, which drop the commutator term and take the
second-order step on the same nodes.  The steps are built in blocks;
each block is cut at the output samples and breakpoints inside it, each
piece's step propagators are multiplied by a pairwise tree, and psi takes
the pieces in order.  The matrix exponential treats an
arbitrarily large static detuning exactly, so the step count follows the
sampled spectral scale of H(t) rather than its stiffness.  Step edges are
grade-refined at segment boundaries where pulse envelopes have square-root
edges or clamped spikes, and all of them are planned in whole-array calls.
The step count is a heuristic in the sampled action, except on runs
sampled only at their two ends whose couplings are weak against the
static detuning.  There one table, ``_CHECKS``, decides: a coarse
second-order count at 5.5 pi of detuning phase per step is checked
against a second count, coarser (13.5 pi or 7.5 pi) where the coupling
ratio leaves a wide margin, and finer (3.5 pi) where it does not or the
coarser check fails.  The finer run of an agreeing pair is returned, a
step-doubling check (Hairer, Norsett & Wanner, Solving ODEs I, II.4; see
``_propagate``).  Identical inputs produce bitwise-identical trajectories
on one platform.

Inside the Magnus core every stack of step matrices is held entries first,
as (n, n, steps): entry (i, j) of all steps is one contiguous vector.  A
product of two stacks is then 2k - 1 whole-stack elementwise calls (one
multiply per inner index j and one add per further j), where numpy's batched
``@`` on (steps, n, n) stacks makes one BLAS call per 3 x 3 or 5 x 5 matrix.
Each propagation call allocates one workspace of such stacks and every block
of steps writes its H(t) samples, Magnus generator, matrix powers,
squarings and product-tree levels into it with ``out=``.  A block holds a
fixed budget of entries per stack (``_BLOCK_ENTRIES``, so its step count
falls as n**2 grows), and a block of m steps, the short last one too,
works in one C-contiguous slab of m-step stacks on the workspace's
leading memory: in a column slice of wider stacks the matrix exponential
took twice as long per step.
H(t) is evaluated once per block, at both Gauss nodes together, and turned
to this layout there; only the piece propagators that psi takes are turned
back.

The sweep thread pool runs cells on threads of one process, and what
limits their overlap is the GIL, not the arithmetic.  Two threads walking
the same 8,192-step 5 x 5 run each took 1.19-1.26 x as long as one thread
alone (medians of three sets of 30 rounds, 2 vCPUs), while two processes
took 0.96-1.01 x.  A numpy call on more than about 500 entries hands the
GIL over and takes it back; the Python and small-array work between such
calls runs with the GIL held, and the other thread waits for it.  So the
fixed work of a block is kept small: a product whose result has fewer
than ``_TAIL_ENTRIES`` entries (the last levels of every product tree,
every product of a short block) is one broadcast multiply and one
reduction instead of 2k - 1 calls, diagonal views are reshaped slices,
sizes are ``math.prod`` of Python ints, reductions are array methods, and
a block with no stop inside it skips the piece bookkeeping.  With that,
the two threads took 1.12-1.15 x.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
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
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"state amplitudes must be finite, got {arr.tolist()}")
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

    @classmethod
    def pure(cls, state: StateVector) -> "DensityMatrix":
        a = state.amplitudes
        return cls(np.outer(a, a.conj()))


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


@dataclass(frozen=True)
class TimeGrid:
    """Output sampling window: [t_start, t_end] in us with n_samples points."""

    t_start: float
    t_end: float
    n_samples: int = 201

    def __post_init__(self):
        for name in ("t_start", "t_end"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        if not isinstance(self.n_samples, (int, np.integer)) or self.n_samples < 2:
            raise ValueError(f"n_samples must be an integer of at least 2, got {self.n_samples!r}")

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
    """Sampled amplitudes of i dpsi/dt = (H(t) - i/2 diag(gamma)) psi.

    Without loss ``norms_sq`` stays at |psi0|^2; with loss it is the
    population still inside the modelled levels.  ``breakpoint_times`` are
    the run's breakpoints inside the window, sorted and without repeats;
    every one is a step edge, and ``breakpoint_states`` holds the amplitudes
    there, one row each, from the same propagation.
    """

    times: np.ndarray
    states: np.ndarray  # (n_samples, n) complex
    breakpoint_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    breakpoint_states: np.ndarray = field(
        default_factory=lambda: np.empty((0, 0), dtype=complex))

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.states) ** 2

    @property
    def norms_sq(self) -> np.ndarray:
        return np.sum(np.abs(self.states) ** 2, axis=1)


# ---------------------------------------------------------------------------
# integration machinery
# ---------------------------------------------------------------------------


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Matrix product of two stacks in the entries-first layout.

    ``a`` is (n, k, *batch) and ``b`` is (k, m, *batch); the result is
    (n, m, *batch), written into ``out``.  Each inner index j is one
    whole-stack multiply ``a[:, j] * b[j]`` (into ``term``, scratch of the
    result's shape) and one add, 2k - 1 numpy calls in all: every entry is
    the left-to-right sum over j of ``a[i, j] * b[j]``.  ``out`` and
    ``term`` must not overlap ``a`` or ``b``.
    """
    np.multiply(a[:, 0, None], b[None, 0], out)
    for j in range(1, a.shape[1]):
        np.multiply(a[:, j, None], b[None, j], term)
        np.add(out, term, out)
    return out


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """``a @ b`` of entries-first stacks into ``out``: :func:`_matmul`, or
    one broadcast multiply and one reduction over k when ``out`` holds fewer
    than ``_TAIL_ENTRIES`` entries (``term`` is then unused).
    """
    if out.size < _TAIL_ENTRIES:
        return np.add.reduce(np.multiply(a[:, :, None], b[None]), 1, None, out)
    return _matmul(a, b, out, term)


def _diagonal(x: np.ndarray) -> np.ndarray:
    """Writable (n, *batch) view of the diagonal entries of an (n, n, *batch) stack.

    The first two axes are merged and every (n + 1)-th row kept, which needs
    them to merge without a copy (``x.strides[0] == n * x.strides[1]``, as
    on every workspace stack and column slice of one); otherwise the call
    raises rather than hand out a copy that writes would not reach.
    """
    n = x.shape[0]
    if x.strides[0] != n * x.strides[1]:
        raise ValueError(f"no diagonal view of a stack with strides {x.strides}")
    return x.reshape((n * n,) + x.shape[2:])[::n + 1]


_WORK_STACKS = 6


def _workspace(n: int, size: int) -> np.ndarray:
    """Scratch for blocks of up to ``size`` steps: _WORK_STACKS (n, n, size) stacks.

    A block of m steps uses the C-contiguous (_WORK_STACKS, n, n, m) slab
    ``_stack_view(work, ...)`` on its leading memory, so a short block runs
    on contiguous stacks as a full one does.  Each propagation call makes
    its own, so concurrent calls never share one.
    """
    return np.empty((_WORK_STACKS, n, n, size), dtype=complex)


def _expm_batch(a: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack of small matrices, entries first.

    ``a`` has shape (n, n, *batch): entry (i, j) of every matrix is one
    contiguous batch vector, so each product is a few whole-stack
    elementwise calls (:func:`_matmul`) rather than one BLAS call per 3 x 3
    or 5 x 5 matrix.  Each matrix's mean diagonal ``mu = tr(a) / n`` is
    split off as the exact scalar factor ``exp(mu)``, which lowers the norm
    of the remainder ``b``.  The remainder is scaled by ``2**-s`` to
    max-row-sum norm at most 0.5, with ``s`` shared across the batch so that
    every matrix takes the same products.  Its degree-12 Taylor polynomial
    is evaluated by Paterson-Stockmeyer (``b**2``, ``b**3``, then three
    Horner steps in ``b**3``: five products in place of eleven), and ``s``
    squarings undo the scaling.  See Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 31, 970 (2009), and Bader, Blanes & Casas (2019).

    Every power, Horner level and squaring is written with ``out=`` into
    ``work``, (_WORK_STACKS, n, n, *batch) scratch; the result is
    ``work[0]``, and the other stacks are free again.
    ``a`` is read once, into ``work[0]``, before any other stack is written,
    so it may be one of ``work[1:]`` (which the call then overwrites);
    otherwise it is left unchanged.
    """
    b, b2, b3, e, f, term = work
    n = a.shape[0]
    np.copyto(b, a)
    mu = b.trace() / n
    diag = _diagonal(b)
    np.subtract(diag, mu, diag)
    norm = float(np.abs(b).sum(axis=1).max()) if b.size else 0.0
    s = max(0, math.ceil(math.log2(max(norm, 1e-300) / 0.5)))
    np.multiply(b, 2.0**-s, b)
    _product(b, b, b2, term)
    _product(b2, b, b3, term)
    # Horner in b**3 from b**3 / 12! down, adding sum_{i<3} b**i / (k+i)!
    # in place at each level; e and f swap as product and operand.
    np.multiply(b3, _INV_FACTORIAL[12], e)
    for k in (9, 6, 3, 0):
        if k < 9:
            e, f = _product(b3, e, f, term), e
        np.add(e, np.multiply(b, _INV_FACTORIAL[k + 1], term), e)
        np.add(e, np.multiply(b2, _INV_FACTORIAL[k + 2], term), e)
        diag = _diagonal(e)
        np.add(diag, _INV_FACTORIAL[k], diag)
    for _ in range(s):
        e, f = _product(e, e, f, term), e
    return np.multiply(e, np.exp(mu), work[0])


def _checked_action(h: HamiltonianRule, grid: TimeGrid,
                    gamma: np.ndarray | None) -> tuple[float, float, float]:
    """Validate H and return the run's sampled scales: (action, rate, ratio).

    H is evaluated once, on the output samples followed by 33 to 129 evenly
    spaced probe times.  Every row must be finite and the sample rows
    Hermitian.  The action is the duration times the largest max-row-sum
    norm over the probe rows, plus half the largest decay rate, in radians.
    The static phase rate is the largest spread of H's real diagonal over
    the probe rows (rad/us), and the coupling ratio is that rate over the
    largest off-diagonal absolute row sum (inf when H is diagonal).
    """
    samples = grid.times
    times = np.concatenate([samples, np.linspace(grid.t_start, grid.t_end,
                                                 min(129, max(grid.n_samples, 33)))])
    mats = h.matrices(times)
    finite = np.isfinite(mats).all(axis=(-2, -1))
    if not finite.all():
        raise ValueError(
            f"Hamiltonian evaluator returned non-finite entries at t = {times[~finite][0]:.6g}"
        )
    at_samples, at_probes = mats[:samples.size], mats[samples.size:]
    defect = float(np.abs(at_samples - np.swapaxes(at_samples, -1, -2).conj()).max())
    scale = max(1.0, float(np.abs(at_samples).max()))
    if defect > 1e-12 * scale:
        raise ValueError(
            f"Hamiltonian evaluator is not Hermitian: max asymmetry {defect:.3e}"
        )
    magnitude = np.abs(at_probes)
    row_sums = magnitude.sum(axis=-1)
    omega = float(row_sums.max())
    if gamma is not None and gamma.size:
        omega += 0.5 * float(gamma.max())
    diagonal = np.diagonal(at_probes, axis1=-2, axis2=-1).real
    rate = float((diagonal.max(axis=-1) - diagonal.min(axis=-1)).max())
    coupling = float((row_sums - np.diagonal(magnitude, axis1=-2, axis2=-1)).max())
    ratio = rate / coupling if coupling > 0.0 else np.inf
    return grid.duration * omega, rate, ratio


def _distinct(x: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-d array, as ``np.unique`` gives them.

    ``np.unique`` asks ``np.ma`` whether its input is masked, and that
    imports ``numpy.ma`` on the first propagation of every process.  The
    sort is the stable one: on 20,000 sorted step edges it took 25 us,
    the default sort 98 us.
    """
    x = np.sort(x, kind="stable")
    keep = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _segment_edges(grid: TimeGrid, breakpoints) -> np.ndarray:
    """Sorted distinct times partitioning the run into smooth segments."""
    inside = sorted(float(b) for b in (() if breakpoints is None else breakpoints)
                    if grid.t_start < b < grid.t_end)
    pts = [grid.t_start, *inside, grid.t_end]
    merge = 1e-12 * grid.duration
    return np.array(pts[:1] + [q for p, q in zip(pts, pts[1:]) if q - p > merge])


def _gap_steps(anchors: np.ndarray, duration: float, n_target: int) -> np.ndarray:
    """Uniform steps in each gap between anchors, at least one, for ``n_target``."""
    return np.maximum(1, np.ceil(n_target * np.diff(anchors) / duration)).astype(int)


# Fractions of a uniform step at which the step next to a segment edge is
# refined, growing geometrically by 1.6 away from the edge.
_EDGE_RATIOS = np.cumsum(1.6 ** np.arange(16))
_EDGE_RATIOS = _EDGE_RATIOS[:-1] / _EDGE_RATIOS[-1]


def _magnus_nodes(grid: TimeGrid, breakpoints, n_target: int):
    """Step-edge times for the Magnus path, and the indices of the output
    samples among them.

    Every output sample and every breakpoint is a step edge.  Each gap
    [a, b] between them is cut into k uniform steps, with k from
    :func:`_gap_steps` so that the run approaches ``n_target`` steps, and
    the uniform step next to a segment edge gets an extra geometric
    refinement there (pulse envelopes routinely have sqrt edges).  All
    gaps are built at once in whole-array calls: the uniform points are
    ``a + j * ((b - a) / k)``, as ``np.linspace(a, b, k + 1)`` computes
    them, and the refinement points ``a + sub * r`` and ``b - sub * r``
    with sub = (b - a) / k and r in (0, 0.63).  Every such point lies in
    its own gap's [a, b], rounding included, so one sort with duplicates
    dropped merges them into the same edges, bit for bit, as a loop over
    the gaps that keeps each gap's points strictly inside it.
    """
    samples = grid.times
    segs = _segment_edges(grid, breakpoints)
    anchors = _distinct(np.concatenate([samples, segs]))
    a, b = anchors[:-1], anchors[1:]
    k = _gap_steps(anchors, grid.duration, n_target)
    sub = (b - a) / k
    # j = 0 .. k - 1 in every gap; j = 0 is a itself.
    j = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
    near = (np.abs(anchors[:, None] - segs) <= 1e-12 * grid.duration).any(axis=1)
    lo, hi = near[:-1], near[1:]
    edges = _distinct(np.concatenate([
        j * np.repeat(sub, k) + np.repeat(a, k),
        (a[lo, None] + sub[lo, None] * _EDGE_RATIOS).reshape(-1),
        (b[hi, None] - sub[hi, None] * _EDGE_RATIOS).reshape(-1), anchors[-1:]]))
    return edges, np.searchsorted(edges, samples)


# The most steps a run takes; the heuristic count is clamped to it.
_MAX_STEPS = 200_000


def _magnus_step_count(tol: float, action: float) -> int:
    # Every run that does not certify a step pair (see _propagate) takes
    # this count, and for those tol is not a checked error bound.  Against
    # 200k-400k-step references, the final target population of p2 and
    # chainwise cells over the map domain (t_f 1-8 us, delta 1000pi-5000pi)
    # is off by at most 8.7e-9 at tol 1e-8, but chainwise at (1 us, 1000pi)
    # is off by 3.8e-6, 3.8 x tol, at tol 1e-6.  A certified run instead
    # checks that two coarse step counts agree on its populations within
    # tol / 2, an error estimate, not a bound; phases and coherences are
    # not checked on either path.
    factor = (1e-8 / tol) ** 0.25
    factor = min(max(factor, 0.1), 4.0)
    return int(np.clip(np.ceil(0.75 * action * factor), 1024, _MAX_STEPS))


def _magnus_propagators(h: HamiltonianRule, gamma: np.ndarray | None, edges: np.ndarray,
                        work: np.ndarray, commutator: bool = True) -> np.ndarray:
    """One Magnus propagator per step between consecutive edges, fourth order
    unless ``commutator`` is False.

    The result is entries first, (n, n, steps), as is all work inside.  H is
    evaluated in one call on both Gauss nodes of every step.  The generator
    is assembled in ``work``, (_WORK_STACKS, n, n, steps) scratch (see
    :func:`_workspace`), and the result is ``work[0]``.  With ``commutator``
    False the commutator term is dropped: the generator is -i dt (h1 + h2) /
    2 - dt diag(gamma) / 2, a second-order step on the same nodes.  One sum
    over the generator checks that it is finite; only when it is not does
    the entrywise test run, which decides (a sum of finite entries can
    overflow) and names the first bad step.
    """
    dt = edges[1:] - edges[:-1]
    m = dt.size
    n = h.dimension
    h1, h2, p, comm, omega, term = work
    nodes = h.matrices(np.concatenate([edges[:-1] + _GL_C1 * dt, edges[:-1] + _GL_C2 * dt]))
    np.copyto(work[:2], nodes.reshape(2, m, n, n).transpose(0, 2, 3, 1))
    np.multiply(-0.5j * dt, np.add(h1, h2, omega), omega)
    lossy = gamma is not None and gamma.any()
    if lossy:
        diag = _diagonal(omega)
        np.subtract(diag, 0.5 * dt * gamma[:, None], diag)
    if commutator:
        # h1 and h2 are Hermitian, so [h1, h2] = p - p^dagger with p = h1 h2.
        _product(h1, h2, p, term)
        np.subtract(p, np.conjugate(p.transpose(1, 0, 2), comm), comm)
        if lossy:
            # With the diagonal loss L = -i/2 diag(gamma) on both nodes,
            # [h1 + L, h2 + L] = [h1, h2] + [L, h2 - h1], entrywise in L.
            loss = -0.5j * gamma
            np.add(comm, np.multiply((loss[:, None] - loss[None, :])[:, :, None],
                                     np.subtract(h2, h1, term), term), comm)
        np.add(omega, np.multiply(np.sqrt(3.0) / 12.0 * dt * dt, comm, comm), omega)
    if not np.isfinite(omega.sum()) and not (finite := np.isfinite(omega).all(axis=(0, 1))).all():
        raise IntegrationError("non-finite Magnus generator on the step starting at "
                               f"t = {edges[:-1][~finite][0]:.6g}")
    return _expm_batch(omega, work)


# Propagators are built in blocks of _BLOCK_ENTRIES // n**2 steps, so that
# every workspace stack holds this many entries whatever n is: 2,048 steps
# at 5 x 5, 5,688 at 3 x 3.  The block bounds the working set (a long stiff
# run can need >100k steps, and the matrix exponential keeps several powers
# of each block alive at once); larger blocks mean fewer numpy calls, and
# so fewer GIL handoffs, per step.  On the bench map's tiles, half this
# budget (1,024 steps at 5 x 5) took 21% longer per pass and twice it 5%.
_BLOCK_ENTRIES = 51_200
# A product whose result holds fewer entries than this skips _matmul: the
# whole (n, k, m, *batch) stack of terms is one broadcast multiply and the
# sum over k one reduction, 2 numpy calls in place of 2k - 1 (the same
# terms summed in the same order: every bench map cell and scenario
# compared came out bit for bit equal).  Its scratch is k times the result,
# and a 5 x 5 product of 2,048 steps took 1.3-1.4 x as long this way, so
# large stacks keep _matmul.  Below about 500 entries numpy keeps the GIL
# through a call, so there the call count is the whole cost: one thread
# took 6 against 26 us for a 5 x 5 product of 4 steps, 30 against 48 us
# for one of 64 steps.  In process, the 8 seed-3 bench map tiles took the
# same time per pass at 4,096 and at 16,384 entries (20 alternating
# passes, two sweep threads).
_TAIL_ENTRIES = 4_096


def _stack_view(stack: np.ndarray, shape: tuple) -> np.ndarray:
    """A C-contiguous ``shape`` array on the leading memory of a contiguous
    stack or workspace.

    Packed rows keep a small tree level or a short block compact; the
    stack's own rows lie a power of two apart, and strided streams that far
    apart collide in the caches.  The size is ``math.prod`` of the shape:
    ``np.prod`` is a Python-level numpy reduction, and this runs two dozen
    times per block.
    """
    return stack.reshape(-1)[:math.prod(shape)].reshape(shape)


def _ordered_product(x: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    """``x[:, :, m-1] @ ... @ x[:, :, 0]`` by a pairwise tree.

    ``x`` is entries first, (n, n, m, *batch); the product over axis 2 is
    (n, n, *batch).  Each level pairs neighbours by one :func:`_product`
    and carries an odd last factor up unchanged; the levels whose products
    hold fewer than ``_TAIL_ENTRIES`` entries, the last 8 of a full 5 x 5
    block and the last 10 of a 3 x 3 one, take two numpy calls each, and
    the levels above them 2n - 1.  The levels alternate between the
    first two of ``stacks``, three contiguous (n, n, size) workspace stacks
    that ``x`` does not overlap, and the third is the products' scratch;
    ``size`` must hold ceil(m / 2) * batch columns.  The result is a view
    into a stack.
    """
    level, spare, term = stacks
    while (m := x.shape[2]) > 1:
        half = m // 2
        out = _stack_view(level, x.shape[:2] + (half + m % 2,) + x.shape[3:])
        product = out[:, :, :half]
        _product(x[:, :, 1::2], x[:, :, 0:m - 1:2], product, _stack_view(term, product.shape))
        if m % 2:
            out[:, :, half] = x[:, :, -1]
        x, level, spare = out, spare, level
    return x[:, :, 0]


def _walk(h: HamiltonianRule, gamma: np.ndarray | None, psi0: np.ndarray,
          edges: np.ndarray, stops: np.ndarray, commutator: bool = True) -> np.ndarray:
    """Amplitudes at the step edges ``stops`` (sorted, distinct indices), from
    ``psi0`` at ``edges[0]``; ``psi0`` may be (n, k), k states walked together.

    Steps are built in blocks of ``_BLOCK_ENTRIES // n**2`` that share one
    workspace; each block of m steps works in one C-contiguous
    (_WORK_STACKS, n, n, m) slab on its leading memory, the short last
    block too.  A block with no stop inside it is reduced by the pairwise
    tree where it lies.  Any other block is cut at its stops, its pieces
    are reduced by the tree (pieces of equal length as one batch), and the
    state takes the pieces in order.  ``commutator`` is passed to
    :func:`_magnus_propagators`: False takes the second-order step.
    """
    n = h.dimension
    n_steps = len(edges) - 1
    block = _BLOCK_ENTRIES // (n * n)
    workspace = _workspace(n, min(block, n_steps))
    psi = np.asarray(psi0, dtype=complex)
    walked, ends = [psi], [0]
    stop_list = stops.tolist()
    for c0 in range(0, n_steps, block):
        c1 = min(c0 + block, n_steps)
        work = _stack_view(workspace, (_WORK_STACKS, n, n, c1 - c0))
        # The block's propagators lie in work[0]; the tree gathers into
        # work[1] and keeps its levels and scratch in work[2:5].
        gather, *stacks = work[1:5]
        u = _magnus_propagators(h, gamma, edges[c0:c1 + 1], work, commutator)
        inside = stop_list[bisect_right(stop_list, c0):bisect_left(stop_list, c1)]
        if not inside:
            psi = _ordered_product(u, stacks) @ psi
            walked.append(psi)
            ends.append(c1)
            continue
        cuts = np.array([c0, *inside, c1])
        lengths = np.diff(cuts)
        prods = np.empty((n, n, lengths.size), dtype=complex)
        for length in _distinct(lengths):
            sel = np.flatnonzero(lengths == length)
            idx = np.arange(length)[:, None] + cuts[sel] - c0
            pieces = np.take(u, idx, axis=2, out=_stack_view(gather, (n, n) + idx.shape))
            prods[:, :, sel] = _ordered_product(pieces, stacks)
        for piece in prods.transpose(2, 0, 1).copy():
            psi = piece @ psi
            walked.append(psi)
        ends.extend(cuts[1:].tolist())
    return np.array(walked)[np.searchsorted(ends, stops)]


# Runs sampled only at their two ends, whose couplings are weak against the
# static detuning, take checked coarse step counts of the second-order
# Magnus step (the commutator term dropped) in place of the heuristic one.
# A count is set by the phase delta_h = rate * duration / n that the static
# detuning turns per step.  The _KEPT_PHASE run is checked against the run
# of a row of _CHECKS (see _propagate).  Every phase lies 0.5 pi from the
# nearest 2 pi k, where step errors add coherently and two runs can agree
# by accident (Iserles, BIT 42 (2002)).
#
# The fits on the rows are against 200k-step runs of the same core on the
# 256 cells of the bench map grids (p2 t_f 1-6 us, chainwise 1-8 us, delta
# 1000 pi-5000 pi, all 8 jitter levels): the final populations of the
# second-order step are off by about K / R**4, R the coupling ratio of
# _checked_action.  The fourth-order step measured K of 0.053-0.157 (p2)
# and 0.069-0.442 (chainwise) at 3.5 pi: at these delta_h its commutator
# term does not lower the error, it only costs time.  The fits are
# empirical estimates, not bounds; the gates only save work, and the
# agreement check decides.  They were fitted on end-sampled runs, the
# efficiency map's traffic, and only such runs try a check.  With samples
# inside the run, the two counts' populations there disagree by more than
# tol / 2 on almost every p2 and chainwise run (at 41 samples and tol 1e-6,
# all 46 that would try a fourth-order pair behind a tol / 8 gate fail), so
# the check would cost 1.6 x the heuristic count for nothing.
_KEPT_PHASE = 5.5 * np.pi
# Rows of (phase, gate, minimum steps), coarsest first.  A row's gate is
# 2 K for the K its fit is taken at: where R**4 * tol clears it, the fit
# K / R**4 stays within tol / 2, the agreement check's own tolerance.  The
# minimum uniform steps per segment, of the coarser of the row's run and
# the 5.5 pi run, keep every uniform step of both 0.5 pi or more from every
# 2 pi k: with k steps a segment's step turns more than (k - 1) / k of its
# target, so 13.5 pi needs 14 (above 12.5 pi), 7.5 pi needs 8 (above
# 6.5 pi) and the 5.5 pi run needs 8 (4.8 pi-5.5 pi, and 3.2 pi-3.5 pi for
# its 3.5 pi check); the two runs then cut every segment differently.  The
# map cells have one segment and take 697 coarse steps or more in it.
_CHECKS = (
    # K up to 3.26 at 13.5 pi, and the check failed only at
    # R**4 * tol <= 4.0.  At tol 1e-6, 88 map cells take this row and none
    # fails it.  The 5.5 pi run's error stayed within 0.53 x its agreement
    # with this run, but a 7.5 pi run checked by a 13.5 pi run reached
    # 6.6 x, so no run coarser than 5.5 pi is returned.
    (13.5 * np.pi, 2 * 3.3, 14),
    # K up to 1.90 at 7.5 pi; its agreement with the 5.5 pi run measured
    # K <= 1.43, and the check failed only at R**4 * tol <= 1.82, so the
    # gate is the fit at K = 1.0.  At tol 1e-6, 56 map cells take this row
    # and none fails it; the 5.5 pi run's error stayed within 0.87 x its
    # agreement with this run.
    (7.5 * np.pi, 2 * 1.0, 8),
    # K in 0.06-0.13 for p2 and 0.19-0.34 for chainwise at 3.5 pi (at
    # most 0.64 at 5.5 pi), taken at K = 0.45: at tol 1e-6 the gate is
    # R >= 30.8, and 168 of the 256 cells pass it.  The 3.5 pi run's error
    # stayed within 0.96 x its agreement with the 5.5 pi run.
    (3.5 * np.pi, 2 * 0.45, 8),
)
# A check certifies when every population at every sample and breakpoint
# agrees between its two runs within this fraction of tol.  At tol 1e-6,
# all 168 gated map cells certify (144 on a row coarser than 5.5 pi, 24 on
# the 3.5 pi row), within 0.29 x tol of the 200k-step runs.  Over 600
# end-sampled p1, p2 and chainwise scenario and round-trip runs (t_f
# 1-8 us, delta 1000 pi-5000 pi, tol 1e-8-1e-4), 408 try a check and 400
# certify, within 0.45 x tol of 200k-step runs (340 on a coarser row,
# within 0.22 x tol).  19 of them fail a coarser row's check, mostly
# chainwise round trips on the 7.5 pi row (R**4 * tol up to 5.5; up to 7.6
# at 13.5 pi), and walk the 3.5 pi run or the heuristic count after it.
# The 600 runs walk 7.30M steps in all, 8.41M with the 3.5 pi row alone.
_PAIR_AGREEMENT = 0.5


def _propagate(h: HamiltonianRule, gamma: np.ndarray | None, psi0: np.ndarray,
               grid: TimeGrid, tol: float, breakpoints) -> StateTrajectory:
    """Amplitudes from ``psi0`` under H - i/2 diag(gamma), sampled on the grid,
    with ``tol`` validated and the norm contract of the run's loss checked.

    ``gamma`` is None for a closed system, whose norm may drift by at most
    100 * tol from |psi0|^2 at any sample.  With ``gamma`` given (all-zero
    rates take the same steps and propagators), the trace may grow by at
    most 10 * tol between samples.  Either test is ``not change <= bound``,
    so a trace that is not finite breaks it too, with its own message.
    Breakpoints are step edges, so the walk stops there too and gives
    their states.

    When even the clamped heuristic count (``_MAX_STEPS``) would turn more
    than ``_KEPT_PHASE`` of static detuning phase per step, the run is
    coarser than any count this module trusts, and it raises before any
    step is built.

    When the grid samples only the run's two ends, the rows of ``_CHECKS``
    are tried in order, each against the second-order run at
    ``_KEPT_PHASE`` (5.5 pi of detuning phase per step).  A row runs when
    all three hold:

    - R**4 * tol clears its gate, R the coupling ratio (tested in root
      form, R < (gate / tol) ** 0.25, which no R overflows);
    - the coarser of its run and the 5.5 pi run cuts every segment between
      breakpoints into at least its minimum number of uniform steps;
    - the two runs take fewer steps together than the heuristic count.

    Both runs take the second-order step (no commutator term).  The 5.5 pi
    run is walked at most once, and at most one row coarser than it runs.
    When the populations of the two runs agree within
    ``_PAIR_AGREEMENT * tol`` at both ends and every breakpoint, the finer
    run is returned: the 5.5 pi run after a coarser row, and the 3.5 pi
    run after the 3.5 pi row.  Otherwise the heuristic count runs with the
    fourth-order step, bit for bit as without the checks.
    """
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}], got {tol:g}")
    action, rate, ratio = _checked_action(h, grid, gamma)
    heuristic = _magnus_step_count(tol, action)
    if heuristic == _MAX_STEPS and rate * grid.duration / heuristic > _KEPT_PHASE:
        raise IntegrationError(
            f"{heuristic} steps would turn {rate * grid.duration / heuristic:.3g} rad of detuning"
            " phase each, above the budget of 17.3 rad (5.5 pi) per step")
    segs = _segment_edges(grid, breakpoints)
    inner = segs[1:-1]

    def nodes(n_target):
        edges, sample_idx = _magnus_nodes(grid, breakpoints, n_target)
        return edges, sample_idx, np.searchsorted(edges, inner)

    def walk(edges, sample_idx, inner_idx, commutator=True):
        stops = _distinct(np.concatenate([sample_idx, inner_idx]))
        states = _walk(h, gamma, psi0, edges, stops, commutator)
        return StateTrajectory(times=grid.times,
                               states=states[np.searchsorted(stops, sample_idx)],
                               breakpoint_times=inner,
                               breakpoint_states=states[np.searchsorted(stops, inner_idx)])

    kept_n = int(np.ceil(rate * grid.duration / _KEPT_PHASE))
    traj = kept = kept_nodes = None
    for phase, gate, min_steps in _CHECKS if grid.n_samples == 2 else ():
        n = int(np.ceil(rate * grid.duration / phase))
        if (ratio < (gate / tol) ** 0.25 or (kept is not None and phase > _KEPT_PHASE)
                or _gap_steps(segs, grid.duration, min(n, kept_n)).min() < min_steps):
            continue
        # Every later row is finer, and its run takes no fewer steps.  Each
        # run takes at least its target count, so the targets alone can
        # settle the budget before any edge is built.
        if n + kept_n >= heuristic:
            break
        if kept_nodes is None:
            kept_nodes = nodes(kept_n)
        check_nodes = nodes(n)
        if check_nodes[0].size + kept_nodes[0].size - 2 >= heuristic:
            break
        if kept is None:
            kept = walk(*kept_nodes, commutator=False)
        check = walk(*check_nodes, commutator=False)
        if np.all(np.abs(_populations(kept) - _populations(check)) <= _PAIR_AGREEMENT * tol):
            traj = check if phase < _KEPT_PHASE else kept
            break
    traj = walk(*nodes(heuristic)) if traj is None else traj
    if gamma is None:
        drift = np.abs(traj.norms_sq - np.vdot(psi0, psi0).real)
        change, bound = float(np.max(drift)), 100.0 * tol
        message = f"norm drift {change:.3e} exceeds 100*tol; input may be stiff or singular"
    else:
        change, bound = float(np.max(np.diff(traj.norms_sq))), 10.0 * tol
        message = f"trace increased by {change:.3e} (> 10*tol)"
    if not change <= bound:
        raise IntegrationError(message if np.isfinite(change) else
                               f"the trace is not finite ({change}); the propagation overflowed")
    return traj


def _populations(traj: StateTrajectory) -> np.ndarray:
    """Populations at the samples followed by those at the breakpoints."""
    return np.abs(np.concatenate([traj.states, traj.breakpoint_states])) ** 2


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
        In [1e-12, 1e-4].  A run sampled only at its two ends, whose
        static detuning dominates the couplings enough, runs a coarse step
        count of the second-order Magnus step (5.5 pi of detuning phase
        per step) and checks it against a second count: coarser (13.5 pi
        or 7.5 pi) where the coupling ratio leaves a wide margin, and
        finer (3.5 pi) where it does not or the coarser check fails.  It
        keeps the finer run of a pair only if their populations agree
        within tol / 2 at both ends and every breakpoint (see
        :func:`_propagate`).  That agreement estimates the populations'
        error there; it is not a bound, and phases and coherences are not
        checked.  Every other run takes a heuristic step count of the
        fourth-order step, whose error is not checked and can exceed tol
        (3.8 x tol for a chainwise leg at 1 us, 1000pi rad/us and
        tol 1e-6).  Norm drift over the run is checked, in
        :func:`_propagate`, to stay within 100 * tol.
    breakpoints : sequence of float, optional
        Interior times where H is not smooth (segment boundaries of a
        composite pulse schedule); integration restarts there.

    Raises
    ------
    ValueError
        Bad tol, non-Hermitian evaluator (the message reports the max
        asymmetry), non-finite H at an output sample or spectral probe,
        dimension mismatch, or unnormalized initial state.
    IntegrationError
        Non-finite H at a Magnus node, a static detuning phase that the
        clamped step count cannot resolve (more than 5.5 pi per step), or
        violated norm-conservation contract (a norm that is not finite
        violates it).
    """
    if psi0.dimension != h.dimension:
        raise ValueError(
            f"dimension mismatch: state {psi0.dimension}, Hamiltonian {h.dimension}"
        )
    if abs(psi0.norm_sq - 1.0) > 1e-9:
        raise ValueError(f"initial state not normalized: |psi|^2 = {psi0.norm_sq:.12f}")
    return _propagate(h, None, psi0.amplitudes, grid, tol, breakpoints)


def _pure_amplitudes(rho0: DensityMatrix) -> np.ndarray:
    """psi0 with rho0 = psi0 psi0^dagger: rho0's largest-diagonal column over its root."""
    rho = rho0.entries
    k = int(np.argmax(np.real(np.diagonal(rho))))
    psi = rho[:, k] / np.sqrt(rho[k, k].real)
    defect = float(np.max(np.abs(rho - np.outer(psi, psi.conj()))))
    if defect > 1e-10:
        raise ValueError(
            f"propagate_density needs a pure (rank-1) rho0: it differs from "
            f"psi0 psi0^dagger by {defect:.3e}"
        )
    return psi


def propagate_density(
    h: HamiltonianRule,
    gamma: DecayVector,
    rho0: DensityMatrix,
    grid: TimeGrid,
    tol: float = DEFAULT_TOL,
    breakpoints: Sequence[float] | None = None,
) -> StateTrajectory:
    """Integrate drho/dt = -i[H, rho] - 1/2 {diag(gamma), rho} from a pure rho0.

    The anticommutator term drains each level k at rate gamma[k] with no
    refilling, so a pure start stays pure: rho(t) = psi psi^dagger, with
    psi propagated under H - i/2 diag(gamma).  rho0 must therefore be rank 1
    (psi0 psi0^dagger within 1e-10 entrywise; its trace may be below 1),
    and the call returns the sampled psi as a :class:`StateTrajectory`:
    ``populations`` is the diagonal of rho and ``norms_sq`` its trace, the
    fraction of population still inside the modelled levels.  The trace is
    checked, in :func:`_propagate`, not to grow by more than 10 * tol
    between samples.  ``tol`` acts as in :func:`propagate_state`: a
    certified run's populations at both ends and every breakpoint agree
    within tol / 2 between two second-order runs, 5.5 pi of detuning phase
    per step and one coarser or finer count, and the finer of the two is
    returned.  That is an estimate of their error rather than a bound;
    phases and coherences are not checked, and an uncertified run takes
    the fourth-order heuristic step count with no check on its error.

    Raises as :func:`propagate_state`, plus ValueError for a rho0 violating
    the DensityMatrix invariants (checked at construction) or of rank above
    1, and IntegrationError on a growing trace or one that is not finite.
    """
    n = h.dimension
    if rho0.dimension != n or gamma.dimension != n:
        raise ValueError(
            f"dimension mismatch: rho {rho0.dimension}, gamma {gamma.dimension}, "
            f"Hamiltonian {n}"
        )
    return _propagate(h, gamma.rates, _pure_amplitudes(rho0), grid, tol, breakpoints)


def population(traj: StateTrajectory, level_index: int, t: float) -> float:
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
