import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from chainwise_sta import (
    DecayVector,
    DensityMatrix,
    HamiltonianRule,
    IntegrationError,
    StateVector,
    TimeGrid,
    fidelity,
    population,
    propagate_density,
    propagate_state,
)
from chainwise_sta import (
    design_chainwise,
    design_protocol1,
    design_protocol2,
    qcore,
    run_scenario,
    schemes,
)
from chainwise_sta.protocols import hamiltonian_rule

from conftest import CHAIN_STAR, LAMBDA_DECAYS, M_DECAYS, P1_STAR, P2_STAR


def two_level(omega, delta_e):
    """Symmetric two-level Hamiltonian: diag(+d/2, -d/2), off-diagonal omega/2."""
    return HamiltonianRule.constant(
        [[delta_e / 2, omega / 2], [omega / 2, -delta_e / 2]]
    )


def gain_between_samples(t_end=1.0):
    """2-level H whose (1,1) entry 5j sin^2(pi t / t_end) is Hermitian at
    t = 0 and t_end only: a 2-sample grid sees a valid H, the steps between
    its samples grow level 2 by exp(5 t_end / 2) in amplitude."""

    def evaluate(t):
        t_arr = np.asarray(t, dtype=float)
        out = np.zeros(t_arr.shape + (2, 2), dtype=complex)
        out[..., 1, 1] = 5j * np.sin(np.pi * t_arr / t_end) ** 2
        return out

    return HamiltonianRule(2, evaluate)


class TestTypes:
    def test_state_norm_guard(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector([1.0, 1.0])

    def test_density_requires_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix([[0.5, 0.1], [0.3, 0.5]])

    def test_density_requires_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix([[0.6, 0.59], [0.59, 0.4]])

    def test_density_trace_window(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix([[0.9, 0], [0, 0.9]])

    def test_decay_rates_nonnegative(self):
        for bad in (-0.2, np.nan, np.inf):
            with pytest.raises(ValueError, match="decay rates"):
                DecayVector([0.1, bad])

    def test_time_grid_ordering(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, n_samples=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)])
    def test_state_rejects_non_finite_amplitudes(self, bad):
        # NaN passed the norm check once and propagated to an all-NaN trajectory.
        with pytest.raises(ValueError, match="finite"):
            StateVector([bad, 0.0, 0.0])

    @pytest.mark.parametrize("args, field", [
        ((0.0, np.inf, 2), "t_end"),
        ((0.0, np.nan, 2), "t_end"),
        ((-np.inf, 0.0, 2), "t_start"),
        ((np.nan, 1.0, 2), "t_start"),
        ((0.0, 1.0, 2.5), "n_samples"),
        ((0.0, 1.0, 2.0), "n_samples"),
    ], ids=["t_end-inf", "t_end-nan", "t_start-inf", "t_start-nan", "n_samples-2.5",
            "n_samples-2.0"])
    def test_time_grid_rejects_bad_fields(self, args, field):
        with pytest.raises(ValueError, match=field):
            TimeGrid(*args)

    def test_time_grid_accepts_numpy_integer(self):
        assert TimeGrid(0.0, 1.0, np.int64(3)).times.tolist() == [0.0, 0.5, 1.0]

    def test_constant_rule_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HamiltonianRule.constant([[0.0, 1.0], [0.5, 0.0]])


class TestPropagateState:
    def test_resonant_pi_pulse(self):
        h = two_level(omega=1.0, delta_e=0.0)
        traj = propagate_state(h, StateVector.basis(2, 0), TimeGrid(0.0, np.pi, 61))
        assert traj.populations[-1, 1] == pytest.approx(1.0, abs=1e-6)

    def test_zero_hamiltonian_is_identity(self):
        h = HamiltonianRule.constant(np.zeros((4, 4)))
        psi0 = StateVector(np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        traj = propagate_state(h, psi0, TimeGrid(0.0, 7.0, 15))
        assert np.allclose(traj.states, psi0.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("method", ["adaptive", "magnus"])
    def test_detuned_rabi_closed_form(self, method):
        # Analytic oracle: P2(t) = om^2/(om^2+d^2) * sin^2(sqrt(om^2+d^2) t / 2).
        # "magnus" checks propagate_state; "adaptive" checks the RK45 reference
        # that the back-end equivalence tests below compare Magnus against.
        omega, delta_e, t_end = 1.0, 1.0, 2.0
        grid = TimeGrid(0.0, t_end, 41)
        h = two_level(omega, delta_e)
        psi0 = StateVector.basis(2, 0)
        if method == "magnus":
            populations = propagate_state(h, psi0, grid).populations
        else:
            states = rk45_reference(lambda t, y: -1j * (h(t) @ y), psi0.amplitudes, grid)
            populations = np.abs(states) ** 2
        g = np.hypot(omega, delta_e)
        expected = omega**2 / g**2 * np.sin(g * grid.times / 2) ** 2
        assert np.max(np.abs(populations[:, 1] - expected)) < 1e-6

    def test_norm_conserved_long_run(self):
        # 20 us chirped drive; norm must stay within 100 * tol.
        def evaluate(t):
            t_arr = np.asarray(t, dtype=float)
            om = 2.0 * np.sin(0.7 * t_arr) ** 2
            out = np.zeros(t_arr.shape + (2, 2), dtype=complex)
            out[..., 0, 1] = om / 2
            out[..., 1, 0] = om / 2
            out[..., 0, 0] = 0.3 * t_arr / 20.0
            out[..., 1, 1] = -0.3 * t_arr / 20.0
            return out

        h = HamiltonianRule(2, evaluate)
        tol = 1e-8
        traj = propagate_state(h, StateVector.basis(2, 0), TimeGrid(0.0, 20.0, 201), tol=tol)
        assert np.max(np.abs(traj.norms_sq - 1.0)) <= 100 * tol

    def test_non_hermitian_reports_asymmetry(self):
        def evaluate(t):
            t_arr = np.asarray(t, dtype=float)
            out = np.zeros(t_arr.shape + (2, 2), dtype=complex)
            out[..., 0, 1] = 1.0
            out[..., 1, 0] = 0.5
            return out

        with pytest.raises(ValueError, match="asymmetry"):
            propagate_state(HamiltonianRule(2, evaluate), StateVector.basis(2, 0),
                            TimeGrid(0.0, 1.0, 11))

    def test_non_finite_hamiltonian_rejected(self):
        # NaN at an output sample: a typed input error, not a failed int(nan).
        def evaluate(t):
            t_arr = np.asarray(t, dtype=float)
            out = np.zeros(t_arr.shape + (2, 2), dtype=complex)
            out[..., 0, 1] = out[..., 1, 0] = np.where(t_arr < 0.5, 1.0, np.nan)
            return out

        with pytest.raises(ValueError, match="non-finite"):
            propagate_state(HamiltonianRule(2, evaluate), StateVector.basis(2, 0),
                            TimeGrid(0.0, 1.0, 11))

    def test_norm_drift_is_integration_error(self):
        # The norm grows from 1 to e^5 (drift 147) where no sample sees H.
        with pytest.raises(IntegrationError, match="norm drift"):
            propagate_state(gain_between_samples(), StateVector.basis(2, 1),
                            TimeGrid(0.0, 1.0, 2), tol=1e-6)

    def test_non_finite_norm_is_integration_error(self, monkeypatch):
        # NaN compares false with every bound: a run whose states are not
        # finite must still break the norm contract.
        real = qcore._propagate

        def not_finite(*args):
            traj = real(*args)
            traj.states[1:] = np.nan
            return traj

        monkeypatch.setattr(qcore, "_propagate", not_finite)
        with pytest.raises(IntegrationError, match="trace is not finite"):
            propagate_state(two_level(1.0, 0.0), StateVector.basis(2, 0), TimeGrid(0.0, 1.0, 11))

    def test_unnormalized_initial_state_rejected(self):
        bad = StateVector(np.array([0.7, 0.7j]))
        with pytest.raises(ValueError, match="normalized"):
            propagate_state(two_level(1.0, 0.0), bad, TimeGrid(0.0, 1.0, 11))

    def test_tol_bounds(self):
        h = two_level(1.0, 0.0)
        for bad in (1e-13, 1e-3):
            with pytest.raises(ValueError, match="tol"):
                propagate_state(h, StateVector.basis(2, 0), TimeGrid(0.0, 1.0, 5), tol=bad)

    def test_deterministic_bitwise(self):
        h = two_level(1.3, 0.4)
        grid = TimeGrid(0.0, 5.0, 101)
        a = propagate_state(h, StateVector.basis(2, 0), grid)
        b = propagate_state(h, StateVector.basis(2, 0), grid)
        assert np.array_equal(a.states, b.states)


class TestPropagateDensity:
    def test_closed_system_matches_state_propagation(self):
        h = two_level(1.1, 0.6)
        grid = TimeGrid(0.0, 4.0, 81)
        tol = 1e-8
        psi = propagate_state(h, StateVector.basis(2, 0), grid, tol=tol)
        rho = propagate_density(h, DecayVector.none(2),
                                DensityMatrix.pure(StateVector.basis(2, 0)), grid, tol=tol)
        # Zero decay takes the same steps and propagators as propagate_state.
        assert np.array_equal(psi.populations, rho.populations)

    def test_pure_exponential_decay(self):
        h = HamiltonianRule.constant(np.zeros((1, 1)))
        traj = propagate_density(h, DecayVector([0.5]), DensityMatrix([[1.0]]),
                                 TimeGrid(0.0, 2.0, 21))
        assert traj.populations[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_step_halving_self_oracle(self, p2_schedule, lambda_decays):
        # tol 6.25e-10 runs the Magnus integrator at exactly half the step size.
        h = hamiltonian_rule(p2_schedule)
        rho0 = DensityMatrix.pure(StateVector.basis(3, 0))
        grid = TimeGrid(0.0, p2_schedule.duration, 2)
        full = propagate_density(h, lambda_decays, rho0, grid, tol=1e-8)
        half = propagate_density(h, lambda_decays, rho0, grid, tol=6.25e-10)
        assert abs(full.populations[-1, 2] - half.populations[-1, 2]) < 1e-5

    def test_non_finite_between_samples_is_integration_error(self):
        # NaN only on (0.7001, 0.7009): no output sample or spectral probe
        # sees it, the Magnus nodes do.  A sweep records such a cell as failed.
        def evaluate(t):
            t_arr = np.asarray(t, dtype=float)
            out = np.zeros(t_arr.shape + (2, 2), dtype=complex)
            bad = (t_arr > 0.7001) & (t_arr < 0.7009)
            out[..., 0, 1] = out[..., 1, 0] = np.where(bad, np.nan, 1.0)
            return out

        with pytest.raises(IntegrationError, match="non-finite"):
            propagate_density(HamiltonianRule(2, evaluate), DecayVector([0.0, 0.5]),
                              DensityMatrix.pure(StateVector.basis(2, 0)),
                              TimeGrid(0.0, 1.0, 2))

    def test_trace_increase_is_integration_error(self):
        with pytest.raises(IntegrationError, match="trace increased"):
            propagate_density(gain_between_samples(), DecayVector.none(2),
                              DensityMatrix.pure(StateVector.basis(2, 1)),
                              TimeGrid(0.0, 1.0, 2), tol=1e-6)

    # The step's matrix exponential overflows at this rate; the run must
    # fail the trace contract, not return NaN populations.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("n_samples", [2, 11])
    def test_non_finite_trace_is_integration_error(self, n_samples):
        psi0 = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        with pytest.raises(IntegrationError, match="trace is not finite"):
            propagate_density(two_level(2.0, 0.0), DecayVector([1e9, 0.0]),
                              DensityMatrix.pure(psi0), TimeGrid(0.0, 1.0, n_samples))

    def test_trace_monotone_under_loss(self):
        h = two_level(2.0, 0.0)
        traj = propagate_density(h, DecayVector([0.0, 0.8]),
                                 DensityMatrix.pure(StateVector.basis(2, 0)),
                                 TimeGrid(0.0, 6.0, 121))
        assert np.all(np.diff(traj.norms_sq) <= 10 * 1e-8)
        assert traj.norms_sq[-1] < 1.0

    def test_trace_constant_without_loss(self):
        h = two_level(2.0, 1.0)
        traj = propagate_density(h, DecayVector.none(2),
                                 DensityMatrix.pure(StateVector.basis(2, 0)),
                                 TimeGrid(0.0, 6.0, 61))
        assert np.max(np.abs(traj.norms_sq - 1.0)) < 1e-7

    def test_hermiticity_and_psd_at_samples(self):
        h = two_level(3.0, 0.7)
        traj = propagate_density(h, DecayVector([0.1, 0.4]),
                                 DensityMatrix.pure(StateVector.basis(2, 0)),
                                 TimeGrid(0.0, 5.0, 101))
        m = traj.states[:, :, None] * traj.states[:, None, :].conj()  # rho = psi psi^dagger
        assert np.max(np.abs(m - np.swapaxes(m, 1, 2).conj())) < 1e-9
        eigs = np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, 1, 2).conj()))
        assert np.min(eigs) > -1e-8

    def test_dimension_mismatch(self):
        h = two_level(1.0, 0.0)
        with pytest.raises(ValueError, match="dimension"):
            propagate_density(h, DecayVector([0.0, 0.0, 0.0]),
                              DensityMatrix.pure(StateVector.basis(2, 0)),
                              TimeGrid(0.0, 1.0, 5))
        with pytest.raises(ValueError, match="dimension"):
            propagate_state(h, StateVector.basis(3, 0), TimeGrid(0.0, 1.0, 5))

    def test_mixed_state_input_rejected(self):
        h = two_level(1.5, 0.3)
        rho0 = DensityMatrix(np.diag([0.5, 0.3]))
        with pytest.raises(ValueError, match="pure"):
            propagate_density(h, DecayVector.none(2), rho0, TimeGrid(0.0, 3.0, 61))

    def test_sub_unit_trace_pure_input(self):
        # A rank-1 rho0 of trace 0.8 scales every population by 0.8.
        h = two_level(1.5, 0.3)
        psi0 = StateVector(np.array([0.6, 0.8j]))
        grid = TimeGrid(0.0, 3.0, 61)
        gamma = DecayVector([0.2, 0.5])
        full = propagate_density(h, gamma, DensityMatrix.pure(psi0), grid)
        scaled = propagate_density(h, gamma, DensityMatrix(0.8 * DensityMatrix.pure(psi0).entries),
                                   grid)
        assert np.allclose(scaled.populations, 0.8 * full.populations, rtol=0, atol=1e-14)
        assert scaled.norms_sq[0] == pytest.approx(0.8, abs=1e-15)


def rk45_reference(rhs, y0, grid, breakpoints=()):
    """Independent oracle: scipy RK45 at rtol 1e-10 (atol 1e-12), restarted at
    every breakpoint."""
    samples = grid.times
    cuts = np.unique([grid.t_start, grid.t_end,
                      *[b for b in breakpoints if grid.t_start < b < grid.t_end]])
    out = np.empty((samples.size, y0.size), dtype=complex)
    out[0] = y0
    y = y0
    for a, b in zip(cuts[:-1], cuts[1:]):
        inside = (samples > a) & (samples <= b)
        sol = solve_ivp(rhs, (a, b), y, method="RK45", rtol=1e-10, atol=1e-12,
                        t_eval=np.unique(np.append(samples[inside], b)))
        assert sol.success, sol.message
        out[inside] = sol.y[:, :np.count_nonzero(inside)].T
        y = sol.y[:, -1]
    return out


# A run that certifies its coarse step pair has its populations at both
# ends and every breakpoint checked, as two second-order step counts
# agreeing within tol / 2 (an estimate; phases and coherences are not
# covered); an uncertified run takes the heuristic step count, whose error
# is not checked (ROADMAP item 1).  These cells pin where the final target
# population of a public propagate_density call lands against the same core
# at 200k steps.  The three xfail cells are short chainwise pulses (coupling
# ratio 10-15, R**4 * tol = 0.01, 0.28 and 0.56) that stay outside the gate,
# on the heuristic count, and measure 3.75, 4.31 and 5.27 x tol.  M5* and
# the two long cells certify and stay far inside tol.  The next two cells
# (R**4 * tol = 1.56 and 1.04) certify because the 3.5 pi row's gate opens
# at R**4 * tol >= 0.9, not 3.6; they measure 0.18 and 0.26 x tol.  The
# last two return their 5.5 pi run, checked on the 7.5 pi row
# (R**4 * tol = 3.53) and on the 13.5 pi row (15.6), and measure 0.056 and
# 0.008 x tol.  For the second, the 3.5 pi and 5.5 pi runs together cost
# more than the heuristic count, the 5.5 pi and 13.5 pi runs less.
_TOL_CELLS = [
    pytest.param("chainwise", 1.0, 1000 * np.pi, 1e-6, id="chainwise-1us-1000pi",
                 marks=pytest.mark.xfail(strict=True, reason="error 3.75 x tol")),
    pytest.param("chainwise", 1.0, 2333 * np.pi, 5e-6, id="chainwise-1us-2333pi-tol-5e-6",
                 marks=pytest.mark.xfail(strict=True, reason="error 4.31 x tol")),
    pytest.param("chainwise", 1.0, 2333 * np.pi, 1e-5, id="chainwise-1us-2333pi-tol-1e-5",
                 marks=pytest.mark.xfail(strict=True, reason="error 5.27 x tol")),
    pytest.param("chainwise", *CHAIN_STAR[:2], 6.3e-6, id="m5-star-tol-6.3e-6"),
    pytest.param("chainwise", 8.0, 5000 * np.pi, 1e-6, id="chainwise-8us-5000pi"),
    pytest.param("p2", 6.0, 5000 * np.pi, 1e-6, id="p2-6us-5000pi"),
    pytest.param("chainwise", 3.4, 3600 * np.pi, 1e-6, id="chainwise-3.4us-3600pi"),
    pytest.param("chainwise", 1.0, 1000 * np.pi, 1e-4, id="chainwise-1us-1000pi-tol-1e-4"),
    pytest.param("chainwise", 8.0, 2300 * np.pi, 1e-6, id="chainwise-8us-2300pi"),
    pytest.param("chainwise", 3.4, 3600 * np.pi, 1e-5, id="chainwise-3.4us-3600pi-tol-1e-5"),
]


def _cell(protocol, t_f, delta):
    """A map cell's schedule and decays, as the efficiency sweep designs it."""
    if protocol == "chainwise":
        return design_chainwise(t_f, delta, CHAIN_STAR[2]), M_DECAYS
    if protocol == "p1":
        return design_protocol1(t_f, delta), LAMBDA_DECAYS
    return design_protocol2(t_f, delta), LAMBDA_DECAYS


def _final_run(sched, decays, tol):
    h = hamiltonian_rule(sched)
    return propagate_density(h, DecayVector(decays),
                             DensityMatrix.pure(StateVector.basis(h.dimension, 0)),
                             TimeGrid(0.0, sched.duration, 2), tol=tol,
                             breakpoints=sched.breakpoints)


@pytest.mark.parametrize("protocol, t_f, delta, tol", _TOL_CELLS)
def test_final_population_within_tol(protocol, t_f, delta, tol):
    sched, decays = _cell(protocol, t_f, delta)
    h = hamiltonian_rule(sched)
    target = h.dimension - 1
    grid = TimeGrid(0.0, sched.duration, 2)
    got = _final_run(sched, decays, tol)
    edges, sample_idx = qcore._magnus_nodes(grid, sched.breakpoints, 200_000)
    u = qcore._walk(h, np.array(decays), np.eye(h.dimension), edges, sample_idx)[-1]
    assert abs(got.populations[-1, target] - abs(u[target, 0]) ** 2) <= tol


def _gate_open(h, grid, gamma, tol):
    """Whether R**4 * tol clears the gate of some row of ``qcore._CHECKS``."""
    _, _, ratio = qcore._checked_action(h, grid, np.array(gamma))
    return any(ratio**4 * tol >= gate for _, gate, _ in qcore._CHECKS)


class TestStepPair:
    """Which runs take the certified coarse step pair, and what the others keep."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """(step edges, commutator flag) of the walks each propagation makes, in order."""
        taken = []
        walk = qcore._walk

        def recorded(h, gamma, psi0, edges, stops, commutator=True):
            taken.append((edges, commutator))
            return walk(h, gamma, psi0, edges, stops, commutator)

        monkeypatch.setattr(qcore, "_walk", recorded)
        return taken

    @staticmethod
    def heuristic(monkeypatch, run):
        """``run()`` with no check rows, so that it takes the heuristic count."""
        with monkeypatch.context() as m:
            m.setattr(qcore, "_CHECKS", ())
            return run()

    @staticmethod
    def grid_of(sched, decays, phase):
        """(rate, step edges, sample indices) of the end-sampled grid at
        ``phase`` per uniform step."""
        h = hamiltonian_rule(sched)
        grid = TimeGrid(0.0, sched.duration, 2)
        _, rate, _ = qcore._checked_action(h, grid, np.array(decays))
        return (rate, *qcore._magnus_nodes(grid, sched.breakpoints,
                                           int(np.ceil(rate * sched.duration / phase))))

    def assert_walked(self, walks, sched, decays, phases):
        """The walks are second-order runs on the grids of ``phases``, in order."""
        assert len(walks) == len(phases)
        assert [commutator for _, commutator in walks] == [False] * len(phases)
        for (edges, _), phase in zip(walks, phases):
            assert np.array_equal(edges, self.grid_of(sched, decays, phase)[1])

    def assert_rung_certified(self, walks, sched, decays, got, rung):
        """The run walked 5.5 pi, then ``rung``, and returned the 5.5 pi walk."""
        fine = qcore._KEPT_PHASE
        self.assert_walked(walks, sched, decays, [fine, rung])
        h = hamiltonian_rule(sched)
        grid = TimeGrid(0.0, sched.duration, 2)
        rate, edges, sample_idx = self.grid_of(sched, decays, fine)
        want = qcore._walk(h, np.array(decays), np.eye(h.dimension)[:, 0], edges, sample_idx,
                           commutator=False)
        assert np.max(np.abs(got.states - want)) <= 1e-12
        # On the walked grids: each segment is cut more finely by the first
        # run, and the uniform (largest) step of every segment turns at most
        # its target phase and stays 0.5 pi or more from every 2 pi k.
        segs = qcore._segment_edges(grid, sched.breakpoints)
        profiles = []
        for (edges, _), phase in zip(walks, (fine, rung)):
            starts = np.searchsorted(edges, segs)
            turned = rate * np.maximum.reduceat(np.diff(edges), starts[:-1])
            assert np.all(turned <= phase * (1 + 1e-12))
            off = np.abs(turned - 2 * np.pi * np.round(turned / (2 * np.pi)))
            assert np.all(off >= 0.5 * np.pi * (1 - 1e-9))
            profiles.append(np.diff(starts))
        assert np.all(profiles[0] > profiles[1])

    def test_certified_run_returns_the_finer_of_two_grids(self, walks):
        # R**4 * tol clears the 13.5 pi row's gate: the 5.5 pi run is
        # checked against the 13.5 pi run, and the 3.5 pi run is not walked.
        sched, decays = _cell("chainwise", 8.0, 5000 * np.pi)
        got = _final_run(sched, decays, 1e-6)
        self.assert_rung_certified(walks, sched, decays, got, 13.5 * np.pi)

    def test_mid_margin_run_checks_on_the_7_5pi_rung(self, walks):
        sched, decays = _cell("chainwise", 8.0, 2300 * np.pi)
        _, _, ratio = qcore._checked_action(hamiltonian_rule(sched),
                                            TimeGrid(0.0, sched.duration, 2), np.array(decays))
        assert 2.0 <= ratio**4 * 1e-6 < 2 * 3.3
        got = _final_run(sched, decays, 1e-6)
        self.assert_rung_certified(walks, sched, decays, got, 7.5 * np.pi)

    def test_failed_rung_check_falls_back_to_the_pair(self, walks, monkeypatch):
        # R**4 * tol = 1.56 clears no coarse row's gate; with the 13.5 pi
        # row's gate forced open, its check disagrees, and the 3.5 pi run
        # is checked against the same 5.5 pi walk, bit for bit the run of
        # the 3.5 pi row alone.
        sched, decays = _cell("chainwise", 3.4, 3600 * np.pi)
        finer = qcore._CHECKS[-1]
        assert finer[0] == 3.5 * np.pi
        with monkeypatch.context() as m:
            m.setattr(qcore, "_CHECKS", ((13.5 * np.pi, 0.0, 14), finer))
            got = _final_run(sched, decays, 1e-6)
        self.assert_walked(walks, sched, decays, [5.5 * np.pi, 13.5 * np.pi, 3.5 * np.pi])
        walks.clear()
        with monkeypatch.context() as m:
            m.setattr(qcore, "_CHECKS", (finer,))
            want = _final_run(sched, decays, 1e-6)
        self.assert_walked(walks, sched, decays, [5.5 * np.pi, 3.5 * np.pi])
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.breakpoint_states, want.breakpoint_states)

    @pytest.mark.parametrize("protocol, t_f, delta, tol, n_samples, roundtrip_hold", [
        ("chainwise", 8.0, 5000 * np.pi, 1e-6, 41, None),
        ("p2", 1.0, 1000 * np.pi, 1e-4, 401, None),
        ("chainwise", 8.0, 5000 * np.pi, 1e-6, 1201, None),
        ("chainwise", 8.0, 5000 * np.pi, 1e-6, 1201, 0.1),
    ], ids=["chainwise-41-samples", "p2-401-samples", "chainwise-default-samples",
            "chainwise-default-samples-roundtrip"])
    def test_inner_samples_do_not_take_the_pair(self, walks, monkeypatch, protocol, t_f, delta,
                                                tol, n_samples, roundtrip_hold):
        # The gate is open, but the pair's check was fitted on runs sampled
        # at their ends only.  At 41 samples this run's pair would disagree
        # at inner samples; at 401 the two counts would walk one grid.
        _, decays = _cell(protocol, t_f, delta)

        def run():
            return run_scenario(protocol, t_f, delta, DecayVector(decays), tol=tol,
                                roundtrip_hold=roundtrip_hold, n_samples=n_samples)

        got = run()
        sched = got.schedule
        assert _gate_open(hamiltonian_rule(sched), TimeGrid(0.0, sched.duration, n_samples),
                          decays, tol)
        assert len(walks) == 1 and walks[0][1]
        assert np.array_equal(got.populations, self.heuristic(monkeypatch, run).populations)

    @pytest.mark.parametrize("protocol, star", [("p1", P1_STAR), ("p2", P2_STAR),
                                                ("chainwise", CHAIN_STAR[:2])],
                             ids=["p1-star", "p2-star", "m5-star"])
    def test_gate_closed_runs_are_the_heuristic_run(self, walks, monkeypatch, protocol, star):
        sched, decays = _cell(protocol, *star)
        got = _final_run(sched, decays, 1e-8)
        assert len(walks) == 1 and walks[0][1]
        want = self.heuristic(monkeypatch, lambda: _final_run(sched, decays, 1e-8))
        assert np.array_equal(got.states, want.states)

    def test_short_segment_does_not_take_the_pair(self, walks, monkeypatch):
        # A breakpoint 1e-4 us before the end leaves a segment the coarse
        # counts would cut into fewer than every row's minimum steps, whose
        # phase the segment, not the target, would set.
        sched, decays = _cell("chainwise", 8.0, 5000 * np.pi)
        h = hamiltonian_rule(sched)

        def run():
            return propagate_density(h, DecayVector(decays),
                                     DensityMatrix.pure(StateVector.basis(h.dimension, 0)),
                                     TimeGrid(0.0, sched.duration, 2), tol=1e-6,
                                     breakpoints=[*sched.breakpoints, sched.duration - 1e-4])

        got = run()
        assert len(walks) == 1 and walks[0][1]
        assert np.array_equal(got.states, self.heuristic(monkeypatch, run).states)

    def test_disagreeing_pair_runs_the_heuristic_count(self, walks, monkeypatch):
        sched, decays = _cell("chainwise", 8.0, 5000 * np.pi)
        monkeypatch.setattr(qcore, "_PAIR_AGREEMENT", 0.0)
        got = _final_run(sched, decays, 1e-6)
        assert len(walks) == 4
        # The 5.5 pi run, its 13.5 pi check and the 3.5 pi run, all second
        # order, then the heuristic count with the commutator.
        self.assert_walked(walks[:3], sched, decays, [5.5 * np.pi, 13.5 * np.pi, 3.5 * np.pi])
        want = self.heuristic(monkeypatch, lambda: _final_run(sched, decays, 1e-6))
        # The heuristic count once after the checks and once with the gate shut.
        assert [commutator for _, commutator in walks] == [False, False, False, True, True]
        assert np.array_equal(walks[3][0], walks[4][0])
        assert np.array_equal(got.states, want.states)

    def test_over_budget_rows_build_no_edges(self, walks, monkeypatch):
        # The 13.5 pi row's gate is open here, but its run and the 5.5 pi
        # run target about 0.71M + 1.74M steps, past the heuristic count's
        # 200k cap: only the heuristic run's step edges are built.
        sched, decays = _cell("p2", 1.0, 3e7)
        h = hamiltonian_rule(sched)
        grid = TimeGrid(0.0, sched.duration, 2)
        action, _, ratio = qcore._checked_action(h, grid, np.array(decays))
        assert ratio**4 * 1e-6 >= qcore._CHECKS[0][1]
        targets = []
        nodes = qcore._magnus_nodes

        def recorded(grid, breakpoints, n_target):
            targets.append(n_target)
            return nodes(grid, breakpoints, n_target)

        monkeypatch.setattr(qcore, "_magnus_nodes", recorded)
        got = _final_run(sched, decays, 1e-6)
        assert targets == [qcore._magnus_step_count(1e-6, action)] == [200_000]
        assert len(walks) == 1 and walks[0][1]
        want = self.heuristic(monkeypatch, lambda: _final_run(sched, decays, 1e-6))
        assert np.array_equal(got.states, want.states)

    @pytest.mark.parametrize("t_f, delta, tol", [(3.4, 3600 * np.pi, 1e-6),
                                                 (1.0, 1000 * np.pi, 1e-4)],
                             ids=["chainwise-3.4us-3600pi", "chainwise-1us-1000pi-tol-1e-4"])
    def test_gate_admits_tol_over_two(self, walks, t_f, delta, tol):
        # R**4 * tol is 1.56 and 1.04 here: inside the 3.5 pi row's gate at
        # tol / 2 (0.9), but outside a gate at tol / 8 (3.6) and below every
        # coarser row's gate.  Both certify on the 3.5 pi run.
        sched, decays = _cell("chainwise", t_f, delta)
        _, _, ratio = qcore._checked_action(hamiltonian_rule(sched),
                                            TimeGrid(0.0, sched.duration, 2), np.array(decays))
        assert qcore._CHECKS[-1][1] <= ratio**4 * tol < 8 * 0.45
        _final_run(sched, decays, tol)
        self.assert_walked(walks, sched, decays, [5.5 * np.pi, 3.5 * np.pi])


def _per_gap_nodes(grid, breakpoints, n_target):
    """The step edges and sample indices of ``qcore._magnus_nodes``, built by
    one loop pass per gap between samples and breakpoints."""
    samples = grid.times
    pts = [grid.t_start, grid.t_end]
    for b in () if breakpoints is None else breakpoints:
        if grid.t_start < b < grid.t_end:
            pts.append(float(b))
    pts = np.array(sorted(pts))
    duration = grid.duration
    segs = pts[np.concatenate(([True], np.diff(pts) > 1e-12 * duration))]
    anchors = np.unique(np.concatenate([samples, segs]))
    steps = np.maximum(1, np.ceil(n_target * np.diff(anchors) / duration)).astype(int)
    ratios = np.cumsum(1.6 ** np.arange(16))
    ratios /= ratios[-1]
    parts = [np.array([anchors[0]])]
    for a, b, k in zip(anchors[:-1], anchors[1:], steps):
        interior = [np.linspace(a, b, k + 1)[1:-1]]
        sub = (b - a) / k
        if np.any(np.abs(segs - a) <= 1e-12 * duration):
            interior.append(a + sub * ratios[:-1])
        if np.any(np.abs(segs - b) <= 1e-12 * duration):
            interior.append(b - sub * ratios[:-1])
        inside = np.unique(np.concatenate(interior))
        parts.append(inside[(inside > a) & (inside < b)])
        parts.append(np.array([b]))
    edges = np.concatenate(parts)
    return edges, np.searchsorted(edges, samples)


class TestMagnusNodes:
    """Whole-array step planning against the per-gap loop, bit for bit."""

    @staticmethod
    def assert_same_nodes(grid, breakpoints, n_target):
        edges, sample_idx = qcore._magnus_nodes(grid, breakpoints, n_target)
        want_edges, want_idx = _per_gap_nodes(grid, breakpoints, n_target)
        assert edges.dtype == want_edges.dtype and edges.shape == want_edges.shape
        assert np.array_equal(edges.view(np.int64), want_edges.view(np.int64))
        assert np.array_equal(sample_idx, want_idx)
        assert np.array_equal(edges[sample_idx], grid.times)

    @pytest.mark.parametrize("breakpoints", [None, (4.0,), (4.0, 4.1), (1.234567,)],
                             ids=["none", "4.0", "4.0-4.1", "1.234567"])
    @pytest.mark.parametrize("n_samples", [2, 3, 41, 1201])
    def test_matches_per_gap_loop(self, n_samples, breakpoints):
        grid = TimeGrid(0.0, 8.2, n_samples)
        for n_target in (1024, 5000, 50_000, 200_000):
            self.assert_same_nodes(grid, breakpoints, n_target)

    def test_matches_per_gap_loop_on_random_grids(self):
        # Windows from 1e-6 to 1e3 us anywhere near 0, breakpoints inside,
        # outside and on the ends, and breakpoints on, one ulp past and
        # 3e-13 of the window past a sample.
        rng = np.random.default_rng(27)
        for _ in range(200):
            t0 = rng.uniform(-5.0, 5.0)
            duration = 10.0 ** rng.uniform(-6.0, 3.0)
            grid = TimeGrid(t0, t0 + duration, int(rng.integers(2, 300)))
            breakpoints = list(t0 + duration * rng.uniform(-0.1, 1.1, rng.integers(0, 5)))
            if rng.random() < 0.2:
                breakpoints.append(rng.choice([grid.t_start, grid.t_end]))
            if rng.random() < 0.4 and grid.n_samples > 2:
                s = grid.times[rng.integers(1, grid.n_samples - 1)]
                breakpoints += [s, np.nextafter(s, np.inf), s + 3e-13 * duration]
            self.assert_same_nodes(grid, breakpoints, int(rng.integers(1, 50_000)))


@settings(max_examples=16, derandomize=True, deadline=None)
@given(protocol=st.sampled_from(["p2", "chainwise"]), tf_frac=st.floats(0.0, 1.0),
       delta_frac=st.floats(0.0, 1.0), log_tol=st.floats(-7.0, np.log10(5e-6)))
def test_gated_populations_within_tol_of_eight_times_the_steps(protocol, tf_frac, delta_frac,
                                                               log_tol):
    # Map-domain cells: p2 t_f 1-6 us, chainwise 1-8 us, delta 1000pi-5000pi.
    t_f = 1.0 + tf_frac * (5.0 if protocol == "p2" else 7.0)
    delta = (1000.0 + 4000.0 * delta_frac) * np.pi
    tol = 10.0**log_tol
    sched, decays = _cell(protocol, t_f, delta)
    h = hamiltonian_rule(sched)
    grid = TimeGrid(0.0, sched.duration, 2)
    assume(_gate_open(h, grid, decays, tol))
    got = _final_run(sched, decays, tol)
    action, _, _ = qcore._checked_action(h, grid, np.array(decays))
    edges, sample_idx = qcore._magnus_nodes(grid, sched.breakpoints,
                                            8 * qcore._magnus_step_count(tol, action))
    u = qcore._walk(h, np.array(decays), np.eye(h.dimension)[:, 0], edges, sample_idx)
    assert np.max(np.abs(got.populations - np.abs(u) ** 2)) <= tol


class TestBackEndEquivalence:
    def test_cross_method_full_model(self):
        # Medium-stiffness lossy ladder: Magnus populations match RK45.
        from chainwise_sta import LambdaParams, build_lambda

        h = build_lambda(LambdaParams(lambda t: 8.0 * np.sin(np.pi * t / 4.0) ** 2,
                                      lambda t: 8.0 * np.sin(np.pi * t / 4.0) ** 2,
                                      delta_single=200.0))
        grid = TimeGrid(0.0, 4.0, 81)
        rho0 = DensityMatrix.pure(StateVector.basis(3, 0))
        gam = DecayVector([0.0, 2.0, 0.0])
        loss = -0.5j * np.diag(gam.rates)

        def rhs(t, y):
            rho = y.reshape(3, 3)
            heff = h(t) + loss
            return (-1j * (heff @ rho - rho @ heff.conj().T)).ravel()

        ref = rk45_reference(rhs, rho0.entries.ravel(), grid).reshape(-1, 3, 3)
        got = propagate_density(h, gam, rho0, grid, tol=1e-10)
        ref_pops = np.real(np.diagonal(ref, axis1=1, axis2=2))
        assert np.max(np.abs(ref_pops - got.populations)) < 1e-7

    @pytest.mark.parametrize("case", ["p2_roundtrip", "chainwise_star"])
    def test_cross_method_with_breakpoints(self, case, p2_schedule, chain_schedule):
        # Eliminated-frame rules.  The p2 forward/hold/return schedule checks
        # segment handling at breakpoints; the chainwise leg at CHAIN_STAR,
        # started in its invariant eigenstate, is the transport call of
        # acceptance criterion 5.
        from chainwise_sta import build_roundtrip, eigenstates3
        from chainwise_sta.protocols import effective_rule

        if case == "p2_roundtrip":
            sched, n_samples, final_level = build_roundtrip(p2_schedule, 0.1), 163, 0
            psi0 = StateVector.basis(2, 0)
        else:
            sched, n_samples, final_level = chain_schedule, 401, 2
            psi0 = eigenstates3(chain_schedule.design["aux"], 0.0)[0]
        h = effective_rule(sched)
        grid = TimeGrid(0.0, sched.duration, n_samples)
        ref = rk45_reference(lambda t, y: -1j * (h(t) @ y), psi0.amplitudes, grid,
                             sched.breakpoints)
        got = propagate_state(h, psi0, grid, tol=1e-10, breakpoints=sched.breakpoints)
        assert np.max(np.abs(np.abs(ref) ** 2 - got.populations)) < 1e-7
        # The transfer completes: the round trip repopulates the initial
        # level, the one-way chainwise leg fills the target level.
        assert np.abs(ref[-1, final_level]) ** 2 > 0.999


class TestMagnusKernel:
    @pytest.mark.parametrize("n", [3, 5])
    def test_expm_batch_matches_scipy(self, n):
        # Lossy generators -i H - diag(gamma)/2 with norms from 1e-3 to 60 in
        # one batch (they share the scaling power), plus a zero matrix.
        rng = np.random.default_rng(n)
        m = 40
        h = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
        h = h + np.swapaxes(h, 1, 2).conj()
        gamma = rng.uniform(0.0, 2.0, size=(m, n))
        a = -1j * h - 0.5 * gamma[:, :, None] * np.eye(n)
        norms = np.geomspace(1e-3, 60.0, m)
        a *= (norms / np.max(np.sum(np.abs(a), axis=-1), axis=-1))[:, None, None]
        a[0] = 0.0
        got = qcore._expm_batch(a.transpose(1, 2, 0)).transpose(2, 0, 1)
        want = np.array([scipy.linalg.expm(x) for x in a])
        rel = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
        assert np.max(rel) <= 1e-13
        assert np.array_equal(qcore._expm_batch(np.zeros((n, n, 1)))[:, :, 0], np.eye(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("batch", [(0,), (1,), (7,), (3, 5)],
                             ids=["empty", "one", "odd", "2d"])
    def test_matmul_matches_numpy(self, n, batch):
        # The entries-first product against np.matmul on matrix-last stacks.
        rng = np.random.default_rng(10 * n + len(batch))
        a = rng.normal(size=batch + (n, n)) + 1j * rng.normal(size=batch + (n, n))
        b = rng.normal(size=batch + (n, n)) + 1j * rng.normal(size=batch + (n, n))
        got = qcore._matmul(np.moveaxis(a, (-2, -1), (0, 1)), np.moveaxis(b, (-2, -1), (0, 1)))
        want = np.moveaxis(a @ b, (-2, -1), (0, 1))
        scale = np.moveaxis(np.abs(a) @ np.abs(b), (-2, -1), (0, 1))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matmul_bitwise_equals_entry_sums(self, n):
        # Each entry is the left-to-right sum over j of a[i, j] * b[j, l],
        # bit for bit, whether the result and scratch are fresh, reused, or
        # [:, :, :m] views of larger buffers.
        rng = np.random.default_rng(n)

        def stack(m):
            return rng.normal(size=(n, n, m)) + 1j * rng.normal(size=(n, n, m))

        def reference(a, b):
            want = np.empty(a.shape, dtype=complex)
            for i in range(n):
                for col in range(n):
                    acc = a[i, 0] * b[0, col]
                    for j in range(1, n):
                        acc = acc + a[i, j] * b[j, col]
                    want[i, col] = acc
            return want

        a, b = stack(37), stack(37)
        assert np.array_equal(qcore._matmul(a, b), reference(a, b))
        out, term = np.empty_like(a), np.empty_like(a)
        for _ in range(2):
            a, b = stack(37), stack(37)
            assert qcore._matmul(a, b, out, term) is out
            assert np.array_equal(out, reference(a, b))
        big = np.full((3, n, n, 64), np.nan, dtype=complex)
        a, b = big[0, :, :, :29], big[1, :, :, :29]
        a[...], b[...] = stack(29), stack(29)
        got = qcore._matmul(a, b, big[2, :, :, :29], np.empty((n, n, 29), dtype=complex))
        assert np.array_equal(got, reference(a, b))
        assert np.all(np.isnan(big[2, :, :, 29:]))

    @pytest.mark.parametrize("n", [3, 5])
    def test_expm_batch_workspace_reuse_bitwise(self, n):
        # Blocks of 40, 40 and a short 13 through one reused workspace give
        # the bytes of fresh per-block calls, and leave the input unchanged.
        rng = np.random.default_rng(7 + n)
        h = rng.normal(size=(n, n, 93)) + 1j * rng.normal(size=(n, n, 93))
        a = -1j * (h + h.transpose(1, 0, 2).conj()) * np.geomspace(1e-2, 20.0, 93)
        a_before = a.copy()
        work = qcore._workspace(n, 40)
        for c0 in (0, 40, 80):
            block = a[:, :, c0:c0 + 40]
            got = qcore._expm_batch(block, work[..., :block.shape[2]])
            assert np.array_equal(got, qcore._expm_batch(block))
        assert np.array_equal(a, a_before)

    def test_sample_propagators_workspace_reuse_bitwise(self, monkeypatch):
        # Two and a half blocks share one workspace; giving every block a
        # fresh one must not change a byte.
        def evaluate(t):
            t_arr = np.asarray(t, dtype=float)
            out = np.zeros(t_arr.shape + (5, 5), dtype=complex)
            for k in range(4):
                out[..., k, k + 1] = out[..., k + 1, k] = (k + 2.0) * np.sin((k + 1) * t_arr)
            out[..., 1, 1] = out[..., 3, 3] = 40.0
            return out

        h = HamiltonianRule(5, evaluate)
        gamma = np.array([0.01, 30.0, 0.01, 30.0, 0.0])
        chunk = qcore._BLOCK_ENTRIES // 25
        n_steps = 2 * chunk + chunk // 2
        edges = np.linspace(0.0, 2.0, n_steps + 1)
        sample_idx = np.array([0, 5, chunk + 3, n_steps])
        blocks = qcore._magnus_propagators
        for commutator in (True, False):
            shared = qcore._walk(h, gamma, np.eye(5), edges, sample_idx, commutator)
            flags = []

            def fresh_block(h, gamma, edges, work, commutator):
                flags.append(commutator)
                return blocks(h, gamma, edges, commutator=commutator)

            with monkeypatch.context() as m:
                m.setattr(qcore, "_magnus_propagators", fresh_block)
                fresh = qcore._walk(h, gamma, np.eye(5), edges, sample_idx, commutator)
            assert flags == [commutator] * 3
            assert np.array_equal(shared, fresh)

    @staticmethod
    def _walk_blocks(monkeypatch, n, n_steps):
        # (steps, workspace shape, C-contiguous) of every block of one walk.
        rng = np.random.default_rng(n)
        coef = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
        coef = coef + np.swapaxes(coef, 1, 2).conj()

        def evaluate(t):
            return coef[0] + coef[1] * np.sin(np.asarray(t, dtype=float))[..., None, None]

        blocks, inner = [], qcore._magnus_propagators

        def record(h, gamma, edges, work, commutator):
            blocks.append((edges.size - 1, work.shape, work.flags.c_contiguous))
            return inner(h, gamma, edges, work, commutator)

        monkeypatch.setattr(qcore, "_magnus_propagators", record)
        qcore._walk(HamiltonianRule(n, evaluate), None, np.eye(n),
                    np.linspace(0.0, 1.0, n_steps + 1), np.array([0, n_steps]))
        return blocks

    @pytest.mark.parametrize("n", [3, 5])
    def test_every_block_works_in_one_contiguous_slab(self, n, monkeypatch):
        # The short last block too: a column slice of wider stacks is not
        # C-contiguous, and its steps took twice as long.
        block = qcore._BLOCK_ENTRIES // n**2
        got = self._walk_blocks(monkeypatch, n, 2 * block + block // 3)
        assert got == [(m, (qcore._WORK_STACKS, n, n, m), True)
                       for m in (block, block, block // 3)]

    @pytest.mark.parametrize("n, block", [(2, 12_800), (3, 5_688), (5, 2_048)])
    def test_block_length_follows_the_entry_budget(self, n, block, monkeypatch):
        # 51,200 entries per workspace stack whatever n is.
        got = self._walk_blocks(monkeypatch, n, 3 * block + 1)
        assert [steps for steps, _, _ in got] == [block] * 3 + [1]

    @pytest.mark.parametrize("n", [3, 5])
    def test_second_order_propagators_match_scipy(self, n):
        # Without the commutator each step is exp(-i dt (h1 + h2) / 2 -
        # dt diag(gamma) / 2), h1 and h2 at the two Gauss nodes.
        rng = np.random.default_rng(20 + n)
        coef = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        coef = coef + np.swapaxes(coef, 1, 2).conj()

        def evaluate(t):
            t_arr = np.asarray(t, dtype=float)[..., None, None]
            return coef[0] + coef[1] * np.sin(3.0 * t_arr) + coef[2] * t_arr**2

        h = HamiltonianRule(n, evaluate)
        gamma = rng.uniform(0.0, 5.0, size=n)
        edges = np.sort(rng.uniform(0.0, 2.0, size=17))
        got = qcore._magnus_propagators(h, gamma, edges, commutator=False).transpose(2, 0, 1)
        want = []
        for a, b in zip(edges[:-1], edges[1:]):
            dt = b - a
            h1, h2 = evaluate(a + qcore._GL_C1 * dt), evaluate(a + qcore._GL_C2 * dt)
            want.append(scipy.linalg.expm(-1j * dt * (h1 + h2) / 2 - dt * np.diag(gamma) / 2))
        want = np.array(want)
        rel = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
        assert np.max(rel) <= 1e-13

    @pytest.mark.parametrize("length", [1, 2, 3, 7])
    def test_ordered_product_matches_sequential(self, length):
        # Two independent chains of length matrices, reduced together.
        rng = np.random.default_rng(length)
        x = rng.normal(size=(2, length, 4, 4)) + 1j * rng.normal(size=(2, length, 4, 4))
        got = qcore._ordered_product(x.transpose(2, 3, 1, 0))
        for c in range(2):
            want = np.eye(4)
            for k in range(length):
                want = x[c, k] @ want
            assert np.max(np.abs(got[:, :, c] - want)) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("batch", [(), (3,), (40,)], ids=["one", "three", "forty"])
    def test_tree_matches_sequential_product(self, n, batch):
        # Pieces of 1 to 70 unitary steps, one, three or forty at a time:
        # levels under _TAIL_ENTRIES take the stacked product, and forty
        # long pieces start on _matmul.
        rng = np.random.default_rng(10 * n + len(batch))
        for length in range(1, 71):
            z = rng.normal(size=batch + (length, n, n)) + 1j * rng.normal(size=batch + (length, n, n))
            x = np.linalg.qr(z)[0]
            want = np.broadcast_to(np.eye(n, dtype=complex), batch + (n, n))
            for k in range(length):
                want = x[..., k, :, :] @ want
            got = qcore._ordered_product(np.moveaxis(x, (-3, -2, -1), (2, 0, 1)))
            err = np.linalg.norm(np.moveaxis(got, (0, 1), (-2, -1)) - want, axis=(-2, -1))
            assert np.max(err) <= 1e-13 * np.sqrt(n), length

    @pytest.mark.parametrize("n", [3, 5])
    def test_matmul_never_takes_a_stack_under_the_tail_threshold(self, n, monkeypatch):
        # Two and a half blocks, the first cut into pieces of 5 and
        # block - 5 steps: every product smaller than _TAIL_ENTRIES, the
        # short pieces' whole trees and every tree's last levels, goes to
        # the stacked product instead.
        block = qcore._BLOCK_ENTRIES // n**2
        n_steps = 2 * block + block // 2
        rng = np.random.default_rng(n)
        coef = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
        coef = coef + np.swapaxes(coef, 1, 2).conj()

        def evaluate(t):
            return coef[0] + coef[1] * np.sin(np.asarray(t, dtype=float))[..., None, None]

        sizes, stacked = [], []
        matmul, product = qcore._matmul, qcore._product

        def record_matmul(a, b, out=None, term=None):
            sizes.append(out.size)
            return matmul(a, b, out, term)

        def record_product(a, b, out, term):
            stacked.append(out.size < qcore._TAIL_ENTRIES)
            return product(a, b, out, term)

        monkeypatch.setattr(qcore, "_matmul", record_matmul)
        monkeypatch.setattr(qcore, "_product", record_product)
        qcore._walk(HamiltonianRule(n, evaluate), np.linspace(0.0, 1.0, n), np.eye(n),
                    np.linspace(0.0, 1.0, n_steps + 1), np.array([0, 5, block + 3, n_steps]))
        assert sizes and min(sizes) >= qcore._TAIL_ENTRIES
        assert any(stacked)

    @pytest.mark.parametrize("n", [3, 5])
    def test_diagonal_is_a_view_of_every_stack_the_walk_hands_it(self, n, monkeypatch):
        # Lossy steps, so the generator takes diagonal views too; each view
        # starts at entry (0, 0) of the stack's own memory and steps one row
        # and one column at a time.
        block = qcore._BLOCK_ENTRIES // n**2
        n_steps = 2 * block + block // 3
        seen, diagonal = [], qcore._diagonal

        def record(x):
            d = diagonal(x)
            seen.append((d.shape == (n,) + x.shape[2:], d.flags.writeable,
                         d.__array_interface__["data"][0] == x.__array_interface__["data"][0],
                         d.strides == (x.strides[0] + x.strides[1],) + x.strides[2:]))
            return d

        monkeypatch.setattr(qcore, "_diagonal", record)
        h = HamiltonianRule(n, lambda t: np.diag(np.arange(n) * 40.0) * np.cos(
            np.asarray(t, dtype=float))[..., None, None] + np.ones((n, n)))
        qcore._walk(h, np.linspace(0.0, 2.0, n), np.eye(n), np.linspace(0.0, 3.0, n_steps + 1),
                    np.array([0, 7, n_steps]))
        assert len(seen) >= 3 * 6
        assert all(all(checks) for checks in seen)

    def test_diagonal_writes_reach_the_stack_or_raise(self):
        x = np.zeros((3, 3, 8), dtype=complex)
        d = qcore._diagonal(x[:, :, 2:7])
        d += 1.0
        assert np.array_equal(x[:, :, 2:7], np.broadcast_to(np.eye(3)[:, :, None], (3, 3, 5)))
        assert not np.any(x[:, :, :2]) and not np.any(x[:, :, 7:])
        with pytest.raises(ValueError, match="no diagonal view"):
            qcore._diagonal(x.transpose(1, 0, 2))

    def test_sample_propagators_match_sequential_product(self):
        # Three and a half blocks of steps; samples one step in, inside a
        # block, on both sides of a block edge and exactly on it, and one
        # gap that runs through a whole block into the next.
        def evaluate(t):
            t_arr = np.asarray(t, dtype=float)
            out = np.zeros(t_arr.shape + (3, 3), dtype=complex)
            om = 4.0 * np.sin(0.9 * t_arr) ** 2
            out[..., 0, 1] = out[..., 1, 0] = om
            out[..., 1, 2] = 3.0 * np.exp(0.4j * t_arr)
            out[..., 2, 1] = np.conj(out[..., 1, 2])
            out[..., 1, 1] = 25.0
            out[..., 2, 2] = 0.5 * t_arr
            return out

        h = HamiltonianRule(3, evaluate)
        gamma = np.array([0.0, 1.5, 0.2])
        chunk = qcore._BLOCK_ENTRIES // 9
        n_steps = 3 * chunk + chunk // 2
        edges = np.linspace(0.0, 3.0, n_steps + 1)
        sample_idx = np.array([0, 1, 17, chunk - 1, chunk, chunk + 5, 3 * chunk + 3, n_steps])
        got = qcore._walk(h, gamma, np.eye(3), edges, sample_idx)

        u = qcore._magnus_propagators(h, gamma, edges)
        want, acc = [np.eye(3)], np.eye(3)
        for k in range(n_steps):
            acc = u[:, :, k] @ acc
            if k + 1 in sample_idx:
                want.append(acc)
        assert got.shape == (sample_idx.size, 3, 3)
        assert np.max(np.abs(got - np.array(want))) <= 1e-12

    def test_breakpoint_on_a_sample_is_that_sample(self, monkeypatch):
        # The breakpoint and the middle sample are one step edge; a run takes
        # at least 1024 steps, so blocks of 64 put several block edges before
        # it.  The walk stops there once for both.
        monkeypatch.setattr(qcore, "_BLOCK_ENTRIES", 64 * 9)
        h = schemes.build_lambda(schemes.LambdaParams(
            omega1=lambda t: 40.0 * np.sin(np.pi * t) ** 2, omega2=30.0, delta_single=50.0))
        grid = TimeGrid(0.0, 2.0, 5)
        traj = propagate_density(h, DecayVector([0.01, 30.0, 0.01]),
                                 DensityMatrix.pure(StateVector.basis(3, 0)), grid,
                                 tol=1e-6, breakpoints=[1.0])
        assert traj.breakpoint_times.tolist() == [1.0]
        assert np.array_equal(traj.breakpoint_states[0], traj.states[2])

    def test_fourth_order_convergence(self):
        # Smooth lossy ladder on uniform steps: halving the step must cut the
        # propagator error by ~2^4 (16.0 measured).  A second-order step, such
        # as the Magnus step without its commutator term, gives ~4.
        p = schemes.LambdaParams(
            omega1=lambda t: 40.0 * np.sin(np.pi * t) ** 2,
            omega2=lambda t: 30.0 * np.sin(np.pi * t),
            delta_single=50.0,
            delta_two=lambda t: 5.0 * np.cos(2.0 * t),
        )
        h = schemes.build_lambda(p)
        gamma = np.array([0.01, 30.0, 0.01])

        def propagator(n_steps):
            edges = np.linspace(0.0, 1.0, n_steps + 1)
            return qcore._walk(h, gamma, np.eye(3), edges, np.array([n_steps]))[0]

        ref = propagator(32768)
        err_128, err_256 = (np.max(np.abs(propagator(n) - ref)) for n in (128, 256))
        assert err_128 / err_256 >= 12.0


class TestObservables:
    def test_population_trivial_cases(self):
        h = two_level(1.0, 0.0)
        grid = TimeGrid(0.0, np.pi, 101)
        traj = propagate_state(h, StateVector.basis(2, 0), grid)
        assert population(traj, 0, 0.0) == pytest.approx(1.0)
        assert population(traj, 1, np.pi) == pytest.approx(1.0, abs=1e-6)

    def test_population_interpolates(self):
        h = HamiltonianRule.constant(np.zeros((1, 1)))
        traj = propagate_density(h, DecayVector([0.5]), DensityMatrix([[1.0]]),
                                 TimeGrid(0.0, 2.0, 201))
        assert population(traj, 0, 2.0) == pytest.approx(np.exp(-1.0), abs=1e-6)
        assert population(traj, 0, 1.234) == pytest.approx(np.exp(-0.5 * 1.234), abs=1e-5)

    def test_population_range_errors(self):
        h = two_level(1.0, 0.0)
        traj = propagate_state(h, StateVector.basis(2, 0), TimeGrid(0.0, 1.0, 11))
        with pytest.raises(ValueError, match="level"):
            population(traj, 2, 0.5)
        with pytest.raises(ValueError, match="time"):
            population(traj, 0, 1.5)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_population_rejects_non_finite_time(self, t):
        h = two_level(1.0, 0.0)
        traj = propagate_state(h, StateVector.basis(2, 0), TimeGrid(0.0, 1.0, 11))
        with pytest.raises(ValueError, match="outside sampled window"):
            population(traj, 0, t)

    def test_fidelity_identical(self):
        a = StateVector(np.array([0.6, 0.8j]))
        assert fidelity(a, a) == pytest.approx(1.0)

    def test_fidelity_orthogonal(self):
        assert fidelity(StateVector.basis(3, 0), StateVector.basis(3, 2)) == 0.0

    def test_fidelity_global_phase(self):
        a = StateVector(np.array([0.6, 0.8]))
        b = StateVector(np.exp(1j * np.pi / 3) * a.amplitudes)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            w = rng.normal(size=3) + 1j * rng.normal(size=3)
            a = StateVector(v / np.linalg.norm(v))
            b = StateVector(w / np.linalg.norm(w))
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)

    def test_fidelity_errors(self):
        with pytest.raises(ValueError, match="dimension"):
            fidelity(StateVector.basis(2, 0), StateVector.basis(3, 0))
        with pytest.raises(ValueError, match="normalized"):
            fidelity(StateVector(np.array([0.5, 0.5])), StateVector.basis(2, 0))
