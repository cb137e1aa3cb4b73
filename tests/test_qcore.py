import numpy as np
import pytest
import scipy.linalg

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
from chainwise_sta import qcore
from chainwise_sta.protocols import hamiltonian_rule


def two_level(omega, delta_e):
    """Symmetric two-level Hamiltonian: diag(+d/2, -d/2), off-diagonal omega/2."""
    return HamiltonianRule.constant(
        [[delta_e / 2, omega / 2], [omega / 2, -delta_e / 2]]
    )


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
        with pytest.raises(ValueError):
            DecayVector([0.1, -0.2])

    def test_time_grid_ordering(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, n_samples=1)

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
        omega, delta_e, t_end = 1.0, 1.0, 2.0
        grid = TimeGrid(0.0, t_end, 41)
        traj = propagate_state(two_level(omega, delta_e), StateVector.basis(2, 0),
                               grid, method=method)
        g = np.hypot(omega, delta_e)
        expected = omega**2 / g**2 * np.sin(g * grid.times / 2) ** 2
        assert np.max(np.abs(traj.populations[:, 1] - expected)) < 1e-6

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

    def test_scalar_evaluator_supported(self):
        h = HamiltonianRule(2, lambda t: np.array([[0.0, 0.5], [0.5, 0.0]]),
                            vectorized=False)
        traj = propagate_state(h, StateVector.basis(2, 0), TimeGrid(0.0, np.pi, 21))
        assert traj.populations[-1, 1] == pytest.approx(1.0, abs=1e-6)


class TestPropagateDensity:
    def test_closed_system_matches_state_propagation(self):
        h = two_level(1.1, 0.6)
        grid = TimeGrid(0.0, 4.0, 81)
        tol = 1e-8
        psi = propagate_state(h, StateVector.basis(2, 0), grid, tol=tol)
        rho = propagate_density(h, DecayVector.none(2),
                                DensityMatrix.pure(StateVector.basis(2, 0)), grid, tol=tol)
        assert np.max(np.abs(psi.populations - rho.populations)) <= 10 * tol

    def test_pure_exponential_decay(self):
        h = HamiltonianRule.constant(np.zeros((1, 1)))
        traj = propagate_density(h, DecayVector([0.5]), DensityMatrix([[1.0]]),
                                 TimeGrid(0.0, 2.0, 21))
        assert traj.populations[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_step_halving_self_oracle(self, p2_schedule, lambda_decays):
        # tol 6.25e-10 runs the magnus path at exactly half the step size.
        h = hamiltonian_rule(p2_schedule)
        rho0 = DensityMatrix.pure(StateVector.basis(3, 0))
        grid = TimeGrid(0.0, p2_schedule.duration, 2)
        full = propagate_density(h, lambda_decays, rho0, grid, tol=1e-8, method="magnus")
        half = propagate_density(h, lambda_decays, rho0, grid, tol=6.25e-10, method="magnus")
        assert abs(full.populations[-1, 2] - half.populations[-1, 2]) < 1e-5

    def test_trace_monotone_under_loss(self):
        h = two_level(2.0, 0.0)
        traj = propagate_density(h, DecayVector([0.0, 0.8]),
                                 DensityMatrix.pure(StateVector.basis(2, 0)),
                                 TimeGrid(0.0, 6.0, 121))
        assert np.all(np.diff(traj.traces) <= 10 * 1e-8)
        assert traj.traces[-1] < 1.0

    def test_trace_constant_without_loss(self):
        h = two_level(2.0, 1.0)
        traj = propagate_density(h, DecayVector.none(2),
                                 DensityMatrix.pure(StateVector.basis(2, 0)),
                                 TimeGrid(0.0, 6.0, 61))
        assert np.max(np.abs(traj.traces - 1.0)) < 1e-7

    def test_hermiticity_and_psd_at_samples(self):
        h = two_level(3.0, 0.7)
        traj = propagate_density(h, DecayVector([0.1, 0.4]),
                                 DensityMatrix.pure(StateVector.basis(2, 0)),
                                 TimeGrid(0.0, 5.0, 101))
        m = traj.matrices
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

    def test_mixed_state_input(self):
        # Sub-unit trace mixed input: trace conserved without loss.
        h = two_level(1.5, 0.3)
        rho0 = DensityMatrix(np.diag([0.5, 0.3]))
        traj = propagate_density(h, DecayVector.none(2), rho0, TimeGrid(0.0, 3.0, 61))
        assert np.max(np.abs(traj.traces - 0.8)) < 1e-7
        assert np.max(traj.populations[:, 1]) > 0.3


class TestBackEndEquivalence:
    def test_cross_method_full_model(self):
        # Medium-stiffness ladder: both back ends must agree on populations.
        from chainwise_sta import LambdaParams, build_lambda

        h = build_lambda(LambdaParams(lambda t: 8.0 * np.sin(np.pi * t / 4.0) ** 2,
                                      lambda t: 8.0 * np.sin(np.pi * t / 4.0) ** 2,
                                      delta_single=200.0))
        grid = TimeGrid(0.0, 4.0, 81)
        rho0 = DensityMatrix.pure(StateVector.basis(3, 0))
        gam = DecayVector([0.0, 2.0, 0.0])
        a = propagate_density(h, gam, rho0, grid, method="adaptive", tol=1e-10)
        b = propagate_density(h, gam, rho0, grid, method="magnus", tol=1e-10)
        assert np.max(np.abs(a.populations - b.populations)) < 1e-7

    def test_cross_method_with_breakpoints(self, p2_schedule):
        # Composite forward/hold/return schedule in the eliminated frame:
        # checks segment handling of both integration paths.
        from chainwise_sta import build_roundtrip
        from chainwise_sta.protocols import effective_rule

        rt = build_roundtrip(p2_schedule, 0.1)
        h = effective_rule(rt)
        grid = TimeGrid(0.0, rt.duration, 163)
        psi0 = StateVector.basis(2, 0)
        a = propagate_state(h, psi0, grid, method="adaptive", tol=1e-10,
                            breakpoints=rt.breakpoints)
        b = propagate_state(h, psi0, grid, method="magnus", tol=1e-10,
                            breakpoints=rt.breakpoints)
        assert np.max(np.abs(a.populations - b.populations)) < 1e-7
        # Transfer out and back: the initial level is repopulated at the end.
        assert a.populations[-1, 0] > 0.999


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
        got = qcore._expm_batch(a)
        want = np.array([scipy.linalg.expm(x) for x in a])
        rel = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
        assert np.max(rel) <= 1e-13
        assert np.array_equal(qcore._expm_batch(np.zeros((1, n, n)))[0], np.eye(n))

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
        chunk = qcore._MAGNUS_CHUNK
        n_steps = 3 * chunk + chunk // 2
        edges = np.linspace(0.0, 3.0, n_steps + 1)
        sample_idx = np.array([0, 1, 17, chunk - 1, chunk, chunk + 5, 3 * chunk + 3, n_steps])
        got = qcore._magnus_sample_propagators(h, gamma, edges, sample_idx)

        u = qcore._magnus_propagators(h, gamma, edges)
        want, acc = [], np.eye(3)
        for k in range(n_steps):
            acc = u[k] @ acc
            if k + 1 in sample_idx:
                want.append(acc)
                acc = np.eye(3)
        assert got.shape == (sample_idx.size - 1, 3, 3)
        assert np.max(np.abs(got - np.array(want))) <= 1e-12


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
