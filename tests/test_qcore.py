import numpy as np
import pytest
import scipy.linalg
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
from chainwise_sta import qcore, schemes
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
        for bad in (-0.2, np.nan, np.inf):
            with pytest.raises(ValueError, match="decay rates"):
                DecayVector([0.1, bad])

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
        assert np.max(np.abs(psi.populations - rho.populations)) <= 10 * tol

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
            return qcore._magnus_sample_propagators(h, gamma, edges, np.array([0, n_steps]))[0]

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
