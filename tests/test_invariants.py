import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainwise_sta import (
    HamiltonianRule,
    StateVector,
    ThreeLevelAux,
    TimeGrid,
    TwoLevelAux,
    eigenstates2,
    eigenstates3,
    fidelity,
    invariant2,
    invariant2_rule,
    invariant3,
    invariant3_rule,
    invariant_residual,
    lr_phase,
    propagate_state,
    solve_aux_polynomials,
)
from chainwise_sta.invariants import _cumulative_simpson
from chainwise_sta.protocols import effective_rule

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def fixed_aux(theta, beta):
    return TwoLevelAux(
        theta=lambda t: np.full(np.shape(t), theta),
        beta=lambda t: np.full(np.shape(t), beta),
        theta_dot=lambda t: np.zeros(np.shape(t)),
        beta_dot=lambda t: np.zeros(np.shape(t)),
    )


class TestInvariant2:
    def test_theta_zero_diagonal(self):
        m = invariant2(fixed_aux(0.0, 0.3), 0.0)
        assert np.allclose(m, np.diag([0.5, -0.5]))

    def test_equator_is_sigma_x(self):
        m = invariant2(fixed_aux(np.pi / 2, 0.0), 0.0)
        assert np.allclose(m, 0.5 * np.array([[0, 1], [1, 0]]))

    @given(theta=angles, beta=angles)
    @settings(max_examples=40, deadline=None)
    def test_determinant_fixed(self, theta, beta):
        m = invariant2(fixed_aux(theta, beta), 0.0)
        assert np.linalg.det(m).real == pytest.approx(-0.25, abs=1e-12)
        assert abs(np.linalg.det(m).imag) < 1e-12

    @given(theta=angles, beta=angles)
    @settings(max_examples=40, deadline=None)
    def test_eigenstates_orthonormal(self, theta, beta):
        plus, minus = eigenstates2(fixed_aux(theta, beta), 0.0)
        assert abs(np.vdot(plus.amplitudes, minus.amplitudes)) < 1e-12
        assert plus.norm_sq == pytest.approx(1.0, abs=1e-12)
        assert minus.norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_transfer_endpoints(self):
        plus0, _ = eigenstates2(fixed_aux(0.0, 1.0), 0.0)
        assert fidelity(plus0, StateVector.basis(2, 0)) == pytest.approx(1.0, abs=1e-12)
        plus1, _ = eigenstates2(fixed_aux(np.pi, 1.0), 0.0)
        assert fidelity(plus1, StateVector.basis(2, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstates_diagonalize_invariant(self):
        aux = fixed_aux(0.8, -2.1)
        m = invariant2(aux, 0.0)
        plus, minus = eigenstates2(aux, 0.0)
        assert np.allclose(m @ plus.amplitudes, 0.5 * plus.amplitudes, atol=1e-12)
        assert np.allclose(m @ minus.amplitudes, -0.5 * minus.amplitudes, atol=1e-12)


class TestInvariant3:
    @staticmethod
    def chain_aux(chi, vartheta):
        # Constant-angle stand-in built on the polynomial container.
        aux = solve_aux_polynomials(1.0, 0.03)
        object.__setattr__(aux, "scaled_a", np.array([chi, 0, 0, 0, 0.0]))
        object.__setattr__(aux, "scaled_b", np.array([vartheta, 0, 0, 0.0]))
        return aux

    def test_quarter_corner_coupling(self):
        m = invariant3(self.chain_aux(np.pi / 2, 0.7), 0.0)
        assert m[0, 2] == pytest.approx(-0.5j)
        assert abs(m[0, 1]) < 1e-12 and abs(m[1, 2]) < 1e-12

    def test_real_chain_at_chi_zero(self):
        m = invariant3(self.chain_aux(0.0, np.pi / 4), 0.0)
        assert m[0, 1] == pytest.approx(0.5 * np.sqrt(2) / 2)
        assert m[1, 2] == pytest.approx(0.5 * np.sqrt(2) / 2)
        assert abs(m[0, 2]) < 1e-12

    def test_spectrum_via_eigensolve_oracle(self):
        m = invariant3(self.chain_aux(0.3, 1.1), 0.0)
        eigs = np.sort(np.linalg.eigvalsh(m))
        assert np.allclose(eigs, [-0.5, 0.0, 0.5], atol=1e-12)

    def test_null_state_annihilated(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            chi, vt = rng.uniform(-3, 3, size=2)
            aux = self.chain_aux(chi, vt)
            m = invariant3(aux, 0.0)
            phi0, plus, minus = eigenstates3(aux, 0.0)
            assert np.max(np.abs(m @ phi0.amplitudes)) < 1e-12
            assert np.allclose(m @ plus.amplitudes, 0.5 * plus.amplitudes, atol=1e-12)
            assert np.allclose(m @ minus.amplitudes, -0.5 * minus.amplitudes, atol=1e-12)

    def test_boundary_alignment(self):
        small = 0.01
        start, _, _ = eigenstates3(self.chain_aux(small, 0.0), 0.0)
        assert abs(start.amplitudes[0]) == pytest.approx(1.0, abs=1e-4)
        end, _, _ = eigenstates3(self.chain_aux(small, np.pi / 2), 0.0)
        assert abs(end.amplitudes[2]) == pytest.approx(1.0, abs=1e-4)

    def test_mutually_orthonormal(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            aux = self.chain_aux(*rng.uniform(-3, 3, size=2))
            vecs = [v.amplitudes for v in eigenstates3(aux, 0.0)]
            gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
            assert np.max(np.abs(gram - np.eye(3))) < 1e-12


def polyval_reference(aux, t):
    """(chi, chi_dot, vartheta, vartheta_dot) by numpy's polyval/polyder."""
    poly = np.polynomial.polynomial
    s = np.asarray(t, dtype=float) / aux.t_f
    return (
        poly.polyval(s, aux.scaled_a),
        poly.polyval(s, poly.polyder(aux.scaled_a)) / aux.t_f,
        poly.polyval(s, aux.scaled_b),
        poly.polyval(s, poly.polyder(aux.scaled_b)) / aux.t_f,
    )


class TestAngles:
    """angles() and the single-angle methods equal polyval/polyder bit for bit."""

    METHODS = ("chi", "chi_deriv", "vartheta", "vartheta_deriv")

    def assert_bitwise(self, aux):
        t = np.linspace(0.0, aux.t_f, 1001)
        assert t[0] == 0.0 and t[500] == aux.t_f / 2 and t[-1] == aux.t_f
        want = polyval_reference(aux, t)
        for got in (aux.angles(t), [getattr(aux, m)(t) for m in self.METHODS]):
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w)
                assert g.tobytes() == w.tobytes()
        for t0 in (0.0, aux.t_f / 2, aux.t_f):
            want = polyval_reference(aux, t0)
            for g, w in zip(aux.angles(t0), want):
                assert np.array_equal(g, w)
            for m, w in zip(self.METHODS, want):
                assert np.array_equal(getattr(aux, m)(t0), w)

    @pytest.mark.parametrize("direction", ["creation", "detection"])
    @pytest.mark.parametrize("t_f,eps", [(8.0, 0.03), (3.2, 1e-3), (4.0, 0.2)])
    def test_designed_polynomials(self, t_f, eps, direction):
        self.assert_bitwise(solve_aux_polynomials(t_f, eps, direction))

    def test_replaced_coefficients(self):
        # The constant-angle stand-in swaps the coefficients after
        # construction; a derivative copied at construction would go stale.
        aux = TestInvariant3.chain_aux(0.3, 1.1)
        self.assert_bitwise(aux)
        assert not np.any(aux.chi_deriv(np.linspace(0.0, 1.0, 11)))


class TestAuxPolynomials:
    def test_cubic_coefficients_against_linear_solve(self):
        # Independent oracle: assemble and solve the boundary system here.
        t_f = 1.0
        mat = np.array([
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [1, t_f, t_f**2, t_f**3],
            [0, 1, 2 * t_f, 3 * t_f**2],
        ], dtype=float)
        oracle = np.linalg.solve(mat, [0.0, 0.0, np.pi / 2, 0.0])
        aux = solve_aux_polynomials(t_f, 0.03)
        assert np.allclose(aux.poly_b, oracle, atol=1e-12)
        assert np.allclose(aux.poly_b, [0.0, 0.0, 3 * np.pi / 2, -np.pi], atol=1e-12)
        assert aux.vartheta(0.5) == pytest.approx(np.pi / 4, abs=1e-12)

    @pytest.mark.parametrize("t_f,eps", [(1.0, 0.03), (8.0, 0.03), (4.0, 0.2), (12.0, 1e-3)])
    def test_boundary_conditions_exact(self, t_f, eps):
        aux = solve_aux_polynomials(t_f, eps)
        assert aux.chi(0.0) == pytest.approx(eps, abs=1e-12)
        assert aux.chi(t_f) == pytest.approx(eps, abs=1e-12)
        assert aux.chi(t_f / 2) == pytest.approx(np.pi / 4, abs=1e-12)
        assert abs(aux.chi_deriv(0.0)) < 1e-12
        assert abs(aux.chi_deriv(t_f)) < 1e-12
        assert abs(aux.vartheta_deriv(0.0)) < 1e-12
        assert abs(aux.vartheta_deriv(t_f)) < 1e-12

    def test_chi_matches_closed_form(self):
        t_f, eps = 8.0, 0.03
        aux = solve_aux_polynomials(t_f, eps)
        s = np.linspace(0, 1, 57)
        closed = eps + 16 * (np.pi / 4 - eps) * s**2 * (1 - s) ** 2
        assert np.allclose(aux.chi(s * t_f), closed, atol=1e-10)

    def test_detection_direction_swaps_endpoints(self):
        aux = solve_aux_polynomials(6.0, 0.05, direction="detection")
        assert aux.vartheta(0.0) == pytest.approx(np.pi / 2, abs=1e-12)
        assert aux.vartheta(6.0) == pytest.approx(0.0, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_aux_polynomials(0.0, 0.03)
        with pytest.raises(ValueError, match="epsilon"):
            solve_aux_polynomials(1.0, 1e-4)
        with pytest.raises(ValueError, match="epsilon"):
            solve_aux_polynomials(1.0, 0.9)
        with pytest.raises(ValueError, match="direction"):
            solve_aux_polynomials(1.0, 0.03, direction="sideways")

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_duration_rejected(self, bad):
        for build in (lambda: solve_aux_polynomials(bad, 0.03),
                      lambda: TwoLevelAux.linear_sweep(bad, np.pi / 1.99),
                      lambda: TwoLevelAux.cubic_sweep(bad)):
            with pytest.raises(ValueError, match="t_f"):
                build()
        with pytest.raises(ValueError, match="epsilon"):
            solve_aux_polynomials(1.0, bad)

    def test_boundary_check_fails_on_nan(self):
        good = solve_aux_polynomials(1.0, 0.03)
        with pytest.raises(ValueError, match="boundary conditions"):
            ThreeLevelAux(t_f=1.0, epsilon=0.03, direction="creation",
                          scaled_a=good.scaled_a, scaled_b=[np.nan, 0.0, 0.0, 0.0])


class TestInvariantResidual:
    def test_constant_pair_zero(self):
        aux = fixed_aux(0.7, 0.2)
        h = HamiltonianRule.constant(np.zeros((2, 2)))
        res = invariant_residual(invariant2_rule(aux), h, TimeGrid(0.0, 1.0, 101))
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_non_invariant_pair_positive(self):
        aux = TwoLevelAux(
            theta=lambda t: np.pi * np.asarray(t, dtype=float),
            beta=lambda t: np.full(np.shape(t), np.pi / 2),
            theta_dot=lambda t: np.full(np.shape(t), np.pi),
            beta_dot=lambda t: np.zeros(np.shape(t)),
        )
        h = HamiltonianRule.constant([[0.0, 1.0], [1.0, 0.0]])
        res = invariant_residual(invariant2_rule(aux), h, TimeGrid(0.0, 1.0, 101))
        assert res > 0.1

    def test_dimension_mismatch(self):
        aux2 = fixed_aux(0.1, 0.1)
        h3 = HamiltonianRule.constant(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="dimension"):
            invariant_residual(invariant2_rule(aux2), h3, TimeGrid(0.0, 1.0, 11))

    def test_designed_pair_small_residual(self, p2_schedule):
        aux = p2_schedule.design["aux"]
        res = invariant_residual(invariant2_rule(aux), effective_rule(p2_schedule),
                                 TimeGrid(0.0, p2_schedule.duration, 2001))
        assert res <= 1e-4


class TestAuxConsistency:
    def test_protocol1_angle_rates(self, p1_schedule_clamped):
        # Finite-difference theta_dot vs -omega_e sin(beta), and the matching
        # beta_dot balance, on the open interval.
        sched = p1_schedule_clamped
        aux = sched.design["aux"]
        t = np.linspace(0.4, sched.duration - 0.4, 101)
        dt = 1e-5
        theta_fd = (aux.theta(t + dt) - aux.theta(t - dt)) / (2 * dt)
        delta = sched.delta_single
        omega_e = -np.asarray(sched.channels["omega"](t)) ** 2 / (2 * delta)
        beta = sched.design["beta"]
        assert np.allclose(theta_fd, -omega_e * np.sin(beta), rtol=1e-6)
        beta_fd = (aux.beta(t + dt) - aux.beta(t - dt)) / (2 * dt)
        delta_e = -np.asarray(sched.delta_two(t))
        balance = -omega_e / np.tan(aux.theta(t)) * np.cos(beta) - delta_e
        assert np.max(np.abs(beta_fd - balance)) < 1e-6 * max(1.0, np.max(np.abs(omega_e)))

    def test_protocol2_angle_rates(self, p2_schedule):
        aux = p2_schedule.design["aux"]
        t = np.linspace(0.4, p2_schedule.duration - 0.4, 101)
        dt = 1e-5
        theta_fd = (aux.theta(t + dt) - aux.theta(t - dt)) / (2 * dt)
        omega_e = -np.asarray(p2_schedule.channels["omega"](t)) ** 2 / (2 * p2_schedule.delta_single)
        assert np.allclose(theta_fd, -omega_e, rtol=1e-6)


class TestLRPhase:
    def test_phase_starts_at_zero(self, p2_schedule):
        aux = p2_schedule.design["aux"]
        zeta = lr_phase("plus", aux, effective_rule(p2_schedule),
                        TimeGrid(0.0, p2_schedule.duration, 801))
        assert zeta(0.0) == 0.0

    def test_quadrature_self_oracle(self, p2_schedule):
        aux = p2_schedule.design["aux"]
        eff = effective_rule(p2_schedule)
        t_f = p2_schedule.duration
        coarse = lr_phase("plus", aux, eff, TimeGrid(0.0, t_f, 2001))
        fine = lr_phase("plus", aux, eff, TimeGrid(0.0, t_f, 4001))
        assert abs(coarse(t_f) - fine(t_f)) < 1e-8

    def test_phase_completes_the_solution(self, p2_schedule):
        # a e^(i zeta) phi_plus(t) must match the integrated dynamics
        # including phase, not just in populations.
        aux = p2_schedule.design["aux"]
        eff = effective_rule(p2_schedule)
        t_f = p2_schedule.duration
        grid = TimeGrid(0.0, t_f, 801)
        zeta = lr_phase("plus", aux, eff, grid)
        phi0, _ = eigenstates2(aux, 0.0)
        traj = propagate_state(eff, phi0, grid, tol=1e-10)
        for idx in (200, 400, 800):
            t = grid.times[idx]
            phi_t, _ = eigenstates2(aux, t)
            predicted = np.exp(1j * zeta(t)) * phi_t.amplitudes
            overlap = np.vdot(predicted, traj.states[idx])
            assert abs(overlap - 1.0) < 1e-5

    @pytest.mark.parametrize("n", [2, 3, 4, 801, 2000])
    def test_quadrature_matches_scipy(self, n):
        integrate = pytest.importorskip("scipy.integrate")
        rng = np.random.default_rng(n)
        for x in (np.linspace(0.0, 8.0, n), np.sort(rng.uniform(0.0, 8.0, n))):
            y = np.sin(3.0 * x) * 40.0 + rng.normal(size=n)
            want = integrate.cumulative_simpson(y, x=x, initial=0.0)
            got = _cumulative_simpson(y, x)
            assert np.all(np.abs(got - want) <= 1e-13 * np.max(np.abs(want)))

    def test_three_level_phase_zero_state(self, chain_schedule):
        # The transported null eigenstate accumulates only its LR phase.
        aux = chain_schedule.design["aux"]
        eff = effective_rule(chain_schedule)
        grid = TimeGrid(0.0, chain_schedule.duration, 1601)
        zeta = lr_phase("zero", aux, eff, grid)
        phi0, _, _ = eigenstates3(aux, 0.0)
        traj = propagate_state(eff, phi0, grid, tol=1e-10)
        t = grid.times[1200]
        phi_t, _, _ = eigenstates3(aux, t)
        overlap = np.vdot(np.exp(1j * zeta(t)) * phi_t.amplitudes, traj.states[1200])
        assert abs(overlap - 1.0) < 1e-5


class TestReturnLegTransport:
    def test_second_eigenstate_carries_population_back(self, p2_schedule):
        # After a forward sweep the system sits in the second invariant
        # eigenstate of a fresh sweep, so repeating the same pulses brings
        # the population home along phi_minus.
        from chainwise_sta import TimeGrid, propagate_state

        aux = p2_schedule.design["aux"]
        eff = effective_rule(p2_schedule)
        t_f = p2_schedule.duration
        grid = TimeGrid(0.0, t_f, 201)
        _, minus0 = eigenstates2(aux, 0.0)
        traj = propagate_state(eff, minus0, grid, tol=1e-10)
        fids = [fidelity(eigenstates2(aux, t)[1], StateVector(traj.states[i]))
                for i, t in enumerate(grid.times)]
        assert min(fids) >= 0.999
        assert traj.populations[-1, 0] >= 0.999  # phi_minus(t_f) is the first level
