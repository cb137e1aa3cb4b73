import dataclasses

import numpy as np
import pytest

from chainwise_sta import (
    DecayVector,
    DensityMatrix,
    LambdaParams,
    MParams,
    RegimeWarning,
    StarkBalanceError,
    StateVector,
    TimeGrid,
    adiabaticity_margin,
    build_lambda,
    build_m,
    propagate_state,
    reduce_lambda,
    reduce_m,
    stack_channels,
)
from chainwise_sta.protocols import (DeltaTwoMode, design_protocol1, effective_rule,
                                     hamiltonian_rule)
from chainwise_sta.schemes import _chain_rule


class TestBuildLambda:
    def test_zero_drive_is_diagonal(self):
        h = build_lambda(LambdaParams(0.0, 0.0, delta_single=5.0, delta_two=1.5))
        assert np.allclose(h(0.0), np.diag([0.0, 5.0, 1.5]))

    def test_matrix_placement(self):
        h = build_lambda(LambdaParams(2.0, 2.0, delta_single=10.0, delta_two=1.0))
        m = h(3.3)
        assert m[0, 1] == 1.0 and m[1, 2] == 1.0 and m[0, 2] == 0.0
        assert m[1, 1] == 10.0 and m[2, 2] == 1.0

    def test_two_photon_split_eigenvalues(self):
        # Independent oracle: eigensolve of the hand-built matrix.
        h = build_lambda(LambdaParams(2.0, 2.0, delta_single=100.0))
        by_hand = np.array([[0, 1, 0], [1, 100, 1], [0, 1, 0]], dtype=float)
        oracle = np.sort(np.linalg.eigvalsh(by_hand))
        got = np.sort(np.linalg.eigvalsh(h(0.0)))
        assert np.allclose(got, oracle, atol=1e-12)
        assert np.allclose(got, [-0.02, 0.0, 100.02], atol=1e-3)

    def test_hermitian_for_random_channels(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            o1, o2, d, d2 = rng.normal(size=4) * 10
            m = build_lambda(LambdaParams(o1, o2, delta_single=d, delta_two=d2))(1.0)
            assert np.array_equal(m, m.conj().T)

    def test_time_dependent_channels(self):
        h = build_lambda(LambdaParams(lambda t: np.sin(t), lambda t: np.cos(t),
                                      delta_single=4.0))
        m = h(np.array([0.0, np.pi / 2]))
        assert m.shape == (2, 3, 3)
        assert m[0, 0, 1] == pytest.approx(0.0)
        assert m[1, 0, 1] == pytest.approx(0.5)


class TestSharedChannels:
    @pytest.mark.parametrize("scheme", ["lambda", "m"])
    def test_shared_channel_evaluated_once(self, scheme):
        # Pump = Stokes in the ladder, omega4 = omega1 in the chain: the
        # shared function runs once per H(t) call and fills both entries.
        calls = []

        def omega(t):
            calls.append(np.size(t))
            return np.sin(t)

        if scheme == "lambda":
            h, pairs = build_lambda(LambdaParams(omega, omega, delta_single=4.0)), [(0, 1)]
        else:
            p = MParams(stack_channels((omega, 1.5, 2.5, omega)), delta_single=7.0)
            h, pairs = build_m(p), [(0, 1), (3, 4)]
        t = np.array([0.3, 1.2, 2.0])
        m = h.matrices(t)
        assert calls == [3]
        for k, l in pairs:
            assert np.array_equal(m[:, k, l], 0.5 * np.sin(t))
            assert np.array_equal(m[:, l, k], 0.5 * np.sin(t))
        if scheme == "lambda":
            assert np.array_equal(m[:, 1, 2], 0.5 * np.sin(t))


class TestChainRule:
    def test_constant_row_and_row_function_give_the_same_bytes(self):
        # A chain's diagonal is one row, given as an array or as a function
        # of t that returns it on a last axis.
        row = (0.0, 7.5, -1.25, 7.5, 0.0)
        couplings = stack_channels((np.sin, 1.5, np.cos, 2.5))
        const = _chain_rule(5, row, couplings)
        func = _chain_rule(5, stack_channels(row), couplings)
        for t in (np.linspace(0.0, 3.0, 11), 0.7):
            assert const(t).tobytes() == func(t).tobytes()
            assert np.all(np.diagonal(const(t), axis1=-2, axis2=-1) == row)


class TestBuildM:
    def test_zero_drive_is_diagonal(self):
        h = build_m(MParams(stack_channels((0.0, 0.0, 0.0, 0.0)), delta_single=7.0))
        assert np.allclose(h(0.0), np.diag([0.0, 7.0, 0.0, 7.0, 0.0]))

    def test_chain_placement(self):
        h = build_m(MParams(stack_channels((2.0, np.sqrt(2), np.sqrt(2), 2.0)), delta_single=100.0))
        m = h(0.0)
        assert m[0, 1] == 1.0 and m[3, 4] == 1.0
        assert m[1, 2] == pytest.approx(np.sqrt(2) / 2)
        assert m[2, 3] == pytest.approx(np.sqrt(2) / 2)
        assert m[0, 2] == 0.0 and m[1, 3] == 0.0 and m[0, 4] == 0.0

    def test_hermitian_exactly_for_random_channels(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            vals = rng.normal(size=4) * 30
            m = build_m(MParams(stack_channels(tuple(vals)), delta_single=rng.normal() * 100))(2.0)
            assert np.array_equal(m, m.conj().T)


class TestReduceLambda:
    def test_effective_coupling_value(self):
        eff = reduce_lambda(LambdaParams(2.0, 2.0, delta_single=100.0))
        assert np.asarray(eff.omega_e(0.0)) == pytest.approx(-0.02)

    def test_effective_detuning_value(self):
        eff = reduce_lambda(LambdaParams(1.0, 1.0, delta_single=100.0, delta_two=0.5))
        assert np.asarray(eff.delta_e(0.0)) == pytest.approx(-0.5)

    def test_effective_hamiltonian_evaluates_delta_e_once(self):
        calls = []

        def delta_e(t):
            calls.append(np.shape(t))
            return 2.0 * np.asarray(t, dtype=float)

        from chainwise_sta import EffTwoLevel
        h = EffTwoLevel(omega_e=lambda t: np.full(np.shape(t), 3.0), delta_e=delta_e).hamiltonian()
        t = np.linspace(0.0, 1.0, 7)
        m = h(t)
        assert calls == [(7,)]
        assert np.array_equal(m[:, 0, 0], t) and np.array_equal(m[:, 1, 1], -t)
        assert np.all(m[:, 0, 1] == 1.5) and np.all(m[:, 1, 0] == 1.5)
        h(0.5)
        assert len(calls) == 2

    def test_full_hamiltonian_evaluates_delta_two_once(self):
        # The diagonal row (0, delta_single, delta_two) is one stacked call.
        leg = design_protocol1(4.0, 1800 * np.pi, mode=DeltaTwoMode.exact_clamped())
        calls = []

        def delta_two(t):
            calls.append(np.shape(t))
            return leg.delta_two(t)

        h = hamiltonian_rule(dataclasses.replace(leg, delta_two=delta_two))
        calls.clear()  # the schedule probes delta_two once when it is built
        t = np.linspace(0.0, 4.0, 7)
        m = h(t)
        assert calls == [(7,)]
        assert np.array_equal(m[:, 2, 2], leg.delta_two(t)) and np.all(m[:, 1, 1] == 1800 * np.pi)

    def test_full_vs_effective_propagation(self):
        p = LambdaParams(1.0, 1.0, delta_single=50.0, duration=20.0)
        grid = TimeGrid(0.0, 20.0, 2)
        full = propagate_state(build_lambda(p), StateVector.basis(3, 0), grid)
        eff = propagate_state(reduce_lambda(p).hamiltonian(), StateVector.basis(2, 0), grid)
        assert abs(full.populations[-1, 2] - eff.populations[-1, 1]) < 0.02

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            reduce_lambda(LambdaParams(1.0, 1.0, delta_single=0.0))

    def test_unequal_channels_rejected(self):
        with pytest.raises(ValueError, match="omega1 = omega2"):
            reduce_lambda(LambdaParams(1.0, 1.2, delta_single=50.0))

    def test_regime_warning_below_ratio(self):
        with pytest.warns(RegimeWarning):
            reduce_lambda(LambdaParams(10.0, 10.0, delta_single=50.0))

    def test_no_warning_in_regime(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reduce_lambda(LambdaParams(1.0, 1.0, delta_single=50.0))

    def test_roundtrip_amplitude_identity(self):
        # Re-embedding the effective coupling recovers |omega| exactly.
        rng = np.random.default_rng(5)
        for _ in range(10):
            om = float(rng.uniform(0.1, 5.0))
            delta = float(rng.uniform(50.0, 500.0)) * rng.choice([-1.0, 1.0])
            eff = reduce_lambda(LambdaParams(om, om, delta_single=delta))
            back = np.sqrt(2 * abs(delta) * abs(np.asarray(eff.omega_e(0.0))))
            assert back == pytest.approx(om, rel=1e-12)


class TestReduceM:
    def test_effective_coupling_values(self):
        p = MParams(stack_channels((2.0, np.sqrt(2), np.sqrt(2), 2.0)), delta_single=100.0)
        eff = reduce_m(p)
        assert np.asarray(eff.omega_e1(0.0)) == pytest.approx(-np.sqrt(2) * 2 / 200)
        assert np.asarray(eff.omega_e2(0.0)) == pytest.approx(-0.0141421356, abs=1e-9)

    def test_two_level_limit(self):
        c = 1.5
        eff = reduce_m(MParams(stack_channels((c, c, 0.0, c)), delta_single=200.0))
        assert np.asarray(eff.omega_e1(0.0)) == pytest.approx(-c**2 / 400)
        assert np.asarray(eff.omega_e2(0.0)) == 0.0

    def test_balance_violation_named(self):
        with pytest.raises(StarkBalanceError, match="defect"):
            reduce_m(MParams(stack_channels((2.0, 1.0, 1.0, 2.0)), delta_single=100.0))

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            reduce_m(MParams(stack_channels((2.0, np.sqrt(2), np.sqrt(2), 2.0)), delta_single=0.0))

    def test_one_stacked_drive_feeds_build_m_and_reduce_m(self):
        # build_m and reduce_m read the same columns of one drive, each in
        # one call per H(t) call, and the balance check reads them too.
        calls = []

        def drive(t):
            calls.append(np.shape(t))
            o2, o3 = 3.0 * np.sin(t), 4.0 * np.cos(t)
            root = np.sqrt(o2**2 + o3**2)
            return np.stack([root, o2, o3, root], axis=-1)

        delta = 200.0
        p = MParams(drive, delta_single=delta, duration=10.0)
        h, eff = build_m(p), reduce_m(p)
        t = np.linspace(0.0, 10.0, 11)
        calls.clear()
        m, e = h.matrices(t), eff.couplings(t)
        assert calls == [(11,), (11,)]
        cols = drive(t)
        assert np.array_equal(m[:, [0, 1, 2, 3], [1, 2, 3, 4]], 0.5 * cols)
        root = np.sqrt(cols[:, 1] ** 2 + cols[:, 2] ** 2)
        assert np.array_equal(e, -cols[:, 1:3] * root[:, None] / (2.0 * delta))
        with pytest.raises(StarkBalanceError):
            reduce_m(MParams(lambda t: drive(t) * [1.0, 1.0, 1.0, 1.1], delta, 10.0))

    def test_gauge_sign_flip_leaves_populations(self):
        from chainwise_sta import EffThreeLevel

        p = MParams(stack_channels((2.0, np.sqrt(2), np.sqrt(2), 2.0)), delta_single=100.0)
        eff = reduce_m(p)
        flipped = EffThreeLevel(lambda t: -eff.couplings(t))
        grid = TimeGrid(0.0, 30.0, 31)
        a = propagate_state(eff.hamiltonian(), StateVector.basis(3, 0), grid)
        b = propagate_state(flipped.hamiltonian(), StateVector.basis(3, 0), grid)
        assert np.allclose(a.populations, b.populations, atol=1e-9)

    def test_full_vs_effective_propagation(self, chain_schedule):
        from chainwise_sta.protocols import hamiltonian_rule

        grid = TimeGrid(0.0, chain_schedule.duration, 2)
        full = propagate_state(hamiltonian_rule(chain_schedule), StateVector.basis(5, 0), grid)
        eff = propagate_state(effective_rule(chain_schedule), StateVector.basis(3, 0), grid)
        assert abs(full.populations[-1, 4] - eff.populations[-1, 2]) < 0.03


class TestAEErrorScaling:
    def test_gap_shrinks_with_detuning(self):
        gaps = []
        for ratio in (20.0, 60.0, 200.0):
            p = LambdaParams(1.0, 1.0, delta_single=ratio, duration=20.0)
            grid = TimeGrid(0.0, 20.0, 2)
            full = propagate_state(build_lambda(p), StateVector.basis(3, 0), grid, tol=1e-10)
            eff = propagate_state(reduce_lambda(p).hamiltonian(), StateVector.basis(2, 0),
                                  grid, tol=1e-10)
            gaps.append(abs(full.populations[-1, 2] - eff.populations[-1, 1]))
        assert gaps[0] > gaps[1] > gaps[2]


class TestAdiabaticityMargin:
    def test_constant_drive_has_zero_margin(self):
        from chainwise_sta import EffTwoLevel

        eff = EffTwoLevel(
            omega_e=lambda t: np.full(np.shape(t), 2.0),
            delta_e=lambda t: np.full(np.shape(t), 1.0),
        )
        assert adiabaticity_margin(eff, TimeGrid(0.0, 10.0, 101)) == pytest.approx(0.0, abs=1e-12)

    def test_linear_chirp_margin(self):
        # omega_e = 1, delta_e = t: max of 0.5 / (1 + t^2)^(3/2) is 0.5 at t = 0.
        from chainwise_sta import EffTwoLevel

        eff = EffTwoLevel(
            omega_e=lambda t: np.full(np.shape(t), 1.0),
            delta_e=lambda t: np.asarray(t, dtype=float),
        )
        margin = adiabaticity_margin(eff, TimeGrid(-10.0, 10.0, 401))
        assert margin == pytest.approx(0.5, rel=1e-3)

    def test_degenerate_point_rejected(self):
        from chainwise_sta import EffTwoLevel

        eff = EffTwoLevel(
            omega_e=lambda t: np.asarray(t, dtype=float),
            delta_e=lambda t: np.zeros(np.shape(t)),
        )
        with pytest.raises(ValueError, match="vanishes"):
            adiabaticity_margin(eff, TimeGrid(0.0, 1.0, 11))

    def test_designed_pulse_margin_reported(self, p2_schedule):
        # Finite margin on the open interval of a deliberately fast drive.
        from chainwise_sta import EffTwoLevel
        from chainwise_sta.schemes import as_channel

        omega = p2_schedule.channels["omega"]
        delta = p2_schedule.delta_single
        eff = EffTwoLevel(
            omega_e=lambda t: -as_channel(omega)(t) ** 2 / (2 * delta),
            delta_e=lambda t: np.zeros(np.shape(np.asarray(t))),
        )
        margin = adiabaticity_margin(eff, TimeGrid(0.05, 3.95, 301))
        assert np.isfinite(margin)
