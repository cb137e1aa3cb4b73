import warnings

import numpy as np
import pytest

from chainwise_sta import (
    DeltaTwoMode,
    StateVector,
    TimeGrid,
    build_roundtrip,
    design_chainwise,
    design_protocol1,
    design_protocol2,
    peak_amplitude,
    propagate_state,
)
from chainwise_sta.protocols import effective_rule, hamiltonian_rule

from conftest import CHAIN_STAR, P1_STAR


class TestProtocol1:
    def test_reference_amplitude(self):
        sched = design_protocol1(*P1_STAR, beta=np.pi / 1.99)
        assert peak_amplitude(sched) == pytest.approx(30 * np.pi, rel=5e-3)

    def test_coupling_constant_in_time(self, p1_schedule):
        t = np.linspace(0.0, 4.0, 57)
        vals = p1_schedule.channels["omega"](t)
        assert np.ptp(vals) == 0.0

    def test_right_angle_beta_kills_delta_two(self):
        sched = design_protocol1(4.0, 1800 * np.pi, beta=np.pi / 2,
                                 mode=DeltaTwoMode.exact_clamped())
        t = np.linspace(0.0, 4.0, 41)
        assert np.all(sched.delta_two(t) == 0.0)
        expected = np.sqrt(2 * 1800 * np.pi * np.pi / 4.0)
        assert peak_amplitude(sched) == pytest.approx(expected, rel=1e-12)

    def test_delta_two_quarter_point(self):
        # Hand arithmetic: cot(pi/1.99) = -tan(pi (1/1.99 - 1/2))
        #                               = -tan(0.0078934) = -0.0078936;
        # theta(t_f/4) = pi/4 so cot(theta) = 1.
        sched = design_protocol1(*P1_STAR, mode=DeltaTwoMode.exact_clamped())
        val = float(sched.delta_two(1.0))
        cot_beta = 1.0 / np.tan(np.pi / 1.99)
        assert cot_beta == pytest.approx(-0.0078936, abs=1e-7)
        assert val == pytest.approx(-(np.pi / 4.0) * cot_beta, rel=1e-12)
        assert val == pytest.approx(6.20e-3, rel=1e-2)

    def test_clamp_engages_at_edges(self):
        sched = design_protocol1(*P1_STAR, mode=DeltaTwoMode.exact_clamped())
        assert abs(float(sched.delta_two(0.0))) == pytest.approx(200 * np.pi)
        assert abs(float(sched.delta_two(4.0))) == pytest.approx(200 * np.pi)
        assert np.sign(float(sched.delta_two(0.0))) == 1.0
        assert np.sign(float(sched.delta_two(4.0))) == -1.0

    def test_dropped_mode_is_zero(self, p1_schedule):
        t = np.linspace(0.0, 4.0, 101)
        assert np.all(p1_schedule.delta_two(t) == 0.0)

    def test_custom_clamp_limit(self):
        limit = 20 * np.pi
        sched = design_protocol1(*P1_STAR, mode=DeltaTwoMode.exact_clamped(limit))
        t = np.linspace(0.0, 4.0, 401)
        assert np.max(np.abs(sched.delta_two(t))) == pytest.approx(limit)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            DeltaTwoMode(mode="amputated")
        with pytest.raises(ValueError, match="limit"):
            DeltaTwoMode.exact_clamped(limit=0.0)

    def test_amplitude_law_scaling(self):
        # Doubling t_f at fixed detuning scales the coupling by 1/sqrt(2).
        a = peak_amplitude(design_protocol1(2.0, 1800 * np.pi))
        b = peak_amplitude(design_protocol1(4.0, 1800 * np.pi))
        assert b == pytest.approx(a / np.sqrt(2), rel=1e-12)

    def test_sign_conflict_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            design_protocol1(4.0, -1800 * np.pi, beta=np.pi / 1.99)

    def test_printed_delta_form_is_large(self):
        sched = design_protocol1(*P1_STAR, mode=DeltaTwoMode.exact_clamped(),
                                 printed_delta_form=True)
        # Dividing by cot(beta) instead of multiplying inflates the detuning
        # by 1/cot^2, rivaling the coupling itself.
        assert abs(float(sched.delta_two(1.0))) > 50.0

    def test_printed_delta_form_breaks_transfer(self, lambda_decays):
        # The division form is exposed for comparison only: an auxiliary
        # detuning rivaling the effective splitting destroys the transfer,
        # while the multiplicative form barely perturbs it.
        from chainwise_sta import DensityMatrix, StateVector, TimeGrid, propagate_density
        from chainwise_sta.protocols import hamiltonian_rule

        def efficiency(**kw):
            sched = design_protocol1(*P1_STAR, mode=DeltaTwoMode.exact_clamped(), **kw)
            traj = propagate_density(hamiltonian_rule(sched), lambda_decays,
                                     DensityMatrix.pure(StateVector.basis(3, 0)),
                                     TimeGrid(0.0, P1_STAR[0], 2), tol=1e-6)
            return traj.populations[-1, 2]

        assert efficiency() > 0.9
        assert efficiency(printed_delta_form=True) < 0.5

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            design_protocol1(0.0, 1800 * np.pi)
        with pytest.raises(ValueError):
            design_protocol1(4.0, 0.0)
        with pytest.raises(ValueError, match="sin"):
            design_protocol1(4.0, 1800 * np.pi, beta=np.pi)


class TestProtocol2:
    def test_reference_amplitude(self, p2_schedule):
        assert peak_amplitude(p2_schedule) == pytest.approx(30 * np.pi, rel=5e-3)

    def test_peak_closed_form(self):
        t_f, delta = 3.0, 900 * np.pi
        sched = design_protocol2(t_f, delta)
        assert peak_amplitude(sched) == pytest.approx(np.sqrt(3 * np.pi * delta / t_f),
                                                      rel=1e-9)

    def test_vanishes_at_edges(self, p2_schedule):
        assert float(p2_schedule.channels["omega"](0.0)) == 0.0
        assert float(p2_schedule.channels["omega"](4.0)) == 0.0

    def test_angle_polynomial_identities(self, p2_schedule):
        aux = p2_schedule.design["aux"]
        assert aux.theta(2.0) == pytest.approx(np.pi / 2, abs=1e-12)
        assert aux.theta(4.0) == pytest.approx(np.pi, abs=1e-12)

    def test_pulse_area_invariant(self, p2_schedule):
        # Integral of omega^2 dt equals 2 * delta * pi (a full angle sweep).
        t = np.linspace(0.0, 4.0, 20001)
        om = p2_schedule.channels["omega"](t)
        area = np.trapezoid(om**2, t)
        assert area == pytest.approx(2 * p2_schedule.delta_single * np.pi, rel=1e-6)

    def test_negative_detuning_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            design_protocol2(4.0, -1200 * np.pi)


class TestChainwise:
    def test_reference_amplitude(self, chain_schedule):
        assert peak_amplitude(chain_schedule) == pytest.approx(40 * np.pi, rel=0.10)

    def test_midpoint_hand_values(self, chain_schedule):
        # At t_f/2: chi = pi/4 (cot = 1), chi_dot = 0, vartheta = pi/4,
        # vartheta_dot = 3 pi / (4 t_f).
        t_f, delta, _ = CHAIN_STAR
        e1 = 2 * (3 * np.pi / (4 * t_f)) * np.sin(np.pi / 4)
        assert e1 == pytest.approx(0.4165, abs=2e-4)
        s_mid = 2 * e1**2
        expect_14 = (4 * delta**2 * s_mid) ** 0.25
        assert expect_14 == pytest.approx(68.6, rel=1e-2)
        mid = chain_schedule.duration / 2
        assert float(chain_schedule.channels["omega1"](mid)) == pytest.approx(expect_14, rel=1e-9)
        assert float(chain_schedule.channels["omega2"](mid)) == pytest.approx(
            float(chain_schedule.channels["omega3"](mid)), rel=1e-9)

    def test_channels_vanish_at_edges(self, chain_schedule):
        for name in chain_schedule.channel_names:
            assert float(chain_schedule.channels[name](0.0)) == 0.0
            assert float(chain_schedule.channels[name](8.0)) == 0.0

    def test_balance_identity_pointwise(self, chain_schedule):
        t = np.linspace(0.0, 8.0, 2001)
        o1 = chain_schedule.channels["omega1"](t)
        o2 = chain_schedule.channels["omega2"](t)
        o3 = chain_schedule.channels["omega3"](t)
        o4 = chain_schedule.channels["omega4"](t)
        root = np.sqrt(o2**2 + o3**2)
        scale = np.maximum(np.abs(root), 1e-12 * np.max(root))
        assert np.max(np.abs(o1 - root) / scale) < 1e-9
        assert np.max(np.abs(o4 - root) / scale) < 1e-9

    def test_effective_reconstruction_single_global_sign(self, chain_schedule):
        # Reducing the synthesized channels must reproduce the designed
        # effective pair up to one overall sign.
        from chainwise_sta import MParams, reduce_m
        from chainwise_sta.protocols import _chain_effective_couplings

        eff = reduce_m(MParams(
            chain_schedule.channels["omega1"],
            chain_schedule.channels["omega2"],
            chain_schedule.channels["omega3"],
            chain_schedule.channels["omega4"],
            delta_single=chain_schedule.delta_single,
            duration=8.0,
        ))
        designed_e1, designed_e2 = _chain_effective_couplings(chain_schedule.design["aux"])
        t = np.linspace(0.05, 7.95, 501)
        got1, got2 = np.asarray(eff.omega_e1(t)), np.asarray(eff.omega_e2(t))
        want1, want2 = designed_e1(t), designed_e2(t)
        scale = np.max(np.hypot(want1, want2))
        same = max(np.max(np.abs(got1 - want1)), np.max(np.abs(got2 - want2)))
        flipped = max(np.max(np.abs(got1 + want1)), np.max(np.abs(got2 + want2)))
        assert min(same, flipped) < 1e-9 * scale

    def test_peak_decreases_with_leg_duration(self):
        peaks = [peak_amplitude(design_chainwise(tf, 1270 * np.pi, 0.03))
                 for tf in (4.0, 6.0, 8.0, 12.0)]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_epsilon_window_enforced(self):
        with pytest.raises(ValueError, match="epsilon"):
            design_chainwise(8.0, 1270 * np.pi, 1e-5)
        with pytest.raises(ValueError):
            design_chainwise(8.0, 1270 * np.pi, 1.0)
        with pytest.raises(ValueError):
            design_chainwise(8.0, -1270 * np.pi, 0.03)


class TestRoundtrip:
    def test_total_duration(self, p1_schedule):
        rt = build_roundtrip(p1_schedule, 0.1)
        assert rt.duration == pytest.approx(8.1)
        assert [s.kind for s in rt.segments] == ["forward", "hold", "backward"]
        assert rt.breakpoints == pytest.approx((4.0, 4.1))

    def test_hold_channels_dark(self, p2_schedule):
        rt = build_roundtrip(p2_schedule, 0.5)
        t_hold = np.linspace(4.0, 4.5, 23)
        assert np.all(rt.channels["omega"](t_hold) == 0.0)
        assert np.all(rt.delta_two(t_hold) == 0.0)

    def test_lambda_return_repeats_forward(self, p1_schedule_clamped):
        rt = build_roundtrip(p1_schedule_clamped, 0.1)
        t_local = np.linspace(0.01, 3.99, 101)
        fwd = rt.channels["omega"](t_local)
        back = rt.channels["omega"](t_local + 4.1)
        assert np.allclose(fwd, back, atol=1e-12)
        assert np.allclose(rt.delta_two(t_local), rt.delta_two(t_local + 4.1), atol=1e-12)

    def test_m5_return_mirrors_forward(self, chain_schedule):
        rt = build_roundtrip(chain_schedule, 0.1)
        t_local = np.linspace(0.0, 8.0, 401)
        for name in ("omega1", "omega2", "omega3", "omega4"):
            fwd = chain_schedule.channels[name](t_local)
            back = rt.channels[name](8.1 + (8.0 - t_local))
            scale = max(np.max(np.abs(fwd)), 1.0)
            assert np.max(np.abs(fwd - back)) < 1e-9 * scale

    def test_m5_return_uses_reversed_sweep(self, chain_schedule):
        rt = build_roundtrip(chain_schedule, 0.1)
        assert rt.design["backward"]["direction"] == "detection"
        aux = rt.design["backward"]["aux"]
        assert aux.vartheta(0.0) == pytest.approx(np.pi / 2, abs=1e-12)
        assert aux.vartheta(8.0) == pytest.approx(0.0, abs=1e-12)

    def test_negative_hold_rejected(self, p1_schedule):
        with pytest.raises(ValueError):
            build_roundtrip(p1_schedule, -0.1)

    def test_roundtrip_of_roundtrip_rejected(self, p1_schedule):
        rt = build_roundtrip(p1_schedule, 0.1)
        with pytest.raises(ValueError, match="single forward leg"):
            build_roundtrip(rt, 0.1)


class TestScheduleExport:
    def test_csv_layout(self, tmp_path, p2_schedule):
        path = tmp_path / "sched.csv"
        p2_schedule.to_csv(path, points_per_leg=100)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t_us,omega,delta_two"
        assert len(lines) == 102  # header + 100 leg points + final sample
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0

    def test_csv_m5_channels(self, tmp_path, chain_schedule):
        path = tmp_path / "sched.csv"
        chain_schedule.to_csv(path, points_per_leg=50)
        header = path.read_text().splitlines()[0]
        assert header == "t_us,omega1,omega2,omega3,omega4,delta_two"

    def test_roundtrip_sampling_covers_hold(self, p2_schedule):
        rt = build_roundtrip(p2_schedule, 0.1)
        times, values, _ = rt.sample(points_per_leg=200)
        assert len(times) == 3 * 200 + 1
        in_hold = (times >= 4.0) & (times < 4.1)
        assert np.all(values["omega"][in_hold] == 0.0)


class TestModelRules:
    def test_full_rule_dimensions(self, p1_schedule, chain_schedule):
        assert hamiltonian_rule(p1_schedule).dimension == 3
        assert hamiltonian_rule(chain_schedule).dimension == 5

    def test_effective_rule_dimensions(self, p1_schedule, chain_schedule):
        assert effective_rule(p1_schedule).dimension == 2
        assert effective_rule(chain_schedule).dimension == 3

    def test_lambda_full_rule_matches_design(self, p2_schedule):
        h = hamiltonian_rule(p2_schedule)
        m = h(2.0)
        om = float(p2_schedule.channels["omega"](2.0))
        assert m[0, 1] == pytest.approx(om / 2)
        assert m[1, 2] == pytest.approx(om / 2)
        assert m[1, 1] == pytest.approx(p2_schedule.delta_single)
        assert m[2, 2] == 0.0

    def test_chain_roundtrip_effective_fallback(self):
        # A round trip carries no design aux, so effective_rule reduces the
        # synthesized channels generically.  Its ground-level populations
        # must track the full chain within criterion 8's bound.
        rt = build_roundtrip(design_chainwise(*CHAIN_STAR), 0.1)
        assert "aux" not in rt.design
        grid = TimeGrid(0.0, rt.duration, 3)  # mid-hold, then end of return leg
        full = propagate_state(hamiltonian_rule(rt), StateVector.basis(5, 0), grid,
                               breakpoints=rt.breakpoints)
        eff = propagate_state(effective_rule(rt), StateVector.basis(3, 0), grid,
                              breakpoints=rt.breakpoints)
        assert full.populations[1, 4] > 0.99 and full.populations[2, 0] > 0.99
        gap = np.abs(full.populations[:, [0, 2, 4]] - eff.populations)
        assert np.max(gap) <= 0.03


NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])


class TestNonFiniteInputs:
    """Non-finite design inputs fail with a ValueError naming the input, warning-free."""

    DESIGNERS = {
        "p1": design_protocol1,
        "p2": design_protocol2,
        "chainwise": lambda t_f, delta: design_chainwise(t_f, delta, 0.03),
    }

    @NON_FINITE
    @pytest.mark.parametrize("protocol", ["p1", "p2", "chainwise"])
    def test_designers_reject(self, protocol, bad):
        design = self.DESIGNERS[protocol]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="t_f"):
                design(bad, 1800 * np.pi)
            with pytest.raises(ValueError, match="delta_single"):
                design(4.0, bad)

    @NON_FINITE
    def test_protocol1_rejects_beta(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beta"):
                design_protocol1(4.0, 1800 * np.pi, beta=bad)

    @NON_FINITE
    def test_roundtrip_rejects_hold(self, bad, p2_schedule):
        with pytest.raises(ValueError, match="hold_duration"):
            build_roundtrip(p2_schedule, bad)
