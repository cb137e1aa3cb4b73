import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from chainwise_sta import (
    DeltaTwoMode,
    StateVector,
    ThreeLevelAux,
    TimeGrid,
    build_roundtrip,
    design_chainwise,
    design_protocol1,
    design_protocol2,
    peak_amplitude,
    propagate_state,
)
import chainwise_sta.protocols as protocols_mod
from chainwise_sta.protocols import _chain_effective_couplings, effective_rule, hamiltonian_rule
from chainwise_sta.schemes import _chain_rule, stack_channels

from conftest import CHAIN_STAR, P1_STAR, P2_STAR


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
            stack_channels(tuple(chain_schedule.channels.values())),
            delta_single=chain_schedule.delta_single,
            duration=8.0,
        ))
        designed_pair = _chain_effective_couplings(chain_schedule.design["aux"])
        t = np.linspace(0.05, 7.95, 501)
        got1, got2 = np.asarray(eff.omega_e1(t)), np.asarray(eff.omega_e2(t))
        want1, want2 = designed_pair(t)
        scale = np.max(np.hypot(want1, want2))
        same = max(np.max(np.abs(got1 - want1)), np.max(np.abs(got2 - want2)))
        flipped = max(np.max(np.abs(got1 + want1)), np.max(np.abs(got2 + want2)))
        assert min(same, flipped) < 1e-9 * scale

    def test_peak_decreases_with_leg_duration(self):
        peaks = [peak_amplitude(design_chainwise(tf, 1270 * np.pi, 0.03))
                 for tf in (4.0, 6.0, 8.0, 12.0)]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_design_checks_channels_in_one_angle_evaluation(self, monkeypatch):
        # The angle polynomials run on the 3 boundary-check times, then on
        # the 257 probe times once for the gauge sign and once for the
        # finiteness check of all four channels.
        angles = ThreeLevelAux.angles
        calls = []

        def counted(aux, t):
            calls.append(np.size(t))
            return angles(aux, t)

        monkeypatch.setattr(ThreeLevelAux, "angles", counted)
        design_chainwise(*CHAIN_STAR)
        assert calls == [3, 257, 257]

    def test_sample_evaluates_angles_once(self, chain_schedule, monkeypatch):
        # All four sampled channels come from one couplings call.
        angles = ThreeLevelAux.angles
        calls = []

        def counted(aux, t):
            calls.append(np.size(t))
            return angles(aux, t)

        monkeypatch.setattr(ThreeLevelAux, "angles", counted)
        times, values, _ = chain_schedule.sample(100)
        assert calls == [times.size]
        assert np.array_equal(values["omega1"], values["omega4"])

    @pytest.mark.parametrize("name", ["p2_schedule", "chain_schedule"])
    def test_replaced_couplings_give_channels(self, name, request):
        import dataclasses

        sched = request.getfixturevalue(name)

        def doubled(t):
            return 2.0 * sched.couplings(t)

        new = dataclasses.replace(sched, couplings=doubled)
        t = np.linspace(0.0, sched.duration, 301)
        assert new.channel_names == sched.channel_names
        for k, chan in enumerate(new.channel_names):
            assert np.array_equal(new.channels[chan](t), doubled(t)[..., k])

    def test_stacked_channel_check_names_channel(self, chain_schedule):
        import dataclasses

        def broken(t):
            out = chain_schedule.couplings(t).copy()
            out[..., 2] = np.nan
            return out

        with pytest.raises(ValueError, match="'omega3' is not finite"):
            dataclasses.replace(chain_schedule, couplings=broken)
        with pytest.raises(ValueError, match="one column per channel"):
            dataclasses.replace(chain_schedule,
                                couplings=lambda t: chain_schedule.couplings(t)[..., :3])

    def test_epsilon_window_enforced(self):
        with pytest.raises(ValueError, match="epsilon"):
            design_chainwise(8.0, 1270 * np.pi, 1e-5)
        with pytest.raises(ValueError):
            design_chainwise(8.0, 1270 * np.pi, 1.0)
        with pytest.raises(ValueError):
            design_chainwise(8.0, -1270 * np.pi, 0.03)


class TestPeakAmplitude:
    def test_designed_leg_samples_its_profile_once(self, chain_schedule, monkeypatch):
        # A designed chainwise leg is read from its record: one angle
        # evaluation on the 257-point floor probe and one on the 2001 peak
        # samples (then one on the candidates of no other row), and the
        # stacked channels are never evaluated.  The same
        # leg without its record samples its first channel, a column of one
        # couplings call.
        stacked = []

        def counted_couplings(t):
            stacked.append(np.size(t))
            return chain_schedule.couplings(t)

        spy = dataclasses.replace(chain_schedule, couplings=counted_couplings)
        bare = dataclasses.replace(spy, design={})
        angles = protocols_mod._scaled_angles
        calls = []

        def counted_angles(t, *args):
            calls.append(np.size(t))
            return angles(t, *args)

        monkeypatch.setattr(protocols_mod, "_scaled_angles", counted_angles)
        stacked.clear()
        peak_amplitude(spy)
        assert calls == [257, 2001, 0]
        assert stacked == []
        peak_amplitude(bare)
        assert stacked == [2001]

    @pytest.mark.parametrize("protocol", [
        "p1", "p2", "chainwise", "chainwise-detection", "chainwise-eps0.001", "chainwise-eps0.5",
    ])
    def test_record_peak_equals_sampled_channel_bitwise(self, protocol):
        # The same leg without its design record takes the channel path.
        design = {"p1": design_protocol1, "p2": design_protocol2,
                  "chainwise": lambda t_f, d: design_chainwise(t_f, d, 0.03),
                  "chainwise-detection": lambda t_f, d: design_chainwise(
                      t_f, d, 0.03, direction="detection"),
                  "chainwise-eps0.001": lambda t_f, d: design_chainwise(t_f, d, 0.001),
                  "chainwise-eps0.5": lambda t_f, d: design_chainwise(t_f, d, 0.5)}[protocol]
        for t_f, delta in ((1.0, 1000 * np.pi), (3.3, 2718.0), (8.0, 5000 * np.pi)):
            leg = design(t_f, delta)
            assert peak_amplitude(leg) == peak_amplitude(dataclasses.replace(leg, design={}))


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

    def test_scalar_times_match_array(self, p1_schedule_clamped, chain_schedule):
        for leg in (p1_schedule_clamped, chain_schedule):
            rt = build_roundtrip(leg, 0.1)
            t_leg = leg.duration
            times = np.array([-0.5, 0.0, t_leg / 3, t_leg, t_leg + 0.05, t_leg + 0.1,
                              rt.duration - 0.2, rt.duration, rt.duration + 0.5])
            for chan in (*rt.channels.values(), rt.delta_two):
                values = chan(times)
                for k, t in enumerate(times):
                    for scalar in (float(t), np.float64(t), np.array(t)):
                        got = chan(scalar)
                        assert np.shape(got) == ()
                        assert got == values[k]

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

    def test_chain_h_evaluates_angles_once(self, chain_schedule, monkeypatch):
        # All four channels come from one effective-pair evaluation.
        h = hamiltonian_rule(chain_schedule)
        angles = ThreeLevelAux.angles
        calls = []

        def counted(aux, t):
            calls.append(np.size(t))
            return angles(aux, t)

        monkeypatch.setattr(ThreeLevelAux, "angles", counted)
        h.matrices(np.linspace(0.0, chain_schedule.duration, 64))
        assert calls == [64]

    @pytest.mark.parametrize("direction", ["creation", "detection"])
    @pytest.mark.parametrize("epsilon", [0.001, 0.2])
    def test_chain_h_equals_per_channel_form_bitwise(self, direction, epsilon):
        # The stacked channels change how often the pair runs, not H(t): the
        # reference assembles H from each channel's own closed form.
        t_f, delta = 6.0, 1500 * np.pi
        leg = design_chainwise(t_f, delta, epsilon, direction)
        d = leg.design
        pair = _chain_effective_couplings(d["aux"])
        root, gauge, floor = np.sqrt(2.0 * delta), d["gauge"], d["floor"]

        def omega1(t):
            e1, e2 = pair(t)
            s = e1**2 + e2**2
            return root * np.where(s > floor, s**0.25, 0.0)

        def lab(k):
            def omega(t):
                e = pair(t)
                s = e[0] ** 2 + e[1] ** 2
                with np.errstate(divide="ignore", invalid="ignore"):
                    val = gauge * root * e[k] / s**0.25
                return np.where(s > floor, val, 0.0)
            return omega

        want = _chain_rule(5, (0.0, delta, 0.0, delta, 0.0),
                           stack_channels((omega1, lab(0), lab(1), omega1)))
        t = np.linspace(0.0, t_f, 5001)
        assert np.array_equal(hamiltonian_rule(leg).matrices(t), want.matrices(t))

        rt = build_roundtrip(leg, 0.1)
        want_rt = _chain_rule(5, (0.0, delta, 0.0, delta, 0.0),
                              stack_channels(tuple(rt.channels.values())))
        t_rt = np.linspace(0.0, rt.duration, 5001)
        assert np.array_equal(hamiltonian_rule(rt).matrices(t_rt), want_rt.matrices(t_rt))

    def test_chain_roundtrip_h_evaluates_each_leg_on_its_own_times(self, chain_schedule,
                                                                  monkeypatch):
        # Three distinct channels (omega1 = omega4 stays one object), each
        # evaluating the forward design only before the hold and the return
        # design only after it.
        h = hamiltonian_rule(build_roundtrip(chain_schedule, 0.1))
        angles = ThreeLevelAux.angles
        calls = []

        def counted(aux, t):
            calls.append(np.size(t))
            return angles(aux, t)

        monkeypatch.setattr(ThreeLevelAux, "angles", counted)
        h.matrices(np.linspace(0.0, 16.1, 1000))
        assert len(calls) <= 6
        assert sum(calls) <= 3 * 1000

    def test_chain_effective_h_evaluates_angles_once(self, chain_schedule, monkeypatch):
        # One angle evaluation gives both effective couplings.
        h = effective_rule(chain_schedule)
        angles = ThreeLevelAux.angles
        calls = []

        def counted(aux, t):
            calls.append(np.size(t))
            return angles(aux, t)

        monkeypatch.setattr(ThreeLevelAux, "angles", counted)
        h.matrices(np.linspace(0.0, chain_schedule.duration, 64))
        assert calls == [64]

    def test_chain_roundtrip_effective_h_evaluates_each_channel_once(self, chain_schedule,
                                                                     monkeypatch):
        # The generic reduction makes one couplings call per H(t) call, which
        # runs the forward and the return design on their own times.
        h = effective_rule(build_roundtrip(chain_schedule, 0.1))
        angles = ThreeLevelAux.angles
        calls = []

        def counted(aux, t):
            calls.append(np.size(t))
            return angles(aux, t)

        monkeypatch.setattr(ThreeLevelAux, "angles", counted)
        h.matrices(np.linspace(0.0, 16.1, 1000))
        assert len(calls) <= 2
        assert sum(calls) <= 1000

    def test_effective_h_equals_per_coupling_form_bitwise(self, chain_schedule):
        # Evaluating the couplings jointly changes how often they run, not H(t).
        pair = _chain_effective_couplings(chain_schedule.design["aux"])
        want = _chain_rule(3, np.zeros(3),
                           stack_channels((lambda t: pair(t)[0], lambda t: pair(t)[1])))
        t = np.linspace(0.0, chain_schedule.duration, 5001)
        assert np.array_equal(effective_rule(chain_schedule).matrices(t), want.matrices(t))

        rt = build_roundtrip(chain_schedule, 0.1)
        om2, om3, delta = rt.channels["omega2"], rt.channels["omega3"], rt.delta_single

        def reduced(om):
            return lambda t: -om(t) * np.sqrt(om2(t) ** 2 + om3(t) ** 2) / (2.0 * delta)

        want_rt = _chain_rule(3, np.zeros(3), stack_channels((reduced(om2), reduced(om3))))
        t_rt = np.linspace(0.0, rt.duration, 5001)
        assert np.array_equal(effective_rule(rt).matrices(t_rt), want_rt.matrices(t_rt))

    def test_p2_h_evaluates_omega_once(self, p2_schedule, monkeypatch):
        # Pump and Stokes are the same channel.
        omega = p2_schedule.channels["omega"]
        calls = []

        def counted(t):
            calls.append(np.size(t))
            return omega(t)

        monkeypatch.setitem(p2_schedule.channels, "omega", counted)
        hamiltonian_rule(p2_schedule).matrices(np.linspace(0.0, p2_schedule.duration, 64))
        assert calls == [64]

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

    def test_h_bytes_pinned(self):
        # Refactors of the drive plumbing must leave H(t) bit for bit: every
        # full and eliminated rule of the three legs and their 0.1 us round
        # trips, on 5001 points.  The p1 leg keeps its clamped two-photon
        # detuning, so a time-dependent diagonal is covered too.
        legs = {
            "p1": design_protocol1(*P1_STAR, mode=DeltaTwoMode.exact_clamped()),
            "p2": design_protocol2(*P2_STAR),
            "chainwise": design_chainwise(*CHAIN_STAR),
        }
        got = {}
        for name, leg in legs.items():
            for tag, sched in (("leg", leg), ("roundtrip", build_roundtrip(leg, 0.1))):
                t = np.linspace(0.0, sched.duration, 5001)
                for kind, rule in (("full", hamiltonian_rule), ("effective", effective_rule)):
                    got[name, tag, kind] = hashlib.sha256(
                        rule(sched).matrices(t).tobytes()).hexdigest()
        assert got == H_DIGESTS


# sha256 of the H(t) bytes in TestModelRules.test_h_bytes_pinned.
H_DIGESTS = {
    ("p1", "leg", "full"):
        "40ee54211a1ea58c60689e762ba3a127537a39c215ee52c546151f6bec3546c4",
    ("p1", "leg", "effective"):
        "7e92ab40db8bfa2c9fe37b9df9ecedc0134b660eef6d8a7ead0c1c756da49753",
    ("p1", "roundtrip", "full"):
        "ae21f5fd143f0cd163fd0c249eeec1fda77a17e11dd1dcd0c89b6639d5541a32",
    ("p1", "roundtrip", "effective"):
        "6d12b59d8ae4ba5865bf383ed2e010693ee308e33eeddaa71c2509142f3bb986",
    ("p2", "leg", "full"):
        "3ac587ed86857c33deefbf7765aa817e77e74ec511d0dcda8bfff379b03e86b6",
    ("p2", "leg", "effective"):
        "e39daea3f7ca0da5a4b5d542f6104fa4f92c76ba4889d28f9d77b07b88c910f6",
    ("p2", "roundtrip", "full"):
        "25f705ed2b3877ff14d229143db3c76a7e564717a2da6dd6bb665c648a54b079",
    ("p2", "roundtrip", "effective"):
        "2889053385d163bed5a5782fee3c9b3fd7723d105de4b521d0b25f3d3da6471b",
    ("chainwise", "leg", "full"):
        "f80807320f01fb133c7b67724678c797c23919888e679b01aa77380d6f68d96a",
    ("chainwise", "leg", "effective"):
        "e90044460ede54d8ec7a94e8c8514e386a2699a86fb54e4a09a97fb7140f3a90",
    ("chainwise", "roundtrip", "full"):
        "ecd5c1ce4dfa333bff9f0256259621220a85cab31224af59b92c2005f76140a0",
    ("chainwise", "roundtrip", "effective"):
        "f90942cc1289ccedc76d2f1bd3a0f5e5226254a9450a7f3d70f7da8b7206b660",
}


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
