"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Regression constants marked FROZEN were computed once by the high-accuracy
oracle procedure: adaptive RK45 at tol 1e-10 cross-checked against the
Magnus integrator at tol 1e-10 (agreement better than 5e-11 on every value)
with step-halving confirmed below 1e-6.  The package now propagates with
Magnus only; the RK45 half of that oracle lives on as the test-local
reference of ``TestBackEndEquivalence`` in ``tests/test_qcore.py``.
"""

import numpy as np
import pytest

from chainwise_sta import (
    DecayVector,
    DensityMatrix,
    DeltaTwoMode,
    StateVector,
    TimeGrid,
    build_roundtrip,
    design_chainwise,
    design_protocol1,
    design_protocol2,
    eigenstates2,
    eigenstates3,
    fidelity,
    invariant2_rule,
    invariant3_rule,
    invariant_residual,
    peak_amplitude,
    propagate_density,
    propagate_state,
    solve_aux_polynomials,
)
from chainwise_sta.protocols import effective_rule, hamiltonian_rule
from chainwise_sta.sweeps import SweepSpec, run_scenario, sweep_efficiency

from conftest import CHAIN_STAR, LAMBDA_DECAYS, M_DECAYS, P1_STAR, P2_STAR

# FROZEN oracle values (see module docstring), asserted at +-1e-4.
FROZEN_P1_EFFICIENCY = 0.9655720635
FROZEN_P2_EFFICIENCY = 0.9557917193
FROZEN_M5_EFFICIENCY = 0.9189490127

# FROZEN peak residuals of the designed invariant/Hamiltonian pairs at the
# default 2001-sample diagnostic grid (the clamped leg-edge detuning gives
# protocol 1 its deliberately larger but stable residual).
FROZEN_RESIDUAL_BOUNDS = {"p1": 1.2e-2, "p2": 1.0e-4, "chainwise": 5.0e-5}


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion:02d} PASS: {detail}")


def lossless_transport(schedule, aux, eigenstate_fn, target_level):
    eff = effective_rule(schedule)
    grid = TimeGrid(0.0, schedule.duration, 401)
    start = eigenstate_fn(aux, 0.0)[0]
    traj = propagate_state(eff, start, grid, tol=1e-10)
    fids = np.array([
        fidelity(eigenstate_fn(aux, t)[0], StateVector(traj.states[i]))
        for i, t in enumerate(grid.times)
    ])
    return fids, traj.populations[-1, target_level]


def lossy_final_populations(schedule, decays, tol=1e-8):
    h = hamiltonian_rule(schedule)
    rho0 = DensityMatrix.pure(StateVector.basis(h.dimension, 0))
    grid = TimeGrid(0.0, schedule.duration, 801)
    traj = propagate_density(h, decays, rho0, grid, tol=tol,
                             breakpoints=schedule.breakpoints)
    return traj


def test_criterion_1_protocol1_peak_amplitude():
    sched = design_protocol1(*P1_STAR, beta=np.pi / 1.99)
    peak = peak_amplitude(sched)
    assert peak == pytest.approx(30 * np.pi, rel=5e-3)
    report(1, f"protocol-1 coupling {peak:.4f} rad/us vs 30pi = {30 * np.pi:.4f} (0.5%)")


def test_criterion_2_protocol2_peak_amplitude():
    sched = design_protocol2(*P2_STAR)
    peak = peak_amplitude(sched)
    assert peak == pytest.approx(30 * np.pi, rel=5e-3)
    report(2, f"protocol-2 peak {peak:.4f} rad/us vs 30pi = {30 * np.pi:.4f} (0.5%)")


def test_criterion_3_chainwise_peak_and_midpoint():
    t_f, delta, eps = CHAIN_STAR
    sched = design_chainwise(t_f, delta, eps)
    peak = peak_amplitude(sched)
    assert peak == pytest.approx(40 * np.pi, rel=0.10)
    # Closed-form midpoint: chi = vartheta = pi/4, chi_dot = 0,
    # vartheta_dot = 3 pi / (4 t_f).
    e_mid = 2 * (3 * np.pi / (4 * t_f)) * np.sin(np.pi / 4)
    expected_mid = (4 * delta**2 * 2 * e_mid**2) ** 0.25
    got_mid = float(sched.channels["omega1"](t_f / 2))
    assert got_mid == pytest.approx(expected_mid, rel=1e-9)
    assert got_mid == pytest.approx(68.6, rel=1e-2)
    report(3, f"chain peak {peak:.3f} vs 40pi (10%); midpoint {got_mid:.3f} vs 68.6 (1%)")


def test_criterion_4_delta_two_insignificance():
    decays = DecayVector(LAMBDA_DECAYS)

    def efficiency(mode, t_f, delta):
        sched = design_protocol1(t_f, delta, mode=mode)
        h = hamiltonian_rule(sched)
        rho0 = DensityMatrix.pure(StateVector.basis(3, 0))
        traj = propagate_density(h, decays, rho0, TimeGrid(0.0, t_f, 2), tol=1e-6)
        return traj.populations[-1, 2]

    clamped = DeltaTwoMode.exact_clamped()
    dropped = DeltaTwoMode.dropped()
    star_gap = abs(efficiency(clamped, *P1_STAR) - efficiency(dropped, *P1_STAR))
    assert star_gap <= 0.01

    worst = 0.0
    for t_f in np.linspace(1.0, 6.0, 5):
        for delta in np.linspace(1000 * np.pi, 5000 * np.pi, 5):
            gap = abs(efficiency(clamped, t_f, delta) - efficiency(dropped, t_f, delta))
            worst = max(worst, gap)
    assert worst <= 0.02
    report(4, f"two-photon handling: star gap {star_gap:.2e} <= 0.01, "
              f"grid worst {worst:.2e} <= 0.02")


def test_criterion_5_lossless_transport():
    p1 = design_protocol1(*P1_STAR, mode=DeltaTwoMode.exact_clamped())
    fids, final = lossless_transport(p1, p1.design["aux"], eigenstates2, 1)
    assert np.min(fids) >= 0.999 and final >= 0.999
    worst = np.min(fids)

    p2 = design_protocol2(*P2_STAR)
    fids, final2 = lossless_transport(p2, p2.design["aux"], eigenstates2, 1)
    assert np.min(fids) >= 0.999 and final2 >= 0.999
    worst = min(worst, np.min(fids))

    chain = design_chainwise(*CHAIN_STAR)
    fids, final3 = lossless_transport(chain, chain.design["aux"], eigenstates3, 2)
    assert np.min(fids) >= 0.999 and final3 >= 0.999
    worst = min(worst, np.min(fids))
    report(5, f"transport fidelity >= 0.999 everywhere (worst {worst:.6f}); "
              f"final populations {final:.5f}/{final2:.5f}/{final3:.5f}")


def test_criterion_6_lossy_end_to_end():
    lam = DecayVector(LAMBDA_DECAYS)
    m = DecayVector(M_DECAYS)

    traj = lossy_final_populations(design_protocol1(*P1_STAR), lam)
    p1_eff = traj.populations[-1, 2]
    p1_peak_e = np.max(traj.populations[:, 1])
    assert p1_eff >= 0.9 and p1_peak_e <= 0.02
    assert p1_eff == pytest.approx(FROZEN_P1_EFFICIENCY, abs=1e-4)

    traj = lossy_final_populations(design_protocol2(*P2_STAR), lam)
    p2_eff = traj.populations[-1, 2]
    p2_peak_e = np.max(traj.populations[:, 1])
    assert p2_eff >= 0.9 and p2_peak_e <= 0.02
    assert p2_eff == pytest.approx(FROZEN_P2_EFFICIENCY, abs=1e-4)

    traj = lossy_final_populations(design_chainwise(*CHAIN_STAR), m)
    m5_eff = traj.populations[-1, 4]
    m5_peaks = (np.max(traj.populations[:, 1]), np.max(traj.populations[:, 3]))
    assert m5_eff >= 0.9 and max(m5_peaks) <= 0.02
    assert m5_eff == pytest.approx(FROZEN_M5_EFFICIENCY, abs=1e-4)
    report(6, f"efficiencies p1={p1_eff:.6f} p2={p2_eff:.6f} m5={m5_eff:.6f} "
              f"(frozen +-1e-4, all >= 0.9; excited peaks <= 0.02)")


def test_criterion_7_roundtrip_detection():
    details = []
    for protocol, (t_f, delta), decays, kwargs in (
        ("p1", P1_STAR[:2], LAMBDA_DECAYS, {}),
        ("p2", P2_STAR[:2], LAMBDA_DECAYS, {}),
        ("chainwise", CHAIN_STAR[:2], M_DECAYS, {"epsilon": CHAIN_STAR[2]}),
    ):
        res = run_scenario(protocol, t_f, delta, DecayVector(decays),
                           roundtrip_hold=0.1, **kwargs)
        assert res.final_efficiency >= res.one_way_efficiency**2 - 0.02
        details.append(f"{protocol}: rt={res.final_efficiency:.4f} "
                       f"one-way={res.one_way_efficiency:.4f}")

    # Three-level return leg repeats the forward pulses unchanged.
    leg = design_protocol1(*P1_STAR, mode=DeltaTwoMode.exact_clamped())
    rt = build_roundtrip(leg, 0.1)
    t_local = np.linspace(0.01, leg.duration - 0.01, 101)
    assert np.allclose(rt.channels["omega"](t_local),
                       rt.channels["omega"](t_local + leg.duration + 0.1), atol=1e-12)

    # Five-level return leg reverses the sweep angle boundary conditions.
    chain_rt = build_roundtrip(design_chainwise(*CHAIN_STAR), 0.1)
    back_aux = chain_rt.design["backward"]["aux"]
    assert back_aux.angles(0.0)[2] == pytest.approx(np.pi / 2, abs=1e-12)
    assert back_aux.angles(CHAIN_STAR[0])[2] == pytest.approx(0.0, abs=1e-12)
    report(7, "; ".join(details) + " (all >= one-way^2 - 0.02)")


def test_criterion_8_elimination_oracle_equivalence():
    # Starred points, lossless: full model vs eliminated model.
    p2 = design_protocol2(*P2_STAR)
    grid = TimeGrid(0.0, p2.duration, 2)
    full = propagate_state(hamiltonian_rule(p2), StateVector.basis(3, 0), grid)
    eff = propagate_state(effective_rule(p2), StateVector.basis(2, 0), grid)
    lambda_gap = abs(full.populations[-1, 2] - eff.populations[-1, 1])
    assert lambda_gap <= 0.02

    chain = design_chainwise(*CHAIN_STAR)
    grid = TimeGrid(0.0, chain.duration, 2)
    full5 = propagate_state(hamiltonian_rule(chain), StateVector.basis(5, 0), grid)
    eff3 = propagate_state(effective_rule(chain), StateVector.basis(3, 0), grid)
    m_gap = abs(full5.populations[-1, 4] - eff3.populations[-1, 2])
    assert m_gap <= 0.03

    # The gap shrinks monotonically as the detuning ratio grows.
    from chainwise_sta import LambdaParams, build_lambda, reduce_lambda

    gaps = []
    for ratio in (20.0, 60.0, 200.0):
        p = LambdaParams(1.0, 1.0, delta_single=ratio, duration=20.0)
        g = TimeGrid(0.0, 20.0, 2)
        a = propagate_state(build_lambda(p), StateVector.basis(3, 0), g, tol=1e-10)
        b = propagate_state(reduce_lambda(p).hamiltonian(), StateVector.basis(2, 0),
                            g, tol=1e-10)
        gaps.append(abs(a.populations[-1, 2] - b.populations[-1, 1]))
    assert gaps[0] > gaps[1] > gaps[2]
    report(8, f"elimination gaps: ladder {lambda_gap:.2e} <= 0.02, chain {m_gap:.2e} "
              f"<= 0.03; monotone over ratios 20/60/200: "
              + " > ".join(f"{g:.1e}" for g in gaps))


def test_criterion_9_invariant_residuals():
    pairs = {
        "p1": design_protocol1(*P1_STAR, mode=DeltaTwoMode.exact_clamped()),
        "p2": design_protocol2(*P2_STAR),
        "chainwise": design_chainwise(*CHAIN_STAR),
    }
    details = []
    for name, sched in pairs.items():
        aux = sched.design["aux"]
        rule = invariant3_rule(aux) if name == "chainwise" else invariant2_rule(aux)
        eff = effective_rule(sched)
        base = invariant_residual(rule, eff, TimeGrid(0.0, sched.duration, 2001))
        fine = invariant_residual(rule, eff, TimeGrid(0.0, sched.duration, 4001))
        assert base <= FROZEN_RESIDUAL_BOUNDS[name]
        assert fine <= FROZEN_RESIDUAL_BOUNDS[name]
        assert abs(fine - base) <= 0.10 * base
        details.append(f"{name}: {base:.2e} <= {FROZEN_RESIDUAL_BOUNDS[name]:.0e}")
    report(9, "designed-pair residuals stable under 2x refinement; " + "; ".join(details))


def test_criterion_10_structural_invariants(monkeypatch):
    # Angle-polynomial boundary conditions exact to 1e-12.
    for t_f, eps, direction in ((4.0, 0.03, "creation"), (8.0, 0.12, "detection")):
        aux = solve_aux_polynomials(t_f, eps, direction)
        start = 0.0 if direction == "creation" else np.pi / 2
        assert abs(aux.angles(0.0)[0] - eps) <= 1e-12
        assert abs(aux.angles(t_f)[0] - eps) <= 1e-12
        assert abs(aux.angles(t_f / 2)[0] - np.pi / 4) <= 1e-12
        assert abs(aux.angles(0.0)[1]) <= 1e-12 and abs(aux.angles(t_f)[1]) <= 1e-12
        assert abs(aux.angles(0.0)[2] - start) <= 1e-12
        assert abs(aux.angles(0.0)[3]) <= 1e-12
        assert abs(aux.angles(t_f)[3]) <= 1e-12

    # Four-channel balancing identity to 1e-9 relative.
    chain = design_chainwise(*CHAIN_STAR)
    t = np.linspace(0.0, chain.duration, 2001)
    o = {k: channel(t) for k, channel in chain.channels.items()}
    root = np.sqrt(o["omega2"] ** 2 + o["omega3"] ** 2)
    scale = np.maximum(root, 1e-12 * np.max(root))
    assert np.max(np.abs(o["omega1"] - root) / scale) <= 1e-9
    assert np.max(np.abs(o["omega4"] - root) / scale) <= 1e-9

    # Trace monotone, Hermiticity and positivity on a lossy reference run.
    traj = lossy_final_populations(design_protocol2(*P2_STAR), DecayVector(LAMBDA_DECAYS))
    assert np.all(np.diff(traj.norms_sq) <= 1e-7)
    mats = traj.states[:, :, None] * traj.states[:, None, :].conj()  # rho = psi psi^dagger
    assert np.max(np.abs(mats - np.swapaxes(mats, 1, 2).conj())) <= 1e-9
    assert np.min(np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, 1, 2).conj()))) >= -1e-8

    # Sweep maps identical regardless of worker count (bitwise).
    spec = SweepSpec("p2", (2.0, 4.0, 2), (1200 * np.pi, 1800 * np.pi, 2))
    monkeypatch.setenv("CHAINWISE_STA_THREADS", "1")
    a = sweep_efficiency(spec, DecayVector(LAMBDA_DECAYS))
    monkeypatch.setenv("CHAINWISE_STA_THREADS", "3")
    b = sweep_efficiency(spec, DecayVector(LAMBDA_DECAYS))
    assert np.array_equal(a.cells, b.cells)
    report(10, "boundary conditions 1e-12; channel identity 1e-9; trace/Hermiticity/"
               "positivity preserved; sweeps order-independent bitwise")
