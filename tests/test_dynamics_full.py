import math
from dataclasses import astuple

import numpy as np
import pytest

from conftest import constrained_mass, ddt
from wipdyn import (Controls, FullState, Params, TorqueProfile, accelerations_q6,
                    dynamics_reduced, f_of_alpha, full_to_reduced,
                    h_const, lagrange_dalembert_rhs, shape_mass, simulate, total_energy)
from wipdyn.model import rolling_rates
from wipdyn.validation import power_balance_error


def _rest(p, alpha=0.0, theta=0.0):
    return FullState.constrained(0, 0, theta, alpha, 0, 0, 0, 0, 0, p)


def test_upright_rest_is_equilibrium(p):
    assert set(ddt(_rest(p), 0.0, 0.0, p).values()) == {0.0}


def test_small_tilt_is_unstable(p):
    for al in (0.05, -0.05, 0.3, -0.3):
        alpha_dd = ddt(_rest(p, alpha=al), 0.0, 0.0, p)["alpha_dot"]
        assert math.copysign(1.0, alpha_dd) == math.copysign(1.0, al)


def test_reconstruct_group_rates_straight_and_spin(p):
    assert rolling_rates(0.0, 2.0, 2.0, p) == pytest.approx((2.0 * p.r, 0.0, 0.0))
    spin = FullState.constrained(0, 0, 0.7, 0.1, 0, 0, 0, -1.5, 1.5, p)
    out = ddt(spin, 0.0, 0.0, p)
    assert (out["x"], out["y"]) == (0.0, 0.0)
    assert out["theta"] == pytest.approx(2.0 * 1.5 * p.r / p.d)


def test_momenta_of_rest_and_straight_roll(p):
    rest = full_to_reduced(_rest(p), p)
    assert (rest.p1, rest.p2) == (0.0, 0.0)
    roll = full_to_reduced(FullState.constrained(0, 0, 0, 0.0, 0, 0, 0.0, 1.0, 1.0, p), p)
    assert roll.p1 == pytest.approx(h_const(p), rel=1e-15)
    assert roll.p2 == 0.0


def test_constrained_mass_spd_with_shape_mass_schur_complement(p, rng):
    # the referee's M(alpha); Schur vs shape_mass worst 2.6e-13 relative over
    # 2000 random alpha
    for al in rng.uniform(-2.0, 2.0, 10):
        M = constrained_mass(al, p)
        assert np.allclose(M, M.T)
        assert np.min(np.linalg.eigvalsh(M)) > 0.0
        # Schur complement of the wheel block is the effective tilt inertia
        schur = M[0, 0] - M[0, 1:] @ np.linalg.solve(M[1:, 1:], M[1:, 0])
        assert schur == pytest.approx(float(shape_mass(al, p)), rel=1e-12)


def test_wheel_sum_and_difference_keep_their_digits():
    # I_theta r^2/d^2 is about 5.5e8 while h/2 is about 0.5: a1 + a3 and
    # a1 - a3 formed from a1 and a3 cancel, and det = h m(0)/2 = 2.2e-10 came
    # out 0.0 at alpha = 0, so simulate failed at step 0 and alpha_dd was off
    # the reduced model's by up to 15x nearby.  Stated directly: 4.5e-10.
    p = Params(m_b=1.0, m_W=2.1013107217121155e-10, b=1.0, r=1.0, d=0.001073752389865853,
               I_Bxx=147.9010845976701, I_Byy=1.0887478927358027e-16,
               I_Bz=0.0013499085739770965, I_Wyy=1.4200875871707882e-11,
               I_Wzz=244.00714342744936, g=9.81)
    traj = simulate("full", _rest(p), TorqueProfile.zero(), 1e-2, 1e-3, p)
    assert np.all(traj.states == 0.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        al = rng.uniform(-0.1, 0.1)
        s = FullState.constrained(0, 0, 0, al, 0, 0, *rng.uniform(-1.0, 1.0, 3), p)
        expected = dynamics_reduced.ode_rhs(astuple(full_to_reduced(s, p)), 0.0, 0.0, p)[5]
        got = ddt(s, 0.0, 0.0, p)["alpha_dot"]
        assert got == pytest.approx(expected, rel=1e-8)


def test_accelerations_match_multiplier_oracle(p, random_constrained, rng):
    # independent referee, exact to rounding: any mismatch above 1e-10
    # relative is a bug
    worst = 0.0
    for _ in range(25):
        s = random_constrained()
        c = Controls(rng.uniform(-1, 1), rng.uniform(-1, 1))
        tau = np.zeros(6)
        tau[4], tau[5] = c.tau1, c.tau2
        ref = lagrange_dalembert_rhs(s.q, s.q_dot, tau, p)
        mine = accelerations_q6(s, c, p)
        worst = max(worst, np.max(np.abs(mine - ref)) / max(1.0, np.max(np.abs(ref))))
    assert worst <= 1e-10


def test_momentum_balance_pointwise(p, random_constrained, rng):
    # d/dt of the momenta computed through the accelerations must equal the
    # momentum equations m_b r b sin(alpha) theta_dot^2 + u1 and
    # -m_b b r sin(alpha) phi_dot theta_dot + u2
    for _ in range(20):
        s = random_constrained()
        c = Controls(rng.uniform(-1, 1), rng.uniform(-1, 1))
        out = ddt(s, c.tau1, c.tau2, p)
        phid = 0.5 * (s.phi1_dot + s.phi2_dot)
        phidd = 0.5 * (out["phi1_dot"] + out["phi2_dot"])
        thd = p.r / p.d * (s.phi2_dot - s.phi1_dot)
        thdd = p.r / p.d * (out["phi2_dot"] - out["phi1_dot"])
        ca, sa = math.cos(s.alpha), math.sin(s.alpha)
        p1_dot = (h_const(p) * phidd
                  + p.r * p.m_b * p.b * (ca * out["alpha_dot"] - sa * s.alpha_dot ** 2))
        p2_dot = (float(f_of_alpha(s.alpha, p)) * thdd
                  + float((p.I_Bxx + p.m_b * p.b ** 2 - p.I_Bz)) * math.sin(2 * s.alpha)
                  * s.alpha_dot * thd)
        u1, u2 = c.tau1 + c.tau2, p.d / (2 * p.r) * (c.tau2 - c.tau1)
        assert p1_dot == pytest.approx(p.m_b * p.r * p.b * sa * thd ** 2 + u1, abs=1e-11)
        assert p2_dot == pytest.approx(-p.m_b * p.b * p.r * sa * phid * thd + u2, abs=1e-11)


def test_counter_rotating_wheels_curvature_forcing(p):
    # equal-and-opposite wheel rates at constant tilt: the rolling momentum
    # changes only through the curvature term m_b r b sin(alpha) theta_dot^2
    omega = 1.3
    s = FullState.constrained(0, 0, 0, 0.4, 0, 0, 0.0, -omega, omega, p)
    out = ddt(s, 0.0, 0.0, p)
    thd = 2.0 * omega * p.r / p.d
    p1_dot = (h_const(p) * 0.5 * (out["phi1_dot"] + out["phi2_dot"])
              + p.r * p.m_b * p.b * math.cos(0.4) * out["alpha_dot"])
    assert p1_dot == pytest.approx(p.m_b * p.r * p.b * math.sin(0.4) * thd ** 2, rel=1e-12)


def test_zero_torque_energy_constant(p):
    start = FullState.constrained(0, 0, 0, 0.25, 0, 0, 0, 0.5, 0.7, p)
    traj = simulate("full", start, TorqueProfile.zero(), 1.5, 2e-4, p)
    drift = np.max(np.abs(traj.energy - traj.energy[0]))
    assert drift / abs(traj.energy[0]) < 1e-9


def test_power_balance_under_torque(p):
    start = FullState.constrained(0, 0, 0.2, 0.15, 0, 0, 0.1, 0.6, 0.8, p)
    profile = TorqueProfile(((0.0, 0.12, -0.05), (0.25, -0.02, 0.04)))
    traj = simulate("full", start, profile, 0.5, 1e-4, p)
    assert power_balance_error(traj, profile, p) <= 1e-9  # 4.8e-13


def test_holonomic_relation_exact_along_trajectory(p):
    from wipdyn import holonomic_residual
    start = FullState.constrained(0, 0, 0.3, 0.1, 0.2, -0.4, 0.2, 1.0, -0.6, p)
    traj = simulate("full", start, TorqueProfile(((0.0, 0.1, 0.3),)), 2.0, 1e-3, p)
    assert holonomic_residual(traj, p) <= 1e-12


def test_full_energy_against_total_energy_diagnostic(p, random_constrained):
    s = random_constrained()
    traj = simulate("full", s, TorqueProfile.zero(), 0.0, 1e-3, p)
    assert traj.energy[0] == total_energy((s.q, s.q_dot), p)


def test_ode_rhs_returns_plain_floats(p, rng):
    # a numpy scalar leaking into the integrated rhs roughly doubles its cost
    from wipdyn.dynamics_full import ode_rhs
    for _ in range(10):
        y = rng.uniform(-2.0, 2.0, 9).tolist()
        out = ode_rhs(y, *rng.uniform(-1.0, 1.0, 2).tolist(), p)
        assert len(out) == 9
        assert all(type(v) is float for v in out)
