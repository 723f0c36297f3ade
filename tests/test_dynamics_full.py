import math

import numpy as np
import pytest

from wipdyn import (Controls, FullState, TorqueProfile, accelerations_q6,
                    f_of_alpha, full_rhs, h_const, lagrange_dalembert_rhs,
                    mass_matrix, momenta_from_full, shape_mass, simulate,
                    total_energy)
from wipdyn.model import rolling_rates
from wipdyn.validation import power_balance_error


def _rest(p, alpha=0.0, theta=0.0):
    return FullState.constrained(0, 0, theta, alpha, 0, 0, 0, 0, 0, p)


def test_upright_rest_is_equilibrium(p):
    out = full_rhs(_rest(p), Controls(0.0, 0.0), p)
    assert (out.alpha_ddot, out.phi1_ddot, out.phi2_ddot) == (0.0, 0.0, 0.0)
    assert (out.x_dot, out.y_dot, out.theta_dot) == (0.0, 0.0, 0.0)


def test_small_tilt_is_unstable(p):
    for al in (0.05, -0.05, 0.3, -0.3):
        out = full_rhs(_rest(p, alpha=al), Controls(0.0, 0.0), p)
        assert math.copysign(1.0, out.alpha_ddot) == math.copysign(1.0, al)


def test_reconstruct_group_rates_straight_and_spin(p):
    assert rolling_rates(0.0, 2.0, 2.0, p) == pytest.approx((2.0 * p.r, 0.0, 0.0))
    spin = FullState.constrained(0, 0, 0.7, 0.1, 0, 0, 0, -1.5, 1.5, p)
    out = full_rhs(spin, Controls(0.0, 0.0), p)
    assert (out.x_dot, out.y_dot) == (0.0, 0.0)
    assert out.theta_dot == pytest.approx(2.0 * 1.5 * p.r / p.d)


def test_momenta_from_full_examples(p):
    assert momenta_from_full(_rest(p), p) == (0.0, 0.0)
    roll = FullState.constrained(0, 0, 0, 0.0, 0, 0, 0.0, 1.0, 1.0, p)
    p1, p2 = momenta_from_full(roll, p)
    assert p1 == pytest.approx(h_const(p), rel=1e-15)
    assert p2 == 0.0


def test_mass_matrix_spd_with_shape_mass_schur_complement(p, rng):
    for al in rng.uniform(-2.0, 2.0, 10):
        M = mass_matrix(al, p)
        assert np.allclose(M, M.T)
        assert np.min(np.linalg.eigvalsh(M)) > 0.0
        # Schur complement of the wheel block is the effective tilt inertia
        schur = M[0, 0] - M[0, 1:] @ np.linalg.solve(M[1:, 1:], M[1:, 0])
        assert schur == pytest.approx(float(shape_mass(al, p)), rel=1e-12)


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
        out = full_rhs(s, c, p)
        phid = 0.5 * (s.phi1_dot + s.phi2_dot)
        phidd = 0.5 * (out.phi1_ddot + out.phi2_ddot)
        thd = p.r / p.d * (s.phi2_dot - s.phi1_dot)
        thdd = p.r / p.d * (out.phi2_ddot - out.phi1_ddot)
        ca, sa = math.cos(s.alpha), math.sin(s.alpha)
        p1_dot = (h_const(p) * phidd
                  + p.r * p.m_b * p.b * (ca * out.alpha_ddot - sa * s.alpha_dot ** 2))
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
    out = full_rhs(s, Controls(0.0, 0.0), p)
    thd = 2.0 * omega * p.r / p.d
    p1_dot = (h_const(p) * 0.5 * (out.phi1_ddot + out.phi2_ddot)
              + p.r * p.m_b * p.b * math.cos(0.4) * out.alpha_ddot)
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
    assert power_balance_error(traj, profile, p) <= 1e-5


def test_holonomic_relation_exact_along_trajectory(p):
    from wipdyn import holonomic_residual
    start = FullState.constrained(0, 0, 0.3, 0.1, 0.2, -0.4, 0.2, 1.0, -0.6, p)
    traj = simulate("full", start, TorqueProfile(((0.0, 0.1, 0.3),)), 2.0, 1e-3, p)
    assert holonomic_residual(traj, p) <= 1e-12


def test_full_energy_against_total_energy_diagnostic(p, random_constrained):
    s = random_constrained()
    traj = simulate("full", s, TorqueProfile.zero(), 0.0, 1e-3, p)
    assert traj.energy[0] == pytest.approx(float(total_energy(s, p)), rel=1e-14)


def test_ode_rhs_returns_plain_floats(p, rng):
    # a numpy scalar leaking into the integrated rhs roughly doubles its cost
    from wipdyn.dynamics_full import ode_rhs
    for _ in range(10):
        y = rng.uniform(-2.0, 2.0, 9).tolist()
        out = ode_rhs(y, *rng.uniform(-1.0, 1.0, 2).tolist(), p)
        assert len(out) == 9
        assert all(type(v) is float for v in out)
