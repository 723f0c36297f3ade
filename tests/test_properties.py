"""Property tests over random valid parameter sets.

Every field of Params is drawn within a factor of two of Params.default(),
which keeps the set physical and well conditioned.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wipdyn import (Controls, FullState, Params, TorqueProfile,
                    accelerations_q6, compare_trajectories, f_of_alpha,
                    f_prime, full_rhs, full_to_reduced, h_const,
                    lagrange_dalembert_rhs, mass_matrix, power_balance_error,
                    reduced_to_full, simulate, u_from_tau)
from wipdyn import dynamics_reduced

# deterministic examples, no example database on disk
property_settings = settings(derandomize=True, deadline=None, max_examples=60, database=None)

params = st.fixed_dictionaries(
    {k: st.floats(0.5 * v, 2.0 * v) for k, v in Params.default().to_dict().items()}
).map(Params.from_dict)


@st.composite
def case(draw):
    """A parameter set, a constrained full state and a pair of wheel torques."""
    def u(lo=-1.0, hi=1.0):
        return draw(st.floats(lo, hi))

    p = draw(params)
    s = FullState.constrained(u(), u(), u(-math.pi, math.pi), u(-1.5, 1.5),
                              u(-2.0, 2.0), u(-2.0, 2.0), u(), u(-2.0, 2.0), u(-2.0, 2.0), p)
    return p, s, Controls(u(), u())


def _shape_accels(s, tau1, tau2, p):
    out = full_rhs(s, Controls(tau1, tau2), p)
    return np.array([out.alpha_ddot, out.phi1_ddot, out.phi2_ddot])


@property_settings
@given(case())
def test_torque_response_identity(c):
    # M(alpha) (a(tau) - a(0)) = (0, tau1, tau2): the closed-form solve is
    # linear in the torques with the mass matrix as its inverse
    p, s, ctl = c
    M = mass_matrix(s.alpha, p)
    a_tau = _shape_accels(s, ctl.tau1, ctl.tau2, p)
    a_0 = _shape_accels(s, 0.0, 0.0, p)
    resid = M @ (a_tau - a_0) - np.array([0.0, ctl.tau1, ctl.tau2])
    scale = np.max(np.abs(M)) * max(np.max(np.abs(a_tau)), np.max(np.abs(a_0)), 1.0)
    assert np.max(np.abs(resid)) <= 1e-12 * scale


@property_settings
@given(case())
def test_accelerations_match_oracle(c):
    p, s, ctl = c
    tau = np.array([0.0, 0.0, 0.0, 0.0, ctl.tau1, ctl.tau2])
    ref = lagrange_dalembert_rhs(s.q, s.q_dot, tau, p)
    err = np.max(np.abs(accelerations_q6(s, ctl, p) - ref))
    assert err <= 1e-10 * max(1.0, np.max(np.abs(ref)))


@property_settings
@given(case())
def test_full_reduced_round_trip(c):
    p, s, _ = c
    red = full_to_reduced(s, p)
    back = reduced_to_full(red, p, phi1_0=s.phi1, phi2_0=s.phi2, theta_0=s.theta)
    assert back.q == pytest.approx(s.q, rel=1e-12, abs=1e-12)
    assert back.q_dot == pytest.approx(s.q_dot, rel=1e-12, abs=1e-12)
    again = full_to_reduced(reduced_to_full(red, p), p)
    for name in ("x", "y", "theta", "phi", "alpha", "alpha_dot", "p1", "p2"):
        assert getattr(again, name) == pytest.approx(getattr(red, name), rel=1e-12, abs=1e-12)


@property_settings
@given(case())
def test_momentum_rates_of_full_model_match_reduced_rhs(c):
    # differentiate p1 = h phi_dot + r m_b b cos(alpha) alpha_dot and
    # p2 = f(alpha) theta_dot along the full model's accelerations
    p, s, ctl = c
    out = full_rhs(s, ctl, p)
    ca, sa = math.cos(s.alpha), math.sin(s.alpha)
    thd = p.r / p.d * (s.phi2_dot - s.phi1_dot)
    p1_dot = (h_const(p) * 0.5 * (out.phi1_ddot + out.phi2_ddot)
              + p.r * p.m_b * p.b * (ca * out.alpha_ddot - sa * s.alpha_dot ** 2))
    p2_dot = (float(f_of_alpha(s.alpha, p)) * p.r / p.d * (out.phi2_ddot - out.phi1_ddot)
              + float(f_prime(s.alpha, p)) * s.alpha_dot * thd)
    red = full_to_reduced(s, p)
    y = (red.x, red.y, red.theta, red.phi, red.alpha, red.alpha_dot, red.p1, red.p2)
    rates = dynamics_reduced.ode_rhs(y, *u_from_tau(ctl.tau1, ctl.tau2, p), p)[6:]
    assert rates == pytest.approx([p1_dot, p2_dot], rel=1e-10, abs=1e-11)


# Short runs for the trajectory properties: 0.1 s at dt = 5e-4 under the
# case's constant torques, fewer examples to keep them cheap.  Worst over
# 3000 uniform random cases (600 random hypothesis examples): full vs reduced
# 1.1e-11 (1.8e-11), the RK4 truncation of two coordinate systems, and power
# balance 9.8e-5 (8.4e-5), the O(dt^2) central difference of the energy.
run_settings = settings(property_settings, max_examples=30)


def _short_run(c):
    p, s, ctl = c
    profile = TorqueProfile.constant(ctl.tau1, ctl.tau2)
    return p, profile, simulate("full", s, profile, 0.1, 5e-4, p)


@run_settings
@given(case())
def test_full_and_reduced_trajectories_agree(c):
    p, profile, full = _short_run(c)
    red = simulate("reduced", full_to_reduced(c[1], p), profile, 0.1, 5e-4, p)
    stats = compare_trajectories(full, red, p)
    assert max(st.max_abs for st in stats.values()) <= 1e-9


@run_settings
@given(case())
def test_power_balance(c):
    p, profile, full = _short_run(c)
    assert power_balance_error(full, profile, p) <= 1e-3
