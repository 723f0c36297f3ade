import math

import numpy as np
import pytest

from conftest import ddt
from wipdyn import (Controls, FullState, ReducedState, TorqueProfile,
                    compare_trajectories, f_of_alpha,
                    full_to_reduced, h_const, reduced_to_full,
                    shape_mass, simulate, u_from_tau)
from wipdyn.dynamics_reduced import ode_rhs
from wipdyn.model import rolling_residuals


def momentum_rates(alpha, alpha_dot, p1, p2, u1, u2, p):
    """(p1_dot, p2_dot) of the reduced rhs; they do not depend on the group."""
    return ode_rhs((0.0, 0.0, 0.0, 0.0, alpha, alpha_dot, p1, p2), u1, u2, p)[6:]


def tilt_accel(alpha, alpha_dot, p2, p):
    """Unforced alpha_dd of the reduced rhs; it does not depend on p1."""
    return ode_rhs((0.0, 0.0, 0.0, 0.0, alpha, alpha_dot, 0.0, p2), 0.0, 0.0, p)[5]


def test_momentum_rhs_upright_passes_through_forcing(p):
    assert momentum_rates(0.0, 0.3, 1.0, 2.0, 0.7, -0.4, p) == (0.7, -0.4)


def test_momentum_rhs_straight_line_conserved(p):
    assert momentum_rates(0.5, 0.2, 1.3, 0.0, 0.0, 0.0, p) == (0.0, 0.0)


def test_momentum_rhs_horizontal_tilt_example(p):
    p1d, p2d = momentum_rates(math.pi / 2, 0.0, 0.0, 1.0, 0.0, 0.0, p)
    f_h = float(f_of_alpha(math.pi / 2, p))
    assert p1d == pytest.approx(p.m_b * p.r * p.b / f_h ** 2, rel=1e-14)
    assert p2d == 0.0


def test_momentum_rhs_matches_full_model(p, random_constrained, rng):
    # discriminating check of the p2 bracket: differentiate the momenta along
    # the full flow and compare with the closed form + forcing
    for _ in range(20):
        s = random_constrained()
        c = Controls(rng.uniform(-1, 1), rng.uniform(-1, 1))
        out = ddt(s, c.tau1, c.tau2, p)
        red = full_to_reduced(s, p)
        ca, sa = math.cos(s.alpha), math.sin(s.alpha)
        phidd = 0.5 * (out["phi1_dot"] + out["phi2_dot"])
        thdd = p.r / p.d * (out["phi2_dot"] - out["phi1_dot"])
        thd = p.r / p.d * (s.phi2_dot - s.phi1_dot)
        p1_dot = (h_const(p) * phidd
                  + p.r * p.m_b * p.b * (ca * out["alpha_dot"] - sa * s.alpha_dot ** 2))
        p2_dot = (float(f_of_alpha(s.alpha, p)) * thdd
                  + (p.I_Bxx + p.m_b * p.b ** 2 - p.I_Bz) * math.sin(2 * s.alpha)
                  * s.alpha_dot * thd)
        u1, u2 = u_from_tau(c.tau1, c.tau2, p)
        cf1, cf2 = momentum_rates(s.alpha, s.alpha_dot, red.p1, red.p2, u1, u2, p)
        assert cf1 == pytest.approx(p1_dot, abs=1e-11)
        assert cf2 == pytest.approx(p2_dot, abs=1e-11)


def test_shape_rhs_equilibria_and_instability(p):
    assert tilt_accel(0.0, 0.0, 0.37, p) == 0.0
    # sin(math.pi) = 1.2e-16, not 0: allow a few ulps of m_b g b / m(pi)
    ulps = 4 * np.finfo(float).eps * p.m_b * p.g * p.b / shape_mass(math.pi, p)
    assert tilt_accel(math.pi, 0.0, 0.0, p) == pytest.approx(0.0, abs=ulps)
    assert tilt_accel(0.1, 0.0, 0.0, p) > 0.0
    assert tilt_accel(-0.1, 0.0, 0.0, p) < 0.0


def test_shape_rhs_matches_full_model_and_ignores_wheel_rate(p, rng):
    # the tilt acceleration may depend only on (alpha, alpha_dot, theta_dot)
    for _ in range(10):
        al, ald = rng.uniform(-1.2, 1.2, 2)
        thd = rng.uniform(-1.0, 1.0)
        accels = []
        for phid in (-1.0, 0.0, 2.5):
            half = 0.5 * p.d / p.r * thd
            s = FullState.constrained(0, 0, 0.4, al, 0, 0, ald,
                                      phid - half, phid + half, p)
            accels.append(ddt(s, 0.0, 0.0, p)["alpha_dot"])
        p2 = float(f_of_alpha(al, p)) * thd
        expected = tilt_accel(al, ald, p2, p)
        for a in accels:
            assert a == pytest.approx(expected, rel=1e-11, abs=1e-12)


def test_reduced_rhs_upright_rest_fixed_point(p):
    assert set(ddt(ReducedState(0, 0, 0, 0, 0, 0, 0, 0), 0.0, 0.0, p).values()) == {0.0}


def test_reduced_rhs_steady_straight_roll(p):
    out = ddt(ReducedState(0, 0, 0, 0, 0, 0, h_const(p), 0), 0.0, 0.0, p)
    assert out["x"] == pytest.approx(p.r, rel=1e-15)
    assert out["y"] == 0.0
    assert out["theta"] == 0.0
    assert out["phi"] == pytest.approx(1.0, rel=1e-15)
    assert (out["p1"], out["p2"], out["alpha_dot"]) == (0.0, 0.0, 0.0)


def test_reduced_rhs_steady_spin_in_place(p):
    f0 = float(f_of_alpha(0.0, p))
    out = ddt(ReducedState(0, 0, 0.9, 0, 0, 0, 0, f0), 0.0, 0.0, p)
    assert out["theta"] == pytest.approx(1.0, rel=1e-15)
    assert (out["x"], out["y"], out["phi"]) == (0.0, 0.0, 0.0)
    assert (out["p1"], out["p2"], out["alpha_dot"]) == (0.0, 0.0, 0.0)


def test_full_reduced_roundtrip(p, random_constrained):
    for _ in range(10):
        s = random_constrained()
        red = full_to_reduced(s, p)
        assert red.phi == pytest.approx(0.5 * (s.phi1 + s.phi2), rel=1e-15)
        back = reduced_to_full(red, p)
        assert back.phi1 == back.phi2 == red.phi  # the wheel difference is not reduced
        for name in ("x", "y", "theta", "alpha", "x_dot", "y_dot", "theta_dot",
                     "alpha_dot", "phi1_dot", "phi2_dot"):
            assert getattr(back, name) == pytest.approx(getattr(s, name),
                                                        rel=1e-12, abs=1e-12)


def test_rest_state_maps_to_zero_momenta(p):
    s = FullState.constrained(1.0, -2.0, 0.4, 0.3, 0.1, 0.2, 0, 0, 0, p)
    red = full_to_reduced(s, p)
    assert (red.p1, red.p2, red.alpha_dot) == (0.0, 0.0, 0.0)


def test_reduced_to_full_satisfies_constraints(p, rng):
    for _ in range(10):
        red = ReducedState(*rng.uniform(-1, 1, 8))
        full = reduced_to_full(red, p)
        assert np.max(rolling_residuals(full.q, full.q_dot, p)) == 0.0
        assert 0.5 * (full.phi1 + full.phi2) == pytest.approx(red.phi, rel=1e-14)


def test_straight_roll_momentum_conserved(p):
    red0 = ReducedState(0, 0, 0, 0, 0.0, 0.0, 0.8 * h_const(p), 0.0)
    traj = simulate("reduced", red0, TorqueProfile.zero(), 5.0, 1e-3, p)
    p1 = traj.column("p1")
    assert np.max(np.abs(p1 - p1[0])) <= 1e-10
    assert np.max(np.abs(traj.column("p2"))) <= 1e-12


def test_steady_turn_traces_a_circle(p):
    h = h_const(p)
    f0 = float(f_of_alpha(0.0, p))
    p1, p2 = 0.4 * h, 0.3 * f0
    red0 = ReducedState(0.5, -0.2, 0.3, 0.0, 0.0, 0.0, p1, p2)
    traj = simulate("reduced", red0, TorqueProfile.zero(), 5.0, 1e-3, p)
    radius = (p.r * p1 / h) / (p2 / f0)
    cx = red0.x - radius * math.sin(red0.theta)
    cy = red0.y + radius * math.cos(red0.theta)
    dist = np.hypot(traj.states[:, 0] - cx, traj.states[:, 1] - cy)
    assert np.max(np.abs(dist - radius)) <= 1e-6
    assert np.max(np.abs(traj.column("p1") - p1)) <= 1e-12
    assert np.max(np.abs(traj.column("p2") - p2)) <= 1e-12
    assert np.max(np.abs(traj.states[:, 4])) == 0.0  # alpha stays 0


def test_model_equivalence_short_horizon(p):
    red0 = ReducedState(0, 0, 0.2, 0, 0.12, 0.05, 0.2 * h_const(p),
                        0.15 * float(f_of_alpha(0.0, p)))
    full0 = reduced_to_full(red0, p)
    profile = TorqueProfile(((0.0, 0.08, 0.12),))
    tf = simulate("full", full0, profile, 1.0, 1e-3, p)
    tr = simulate("reduced", red0, profile, 1.0, 1e-3, p)
    stats = compare_trajectories(tf, tr)
    assert max(st.max_abs for st in stats.values()) <= 1e-7


def test_ode_rhs_returns_plain_floats(p, rng):
    # a numpy scalar leaking into the integrated rhs roughly doubles its cost
    from wipdyn.dynamics_reduced import ode_rhs
    for _ in range(10):
        y = rng.uniform(-2.0, 2.0, 8).tolist()
        out = ode_rhs(y, *rng.uniform(-1.0, 1.0, 2).tolist(), p)
        assert len(out) == 8
        assert all(type(v) is float for v in out)
