import math

import numpy as np
import pytest

from wipdyn import (FullState, ReducedState, TorqueProfile,
                    compare_trajectories, constraint_residuals, energy_drift,
                    equivariance_error, f_of_alpha, full_to_reduced, h_const,
                    holonomic_residual, momenta_from_full, momentum_pairing,
                    momentum_rate_error, run_structural_checks, simulate)
from wipdyn.validation import render_check_lines, shift_full_state


def test_constraint_residuals_zero_for_full_trajectories(p):
    s = FullState.constrained(0, 0, 0.3, 0.1, 0, 0, 0.1, 0.4, 0.7, p)
    traj = simulate("full", s, TorqueProfile.zero(), 0.5, 1e-3, p)
    assert np.max(constraint_residuals(traj, p)) == 0.0


def test_constraint_residuals_flag_violations(p):
    bad = FullState(0, 0, 0, 0.1, 0, 0, 0.7, -0.2, 0.1, 0, 0, 0)
    res = constraint_residuals(bad, p)
    assert np.all(res > 0.0)


def test_constraint_residuals_reject_reduced_trajectories(p):
    red0 = ReducedState(0, 0, 0, 0, 0, 0, 0, 0)
    traj = simulate("reduced", red0, TorqueProfile.zero(), 0.1, 1e-2, p)
    with pytest.raises(ValueError):
        constraint_residuals(traj, p)


def test_oracle_trajectory_residuals_small(p):
    s = FullState.constrained(0, 0, 0.2, 0.15, 0, 0, 0.1, 0.5, 0.8, p)
    traj = simulate("oracle", s, TorqueProfile.zero(), 0.4, 1e-3, p)
    assert np.max(constraint_residuals(traj, p)) <= 1e-8


def test_momentum_pairing_rest_state(p):
    s = FullState.constrained(0.3, -0.1, 0.6, 0.4, 0.1, -0.2, 0, 0, 0, p)
    assert abs(momentum_pairing(s, 1, p)) < 1e-12
    assert abs(momentum_pairing(s, 2, p)) < 1e-12


def test_momentum_pairing_matches_closed_forms(p, random_constrained):
    # the central differences are exact for a quadratic in q_dot: the worst
    # error over 300 random states is 8.9e-16
    for _ in range(20):
        s = random_constrained()
        p1, p2 = momenta_from_full(s, p)
        assert abs(momentum_pairing(s, 1, p) - p1) <= 1e-12
        assert abs(momentum_pairing(s, 2, p) - p2) <= 1e-12
        # second pairing is the yaw momentum f(alpha) theta_dot
        thd = p.r / p.d * (s.phi2_dot - s.phi1_dot)
        assert momentum_pairing(s, 2, p) == pytest.approx(
            f_of_alpha(s.alpha, p) * thd, abs=1e-12)


def test_momentum_pairing_rejects_bad_section(p, random_constrained):
    with pytest.raises(ValueError):
        momentum_pairing(random_constrained(), 3, p)


def test_compare_identical_trajectories(p):
    s = FullState.constrained(0, 0, 0, 0.1, 0, 0, 0, 0.5, 0.5, p)
    traj = simulate("full", s, TorqueProfile.zero(), 0.2, 1e-3, p)
    stats = compare_trajectories(traj, traj, p)
    assert all(st.max_abs == 0.0 and st.rms == 0.0 for st in stats.values())


def test_compare_rejects_grid_mismatch(p):
    s = FullState.constrained(0, 0, 0, 0.1, 0, 0, 0, 0.5, 0.5, p)
    a = simulate("full", s, TorqueProfile.zero(), 0.2, 1e-3, p)
    b = simulate("full", s, TorqueProfile.zero(), 0.2, 2e-3, p)
    with pytest.raises(ValueError, match="grid"):
        compare_trajectories(a, b, p)


def test_energy_drift_zero_at_equilibrium(p):
    s = FullState.constrained(0, 0, 0, 0.0, 0, 0, 0, 0, 0, p)
    traj = simulate("full", s, TorqueProfile.zero(), 0.5, 1e-3, p)
    assert energy_drift(traj) == (0.0, 0.0)


def test_energy_drift_shrinks_fourth_order(p):
    s = FullState.constrained(0, 0, 0, 0.2, 0, 0, 0, 0, 0, p)

    def drift(dt):
        return energy_drift(simulate("full", s, TorqueProfile.zero(), 2.0, dt, p))[1]

    d1, d2 = drift(2e-3), drift(1e-3)
    assert 10.0 < d1 / d2 < 24.0  # ~16x per halving


def test_momentum_rate_check_with_torque_pulse(p):
    s = FullState.constrained(0, 0, 0, 0.15, 0, 0, 0, 0.4, 0.5, p)
    profile = TorqueProfile(((0.1, 0.2, -0.1), (0.3, 0.0, 0.0)))
    traj = simulate("full", s, profile, 0.5, 1e-4, p)
    assert momentum_rate_error(traj, profile, p) <= 1e-4


def test_holonomic_residual_rejects_reduced(p):
    red0 = ReducedState(0, 0, 0, 0, 0, 0, 0, 0)
    traj = simulate("reduced", red0, TorqueProfile.zero(), 0.1, 1e-2, p)
    with pytest.raises(ValueError):
        holonomic_residual(traj, p)


def test_shift_full_state_rotates_velocities(p):
    s = FullState.constrained(1.0, 0.0, 0.0, 0.1, 0, 0, 0.0, 1.0, 1.0, p)
    moved = shift_full_state(s, 0.0, 0.0, math.pi / 2, 0.3)
    assert moved.x == pytest.approx(0.0, abs=1e-16)
    assert moved.y == pytest.approx(1.0)
    assert moved.x_dot == pytest.approx(0.0, abs=1e-16)
    assert moved.y_dot == pytest.approx(s.x_dot)
    assert moved.phi1 == pytest.approx(s.phi1 + 0.3)


def test_equivariance_short_run(p, rng):
    initial = FullState.constrained(0.2, -0.1, 0.4, 0.1, 0, 0, 0.1, 0.6, 0.9, p)
    shifts = [tuple(rng.uniform(-2, 2, 4)) for _ in range(3)]
    err = equivariance_error("full", initial, TorqueProfile.zero(), 0.5, 1e-3, p, shifts)
    assert err <= 1e-9
    red = full_to_reduced(initial, p)
    err = equivariance_error("reduced", red, TorqueProfile.zero(), 0.5, 1e-3, p, shifts)
    assert err <= 1e-9


def test_structural_suite_passes_and_renders(p):
    results = run_structural_checks(p, seed=7)
    lines = render_check_lines(results)
    assert len(lines) == len(results) >= 6
    assert all(line.startswith("PASS") for line in lines), "\n".join(lines)
