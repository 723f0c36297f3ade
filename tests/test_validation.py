import math
from dataclasses import asdict

import numpy as np
import pytest

from wipdyn import (FullState, ReducedState, TorqueProfile,
                    compare_trajectories, energy_drift,
                    equivariance_error, f_of_alpha, full_to_reduced, h_const,
                    holonomic_residual, momentum_pairing,
                    momentum_rate_error, power_balance_error,
                    reduced_to_full, run_structural_checks, simulate)
from wipdyn import model
from wipdyn.model import rolling_residuals
from wipdyn.sim import _force_lookup, u_from_tau
from wipdyn.validation import _segments, _shift, render_check_lines


def test_constraint_residuals_zero_for_full_trajectories(p):
    # rolling holds by construction in the full and reduced models: zero
    # (N, 3) residuals, read-only like every array of a trajectory
    s = FullState.constrained(0, 0, 0.3, 0.1, 0, 0, 0.1, 0.4, 0.7, p)
    for model, initial in (("full", s), ("reduced", full_to_reduced(s, p))):
        traj = simulate(model, initial, TorqueProfile.zero(), 0.5, 1e-3, p)
        assert traj.residuals.shape == (len(traj), 3)
        assert not np.any(traj.residuals)
        assert [a.flags.writeable for a in (traj.t, traj.states, traj.shared, traj.energy,
                                            traj.residuals)] == [False] * 5


def test_constraint_residuals_flag_violations(p):
    bad = FullState(0, 0, 0, 0.1, 0, 0, 0.7, -0.2, 0.1, 0, 0, 0)
    res = rolling_residuals(bad.q, bad.q_dot, p)
    assert np.all(res > 0.0)


def test_oracle_trajectory_residuals_small(p):
    s = FullState.constrained(0, 0, 0.2, 0.15, 0, 0, 0.1, 0.5, 0.8, p)
    traj = simulate("oracle", s, TorqueProfile.zero(), 0.4, 1e-3, p)
    assert np.max(traj.residuals) <= 1e-8
    assert not traj.residuals.flags.writeable


def test_momentum_pairing_rest_state(p):
    s = FullState.constrained(0.3, -0.1, 0.6, 0.4, 0.1, -0.2, 0, 0, 0, p)
    p1, p2 = momentum_pairing(s.q, s.q_dot, p)
    assert abs(p1) < 1e-12
    assert abs(p2) < 1e-12


def test_momentum_pairing_matches_closed_forms(p, random_constrained):
    # the directional difference is exact for a quadratic in q_dot: the worst
    # error over 8000 random states is 2.1e-15 (3.5e-15 with the gradient)
    for _ in range(20):
        s = random_constrained()
        red = full_to_reduced(s, p)
        p1, p2 = momentum_pairing(s.q, s.q_dot, p)
        assert abs(p1 - red.p1) <= 1e-12
        assert abs(p2 - red.p2) <= 1e-12
        # second pairing is the yaw momentum f(alpha) theta_dot
        thd = p.r / p.d * (s.phi2_dot - s.phi1_dot)
        assert p2 == pytest.approx(f_of_alpha(s.alpha, p) * thd, abs=1e-12)


def test_broadcast_momentum_pairing_rows_are_the_scalar_calls(p, random_constrained, rng):
    # one call over a leading axis of states gives each state's own pair,
    # bit for bit, at real states and at complex-step perturbations of them
    states = [random_constrained() for _ in range(12)]
    q, q_dot = np.array([s.q for s in states]), np.array([s.q_dot for s in states])
    for qs in (q, q + 1j * rng.uniform(-1e-3, 1e-3, q.shape)):
        rows = momentum_pairing(qs, q_dot, p)
        assert [r.shape for r in rows] == [(12,), (12,)]
        for k in range(12):
            assert [r[k] for r in rows] == list(momentum_pairing(qs[k], q_dot[k], p))


def test_generators_are_stated_once(p, random_constrained, monkeypatch):
    # u_from_tau, momentum_pairing and reduced_to_full read the generators
    # from model._generators alone: scaling its yaw row scales u2, p2 and the
    # wheel-rate difference by that factor and moves none of u1, p1 and the
    # mean wheel rate, to rounding (at most 2.2e-15 and 1.1e-16 absolute over
    # 5000 and 3000 random states)
    scale = 1.0 + 1e-3
    s = random_constrained()
    red = full_to_reduced(s, p)

    def readers():
        full = reduced_to_full(red, p)
        return (*u_from_tau(0.3, -0.7, p), *momentum_pairing(s.q, s.q_dot, p),
                0.5 * (full.phi1_dot + full.phi2_dot), full.phi2_dot - full.phi1_dot)

    u1, u2, p1, p2, mean, diff = readers()
    rows = model._generators(p)
    monkeypatch.setattr(model, "_generators",
                        lambda p: (rows[0], tuple(scale * v for v in rows[1])))
    u1s, u2s, p1s, p2s, means, diffs = readers()
    assert (u1s, p1s) == (u1, p1)
    assert means == pytest.approx(mean, rel=0.0, abs=1e-15)
    for before, after in ((u2, u2s), (p2, p2s), (diff, diffs)):
        assert after == pytest.approx(scale * before, rel=1e-12, abs=1e-14)


def test_compare_identical_trajectories(p):
    s = FullState.constrained(0, 0, 0, 0.1, 0, 0, 0, 0.5, 0.5, p)
    traj = simulate("full", s, TorqueProfile.zero(), 0.2, 1e-3, p)
    stats = compare_trajectories(traj, traj)
    assert all(st.max_abs == 0.0 and st.rms == 0.0 for st in stats.values())


def test_compare_rejects_grid_mismatch(p):
    s = FullState.constrained(0, 0, 0, 0.1, 0, 0, 0, 0.5, 0.5, p)
    a = simulate("full", s, TorqueProfile.zero(), 0.2, 1e-3, p)
    b = simulate("full", s, TorqueProfile.zero(), 0.2, 2e-3, p)
    with pytest.raises(ValueError, match="grid"):
        compare_trajectories(a, b)


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
    # both rate checks give Python floats, the type of CheckResult.value
    assert [type(check(traj, profile, p))
            for check in (momentum_rate_error, power_balance_error)] == [float, float]


def test_rate_checks_skip_stencils_across_a_segment_with_no_sample(p):
    # the middle segment falls between the samples at 0.010 and 0.011 s, and
    # its neighbours have equal torques: a stencil across it has equal torques
    # at both ends but not one segment.  Masking by torque value read 0.257
    # and 0.203; by segment index 9.9e-8 and 3.4e-7, as without the pulse
    s = FullState.constrained(0.0, 0.0, 0.3, 0.12, 0.0, 0.0, 0.1, 0.8, 1.1, p)
    profile = TorqueProfile(((0.0, 0.05, -0.02), (0.0104, 0.5, 0.3), (0.0106, 0.05, -0.02)))
    traj = simulate("full", s, profile, 0.05, 1e-3, p)
    assert momentum_rate_error(traj, profile, p) <= 1e-5
    assert power_balance_error(traj, profile, p) <= 1e-5


@pytest.mark.parametrize("T", [0.0, 1e-3])
def test_rate_checks_without_interior_samples_are_zero(p, T):
    # T < 2 dt leaves no sample with a central-difference stencil
    s = FullState.constrained(0, 0, 0, 0.15, 0, 0, 0, 0.4, 0.5, p)
    profile = TorqueProfile.constant(0.2, -0.1)
    traj = simulate("full", s, profile, T, 1e-3, p)
    assert power_balance_error(traj, profile, p) == 0.0
    assert momentum_rate_error(traj, profile, p) == 0.0


@pytest.mark.parametrize("to_forces", [None, u_from_tau])
def test_forces_per_segment_are_the_per_sample_lookups(p, rng, to_forces):
    # 500 segments, the first after t = 0, each starting on a sample time:
    # the torque table's rows at the samples' segments (to_forces applied to
    # the columns) give the per-sample lookup's values bit for bit, on every
    # sample and on a sparse ascending subset of them
    t = np.arange(10_100) * 1e-3
    profile = TorqueProfile(tuple(zip(t[5::20][:500].tolist(),
                                      *rng.uniform(-0.1, 0.1, (2, 500)).tolist())))
    for times in (t, t[3::7]):
        per_sample = np.array(list(map(_force_lookup(profile, p, to_forces), times.tolist())))
        columns = np.array(profile._torques)[_segments(profile, times)]
        if to_forces is not None:
            columns = np.stack(to_forces(*columns.T, p), axis=1)
        assert columns.shape == (len(times), 2)
        assert columns.tobytes() == per_sample.tobytes()


def test_holonomic_residual_rejects_reduced(p):
    red0 = ReducedState(0, 0, 0, 0, 0, 0, 0, 0)
    traj = simulate("reduced", red0, TorqueProfile.zero(), 0.1, 1e-2, p)
    with pytest.raises(ValueError):
        holonomic_residual(traj, p)
    with pytest.raises(ValueError):  # nor the wheel rates, so no power balance
        power_balance_error(traj, TorqueProfile.zero(), p)


def test_momentum_rate_error_fetches_rhs_kernel_once(p, kernel_fetches):
    from wipdyn import dynamics_reduced
    s = FullState.constrained(0.0, 0.0, 0.3, 0.2, 0.0, 0.0, 0.1, 0.5, -0.4, p)
    profile = TorqueProfile.constant(0.01, -0.02)
    traj = simulate("full", s, profile, 0.2, 1e-3, p)
    calls = kernel_fetches(dynamics_reduced)
    assert momentum_rate_error(traj, profile, p) <= 1e-4
    assert calls == [p]


def test_momentum_rate_line_fails_without_yaw_forcing(p, monkeypatch):
    # a _kernel factory whose body drops u2 from the yaw momentum equation:
    # simulate inlines _BODY itself, so only the momentum-rate line reads the
    # patched kernel, and it must fail (value 0.14, the forced run's |u2|)
    from types import FunctionType
    from wipdyn import dynamics_reduced, model
    body = dynamics_reduced._BODY.replace(" + u2", "")
    assert body != dynamics_reduced._BODY
    kernel = dynamics_reduced._kernel
    monkeypatch.setattr(dynamics_reduced, "_kernel", lambda params: FunctionType(
        model._code("def ode(y, u1, u2):" + body), kernel(params).__globals__))
    assert [r.name for r in run_structural_checks(p) if not r.passed] == [
        "momentum rate vs closed form"]


def test_shift_rotates_velocities(p):
    s = FullState.constrained(1.0, 0.0, 0.0, 0.1, 0, 0, 0.0, 1.0, 1.0, p)
    moved = FullState(**_shift(asdict(s), 0.0, 0.0, math.pi / 2, 0.3))
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
    assert [r.name for r in results if type(r.value) is not float] == []


def test_power_balance_line_fails_on_mismatched_torques(p, monkeypatch):
    # the forced run simulated under its profile, checked against the same
    # profile with tau scaled: 6.7e-2 (x 0.9) and 1.3e-3 (x 0.998) against
    # the run's own bound 2.03e-5, 90x the value with the right torques.  The
    # fixed bound 2e-3 that it tightened let x 0.998 pass
    from wipdyn import validation
    check = validation.power_balance_error
    for scale in (0.9, 0.998):
        def against_scaled(traj, profile, params, scale=scale):
            scaled = TorqueProfile(tuple((t, scale * a, scale * b)
                                         for t, a, b in profile.segments))
            return check(traj, scaled, params)

        monkeypatch.setattr(validation, "power_balance_error", against_scaled)
        assert [r.name for r in run_structural_checks(p) if not r.passed] == [
            "power balance (forced)"]


def test_power_balance_bound_is_the_runs_truncation(p):
    # the bound is 30x |dE/dt(2 dt) - dE/dt(dt)|, 3x the O(dt^2) truncation,
    # so 90x the value: 87-90x over 250 random sets.  With the pulse's
    # wide stencils not masked out, the bound reads the torque steps and
    # sits at its cap 2e-3.  Halving dt quarters it, as truncation does.
    # With no sample interior to a 2 dt stencil (T < 4 dt) it is the cap
    from wipdyn.validation import _power_balance_bound
    s = FullState.constrained(0.0, 0.0, 0.3, 0.12, 0.0, 0.0, 0.1, 0.8, 1.1, p)
    profile = TorqueProfile(((0.0, 0.05, -0.02), (0.0104, 0.5, 0.3), (0.0203, 0.05, -0.02)))
    ratios, bounds = [], []
    for dt in (2e-4, 1e-4):
        traj = simulate("full", s, profile, 0.05, dt, p)
        bounds.append(_power_balance_bound(traj, profile, p))
        ratios.append(bounds[-1] / power_balance_error(traj, profile, p))
    assert all(80.0 <= r <= 100.0 for r in ratios), ratios
    assert 3.5 <= bounds[0] / bounds[1] <= 4.5, bounds
    assert _power_balance_bound(simulate("full", s, profile, 3e-3, 1e-3, p), profile, p) == 2e-3
