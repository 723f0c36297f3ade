import collections
import math

import numpy as np
import pytest

from test_mutations import DRIFT, ORDER
from wipdyn import (FullState, Params, ReducedState, TorqueProfile,
                    compare_trajectories, energy_drift,
                    equivariance_error, f_of_alpha, full_to_reduced, h_const,
                    holonomic_residual, momentum_pairing,
                    momentum_rate_error, power_balance_error,
                    reduced_to_full, run_structural_checks, simulate)
from wipdyn import dynamics_full, dynamics_reduced, model
from wipdyn.model import LAYOUTS, rolling_residuals
from wipdyn.oracle import CS_STEP
from wipdyn.sim import Trajectory, u_from_tau
from wipdyn.validation import (_complex_step, _power_residuals, _shift, _torque_rows,
                               render_check_lines)


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
    assert momentum_rate_error(traj, profile, p) <= 2e-11  # 8.5e-15
    # both rate checks give Python floats, the type of CheckResult.value
    assert [type(check(traj, profile, p))
            for check in (momentum_rate_error, power_balance_error)] == [float, float]


def test_rate_checks_read_the_new_row_at_a_segment_start(p):
    # the pulse starts and ends on samples (0.010 and 0.020 s), which take
    # its row and the next, as tau_at does: the complex step moves every
    # sample along ode_rhs under tau_at of its time.  Both lines compare two
    # statements of the field under one row, so they read rounding with any
    # row (2.6e-16 and 6.2e-16 here); only this comparison pins the row
    s = FullState.constrained(0.0, 0.0, 0.3, 0.12, 0.0, 0.0, 0.1, 0.8, 1.1, p)
    profile = TorqueProfile(((0.0, 0.05, -0.02), (0.01, 0.5, 0.3), (0.02, 0.05, -0.02)))
    traj = simulate("full", s, profile, 0.05, 1e-3, p)
    [(_, v, tau)] = _complex_step(traj, profile, p)  # 51 samples: one block
    assert (traj.t[10], traj.t[20]) == (0.01, 0.02)
    assert tau[:, 9:12].T.tolist() == [[0.05, -0.02], [0.5, 0.3], [0.5, 0.3]]
    assert tau[:, 19:21].T.tolist() == [[0.5, 0.3], [0.05, -0.02]]
    rates = np.stack([v[n].imag for n in LAYOUTS["full"]], axis=1) / CS_STEP
    expected = [dynamics_full.ode_rhs(y, *profile.tau_at(t), p)
                for y, t in zip(traj.states.tolist(), traj.t.tolist())]
    assert np.allclose(rates, expected, rtol=1e-13, atol=1e-13)
    assert momentum_rate_error(traj, profile, p) <= 2e-11
    assert power_balance_error(traj, profile, p) <= 1e-9


@pytest.mark.parametrize("T", [0.0, 1e-3])
def test_rate_checks_on_one_or_two_samples_read_rounding(p, T):
    # a complex step needs no neighbours: a run of one or two samples is
    # checked at every sample (1.1e-16 and 1.5e-16 at T = dt)
    s = FullState.constrained(0, 0, 0, 0.15, 0, 0, 0, 0.4, 0.5, p)
    profile = TorqueProfile.constant(0.2, -0.1)
    traj = simulate("full", s, profile, T, 1e-3, p)
    assert len(traj) == 1 + round(T / 1e-3)
    assert momentum_rate_error(traj, profile, p) <= 2e-11
    assert power_balance_error(traj, profile, p) <= 1e-9


def test_rate_checks_do_not_depend_on_dt(p):
    # the check suite's forced run at dt = 4e-3: 6.7e-15 and 1.8e-13, as at
    # 1e-3 (6.8e-15, 2.4e-13).  Central differences read 4.6e-4 and 3.1e-4
    s = FullState.constrained(0.0, 0.0, 0.3, 0.12, 0.0, 0.0, 0.1, 0.8, 1.1, p)
    profile = TorqueProfile(((0.0, 0.05, -0.02),))
    traj = simulate("full", s, profile, 0.5, 4e-3, p)
    assert momentum_rate_error(traj, profile, p) <= 2e-11
    assert power_balance_error(traj, profile, p) <= 1e-9


def test_power_residuals_do_not_depend_on_the_run_length(p):
    # the check suite's forced run, 20 s long (20,001 samples): each block of
    # 1,024 samples gives, bit for bit, the residuals it gives as a run of its
    # own.  One complex-step table over the whole run rounded 4,738 samples
    # otherwise (by up to 3.6e-13), where numpy buffers its products in chunks
    s = FullState.constrained(0.0, 0.0, 0.3, 0.12, 0.0, 0.0, 0.1, 0.8, 1.1, p)
    profile = TorqueProfile.constant(0.05, -0.02)
    traj = simulate("full", s, profile, 20.0, 1e-3, p)
    whole = _power_residuals(traj, profile, p)
    assert whole.shape == (len(traj),) == (20_001,)
    for start in range(0, len(traj), 1024):
        rows = slice(start, start + 1024)
        alone = Trajectory("full", traj.t[rows], traj.states[rows], traj.shared[rows],
                           traj.energy[rows], traj.residuals[rows])
        assert _power_residuals(alone, profile, p).tobytes() == whole[rows].tobytes(), start
    assert np.max(np.abs(whole)) <= 1e-9


@pytest.mark.parametrize("to_forces", [None, u_from_tau])
def test_forces_per_segment_are_the_per_sample_lookups(p, rng, to_forces):
    # 500 segments, the first after t = 0, each starting on a sample time:
    # the torque table's rows at the samples' segments (to_forces applied to
    # the columns) give tau_at's values at the samples (to_forces applied to
    # each) bit for bit, on every sample and on a sparse subset of them
    t = np.arange(10_100) * 1e-3
    profile = TorqueProfile(tuple(zip(t[5::20][:500].tolist(),
                                      *rng.uniform(-0.1, 0.1, (2, 500)).tolist())))
    for times in (t, t[3::7]):
        per_sample = np.array([profile.tau_at(tt) if to_forces is None
                               else to_forces(*profile.tau_at(tt), p) for tt in times.tolist()])
        columns = _torque_rows(profile, times)
        if to_forces is not None:
            columns = np.stack(to_forces(*columns.T, p), axis=1)
        assert columns.shape == (len(times), 2)
        assert columns.tobytes() == per_sample.tobytes()


def test_holonomic_residual_rejects_reduced(p):
    red0 = ReducedState(0, 0, 0, 0, 0, 0, 0, 0)
    traj = simulate("reduced", red0, TorqueProfile.zero(), 0.1, 1e-2, p)
    with pytest.raises(ValueError):
        holonomic_residual(traj, p)
    for check in (momentum_rate_error, power_balance_error):  # nor the rate lines
        with pytest.raises(ValueError):
            check(traj, TorqueProfile.zero(), p)


def test_momentum_rate_error_fetches_rhs_kernel_once(p, kernel_fetches):
    s = FullState.constrained(0.0, 0.0, 0.3, 0.2, 0.0, 0.0, 0.1, 0.5, -0.4, p)
    profile = TorqueProfile.constant(0.01, -0.02)
    traj = simulate("full", s, profile, 0.2, 1e-3, p)
    calls = kernel_fetches(dynamics_reduced)
    assert momentum_rate_error(traj, profile, p) <= 2e-11  # 1.1e-15
    assert calls == [p]


def test_drift_lines_fail_on_a_drift_of_zero(p):
    # at g = 1e-20 the run from rest moves by rounding alone and both drifts
    # read 0: no order is observed, so both drift lines fail (nan), no error
    slow = Params.from_dict({**p.to_dict(), "g": 1e-20})
    failed = {r.name: r.value for r in run_structural_checks(slow) if not r.passed}
    assert list(failed) == [DRIFT, ORDER]
    assert all(math.isnan(v) for v in failed.values())


def test_shift_rotates_velocities(p):
    # the action on the layouts' values: positions rotate, heading and wheel
    # angles shift, rates stay; a constrained state built from the shifted
    # full values has its planar velocity rotated
    s = FullState.constrained(1.0, 0.0, 0.0, 0.1, 0, 0, 0.0, 1.0, 1.0, p)
    values = {n: getattr(s, n) for n in LAYOUTS["full"]}
    shifted = _shift(values, 0.0, 0.0, math.pi / 2, 0.3)
    assert (shifted["x"], shifted["y"]) == pytest.approx((0.0, 1.0), abs=1e-16)
    assert (shifted["theta"], shifted["phi1"], shifted["phi2"]) == (math.pi / 2, 0.3, 0.3)
    assert [shifted[n] for n in LAYOUTS["full"][6:]] == [values[n] for n in LAYOUTS["full"][6:]]
    moved = FullState.constrained(*[shifted[n] for n in LAYOUTS["full"]], p)
    assert moved.x_dot == pytest.approx(0.0, abs=1e-16)
    assert moved.y_dot == pytest.approx(s.x_dot)
    red = vars(full_to_reduced(s, p))
    assert _shift(red, 2.0, -1.0, math.pi, 0.3) == pytest.approx(
        {**red, "x": 1.0, "y": -1.0, "theta": math.pi, "phi": 0.3}, abs=1e-15)


def test_equivariance_short_run(p, rng):
    # simulate-then-shift is shift-then-simulate: the base run's shifted
    # columns against runs from the shifted initial states
    initial = FullState.constrained(0.2, -0.1, 0.4, 0.1, 0, 0, 0.1, 0.6, 0.9, p)
    profile = TorqueProfile.constant(0.05, -0.02)
    for name, state in (("full", initial), ("reduced", full_to_reduced(initial, p))):
        base = simulate(name, state, profile, 0.5, 1e-3, p)
        columns = {n: base.column(n) for n in LAYOUTS[name]}
        for g in [tuple(rng.uniform(-2, 2, 4)) for _ in range(3)]:
            values = _shift({n: getattr(state, n) for n in LAYOUTS[name]}, *g)
            moved0 = (FullState.constrained(*values.values(), p) if name == "full"
                      else ReducedState(**values))
            moved = simulate(name, moved0, profile, 0.5, 1e-3, p).states
            expected = np.stack(list(_shift(columns, *g).values()), axis=1)
            assert np.max(np.abs(moved - expected)) <= 1e-9


def test_equivariance_error_is_a_vector_field_identity(p, random_constrained, rng):
    # both bodies on columns of states, under torques: rounding alone, and
    # the oracle, which has no body, is refused
    states = [random_constrained() for _ in range(20)]
    v = {n: np.array([getattr(s, n) for s in states]) for n in LAYOUTS["full"]}
    red = dynamics_reduced._to_reduced(v, p)
    shifts = [tuple(rng.uniform(-2, 2, 4)) for _ in range(5)]
    for name, columns in (("full", v), ("reduced", red)):
        assert equivariance_error(name, columns, (0.05, -0.02), p, shifts) <= 1e-14
    with pytest.raises(KeyError):
        equivariance_error("oracle", v, (0.05, -0.02), p, shifts)


def test_structural_suite_passes_and_renders(p):
    results = run_structural_checks(p, seed=7)
    lines = render_check_lines(results)
    assert len(lines) == len(results) >= 6
    assert all(line.startswith("PASS") for line in lines), "\n".join(lines)
    assert [r.name for r in results if type(r.value) is not float] == []


def test_structural_suite_runs_three_simulations(p, monkeypatch):
    # the drift runs (500 and 1,000 steps) and the forced run (500); every
    # other line evaluates its formula on columns
    from wipdyn import sim, validation
    calls = collections.Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count(validation, "simulate")
    count(sim, "rk4_step")
    run_structural_checks(p)
    assert calls == {"simulate": 3, "rk4_step": 2_000}


def test_integrated_power_line_fails_on_a_run_under_other_torques(p, monkeypatch):
    # simulate's full model integrates under the profile's torques x 0.998:
    # the rate lines evaluate the field under the profile at each sample, so
    # they pass; the integrated power line reads 2.0e-3 against its bound
    # 1e-3 (1.2e-6 on the run under the profile's own torques)
    from wipdyn import sim
    monkeypatch.setitem(sim._FUSED, "full", (dynamics_full, lambda tau1, tau2, p: (
        0.998 * tau1, 0.998 * tau2)))
    failed = {r.name: r.value for r in run_structural_checks(p) if not r.passed}
    assert list(failed) == ["integrated power (forced)"]
    assert 1.9e-3 < failed["integrated power (forced)"] < 2.1e-3
