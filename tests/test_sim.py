import collections
import math

import numpy as np
import pytest

from wipdyn import (FullState, ReducedState, SimulationError, TorqueProfile,
                    compare_trajectories, full_to_reduced, h_const, rk4_step,
                    simulate, tau_from_u, u_from_tau)
from wipdyn.sim import MODELS, _oracle_ode, _rk4_stages, n_samples


def test_u_from_tau_symmetric_and_antisymmetric(p):
    # equal torques force rolling only; opposite torques force yaw only
    assert u_from_tau(1.0, 1.0, p) == (2.0, 0.0)
    u1, u2 = u_from_tau(-1.0, 1.0, p)
    assert u1 == 0.0
    assert u2 == pytest.approx(p.d / p.r, rel=1e-15)
    assert u_from_tau(0.0, 0.0, p) == (0.0, 0.0)


def test_tau_u_roundtrip(p, rng):
    for _ in range(10):
        t1, t2 = rng.uniform(-2, 2, 2)
        u1, u2 = u_from_tau(t1, t2, p)
        assert tau_from_u(u1, u2, p) == pytest.approx((t1, t2), rel=1e-14)


def test_u_conversion_preserves_power(p, rng):
    # u1 phi_dot + u2 theta_dot = tau1 phi1_dot + tau2 phi2_dot on the
    # constraint surface: the conversion is the pairing with the generators
    for _ in range(10):
        t1, t2 = rng.uniform(-2, 2, 2)
        f1d, f2d = rng.uniform(-2, 2, 2)
        u1, u2 = u_from_tau(t1, t2, p)
        phid = 0.5 * (f1d + f2d)
        thd = p.r / p.d * (f2d - f1d)
        assert u1 * phid + u2 * thd == pytest.approx(t1 * f1d + t2 * f2d, rel=1e-13)


def test_torque_profile_validation():
    with pytest.raises(ValueError):
        TorqueProfile(((0.0, 0.1, 0.1), (0.0, 0.2, 0.2)))
    with pytest.raises(ValueError):
        TorqueProfile(((1.0, 0.1, 0.1), (0.5, 0.2, 0.2)))
    with pytest.raises(ValueError):
        TorqueProfile(((0.0, float("inf"), 0.0),))


def test_torque_profile_left_closed_lookup():
    prof = TorqueProfile(((1.0, 0.5, -0.5), (2.0, 0.0, 0.0)))
    assert prof.tau_at(0.999) == (0.0, 0.0)
    assert prof.tau_at(1.0) == (0.5, -0.5)
    assert prof.tau_at(1.999) == (0.5, -0.5)
    assert prof.tau_at(2.0) == (0.0, 0.0)


def test_torque_lookup_matches_linear_scan(rng):
    def scan(segments, t):
        tau = (0.0, 0.0)
        for ts, a, b in segments:
            if t < ts:
                break
            tau = (a, b)
        return tau

    starts = np.cumsum(rng.uniform(0.001, 0.05, 500)) - 0.5
    prof = TorqueProfile(tuple((t, *rng.uniform(-1, 1, 2)) for t in starts))
    ts = np.concatenate([rng.uniform(-1.0, starts[-1] + 1.0, 2000), starts,
                         np.nextafter(starts, -np.inf), [-np.inf, np.inf]])
    for t in ts:
        assert prof.tau_at(float(t)) == scan(prof.segments, float(t))
    assert TorqueProfile.zero().tau_at(1.0) == (0.0, 0.0)


def test_rk4_step_zero_rhs_identity():
    y = np.array([1.0, -2.0, 3.0])
    out = rk4_step(_rk4_stages(3), lambda t, s: np.zeros(3), y, 0.0, 0.1)
    assert np.array_equal(out, y)


def test_rk4_step_exponential_taylor():
    # one step of y' = y from 1 with dt = 0.1:
    # 1 + h + h^2/2 + h^3/6 + h^4/24 = 1.1051708333333332
    out = rk4_step(_rk4_stages(1), lambda t, s: s, np.array([1.0]), 0.0, 0.1)
    assert out[0] == pytest.approx(1.1051708333333332, abs=1e-15)


def test_rk4_fourth_order_on_linear_system(rng):
    A = np.array([[0.0, 1.0], [-4.0, -0.3]])
    y0 = np.array([1.0, 0.0])
    # exact solution through the eigendecomposition of A
    w, V = np.linalg.eig(A)
    exact = (V @ np.diag(np.exp(w)) @ np.linalg.inv(V) @ y0).real

    def run(dt):
        y = y0.copy()
        steps = round(1.0 / dt)
        for k in range(steps):
            y = rk4_step(_rk4_stages(2), lambda t, s: A @ s, y, k * dt, dt)
        return np.max(np.abs(y - exact))

    errors = [run(dt) for dt in (1e-2, 5e-3, 2.5e-3)]
    for e1, e2 in zip(errors, errors[1:]):
        assert 12.0 < e1 / e2 < 20.0


def test_rk4_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rk4_step(_rk4_stages(1), lambda t, s: s, np.array([1.0]), 0.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        rk4_step(_rk4_stages(1), lambda t, s: s, [1.0], 0.0, float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        rk4_step(_rk4_stages(1), lambda t, s: [v * 1e308 for v in s], [1e308], 0.0, 1.0)
    # an rhs of another length than the state must not be truncated
    for wrong in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(ValueError, match="unpack"):
            rk4_step(_rk4_stages(3), lambda t, s: wrong, [0.0] * 3, 0.0, 0.1)
    with pytest.raises(ValueError, match="unpack"):
        rk4_step(_rk4_stages(0), lambda t, s: [1.0], [], 0.0, 0.1)
    assert rk4_step(_rk4_stages(0), lambda t, s: [], [], 0.0, 0.1) == []


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 12])
def test_rk4_step_on_lists_matches_array_formula(rng, n):
    # a seeded nonlinear rhs: the step generated for n components must
    # reproduce the array formula y + (dt/6)(k1 + 2 k2 + 2 k3 + k4) bit for bit
    A = rng.uniform(-1.0, 1.0, (n, n))
    c = rng.uniform(-1.0, 1.0, n)

    def f(t, s):
        return np.sin(A @ np.asarray(s)) + c * math.cos(t)

    for _ in range(20):
        y = rng.uniform(-2.0, 2.0, n)
        t, dt = rng.uniform(0.0, 5.0), rng.uniform(1e-4, 0.1)
        k1 = f(t, y)
        k2 = f(t + 0.5 * dt, y + (0.5 * dt) * k1)
        k3 = f(t + 0.5 * dt, y + (0.5 * dt) * k2)
        k4 = f(t + dt, y + dt * k3)
        expected = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out = rk4_step(_rk4_stages(n), lambda tt, s: f(tt, s).tolist(), y.tolist(), t, dt)
        assert type(out) is list
        assert np.array_equal(np.array(out), expected)


def test_n_samples_grid():
    assert n_samples(0.0, 1e-3) == 1
    assert n_samples(0.3, 0.1) == 4
    assert n_samples(5.0, 1e-3) == 5001
    assert n_samples(2.0 ** 53, 1.0) == 2 ** 53 + 1


def test_simulate_zero_duration_single_sample(p):
    s = FullState.constrained(0, 0, 0, 0.1, 0, 0, 0, 0.2, 0.3, p)
    traj = simulate("full", s, TorqueProfile.zero(), 0.0, 1e-3, p)
    assert len(traj) == 1
    assert traj.t[0] == 0.0


def test_simulate_equilibrium_is_exactly_stationary(p):
    s = FullState.constrained(0, 0, 0, 0.0, 0, 0, 0, 0, 0, p)
    traj = simulate("full", s, TorqueProfile.zero(), 1.0, 1e-2, p)
    assert np.max(np.abs(traj.states - traj.states[0])) == 0.0


def test_simulate_steady_roll_distance(p):
    red0 = ReducedState(0, 0, 0, 0, 0.0, 0.0, h_const(p), 0.0)
    traj = simulate("reduced", red0, TorqueProfile.zero(), 5.0, 1e-3, p)
    assert traj.states[-1, 0] == pytest.approx(p.r * 5.0, abs=1e-6)
    assert abs(traj.states[-1, 1]) <= 1e-12


def test_simulate_deterministic(p):
    s = FullState.constrained(0, 0, 0.1, 0.2, 0, 0, 0.1, 0.5, 0.4, p)
    prof = TorqueProfile(((0.0, 0.05, -0.03),))
    a = simulate("full", s, prof, 1.0, 1e-3, p)
    b = simulate("full", s, prof, 1.0, 1e-3, p)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.energy, b.energy)


def test_simulate_validates_inputs(p):
    s = FullState.constrained(0, 0, 0, 0.1, 0, 0, 0, 0, 0, p)
    with pytest.raises(ValueError, match="unknown model"):
        simulate("fancy", s, TorqueProfile.zero(), 1.0, 1e-3, p)
    with pytest.raises(ValueError, match="dt"):
        simulate("full", s, TorqueProfile.zero(), 1.0, -1e-3, p)
    with pytest.raises(TypeError):
        simulate("reduced", s, TorqueProfile.zero(), 1.0, 1e-3, p)
    violating = FullState(0, 0, 0, 0.1, 0, 0, 1.0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="constraints"):
        simulate("full", violating, TorqueProfile.zero(), 1.0, 1e-3, p)


@pytest.mark.parametrize("T, dt, name", [
    (math.inf, 1e-3, "T"), (math.nan, 1e-3, "T"),
    (1.0, math.inf, "dt"), (1.0, math.nan, "dt"),
])
def test_simulate_rejects_non_finite_duration_and_step(p, T, dt, name):
    s = FullState.constrained(0, 0, 0, 0.1, 0, 0, 0, 0, 0, p)
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        simulate("full", s, TorqueProfile.zero(), T, dt, p)


def test_simulate_rejects_overflowing_step_count(p):
    # both finite, but T/dt overflows: no grid, and a ValueError naming T/dt
    s = FullState.constrained(0, 0, 0, 0.1, 0, 0, 0, 0, 0, p)
    with pytest.raises(ValueError, match="T/dt"):
        simulate("full", s, TorqueProfile.zero(), 1e300, 1e-10, p)
    with pytest.raises(ValueError, match="T/dt"):
        n_samples(1e300, 1e-10)


@pytest.mark.parametrize("T", [1e15, 1e20])
def test_simulate_rejects_step_count_beyond_2_pow_53(p, T):
    # T/dt = 1e18 or 1e23: finite, but numpy cannot size the trajectory
    s = FullState.constrained(0, 0, 0, 0.1, 0, 0, 0, 0, 0, p)
    with pytest.raises(ValueError, match="T/dt"):
        simulate("full", s, TorqueProfile.zero(), T, 1e-3, p)


def test_simulate_failure_carries_timestamp(p):
    # 1e305 N m from a tilted rest state: the first stage state is infinite
    # and the next stage's math.sin raises, inside the fused step
    s = FullState.constrained(0, 0, 0, 0.1, 0, 0, 0, 0, 0, p)
    prof = TorqueProfile(((0.0, 1e305, 1e305),))
    for model, initial in (("full", s), ("reduced", full_to_reduced(s, p))):
        with pytest.raises(SimulationError) as err:
            simulate(model, initial, prof, 1.0, 1e-2, p)
        assert (err.value.step, err.value.t) == (0, 0.0)
        assert str(err.value) == "step 0 (t = 0 s) failed: ValueError: math domain error"


@pytest.mark.parametrize("model", ["full", "reduced", "oracle"])
def test_simulation_failure_names_step_cause_and_last_state(p, model):
    # from rest the first step under 1e305 N m overflows; a run that first
    # finishes some steps names the later step and the state it reached
    s = FullState.constrained(0, 0, 0, 0.1, 0, 0, 0, 0, 0, p)
    initial = full_to_reduced(s, p) if model == "reduced" else s
    prof = TorqueProfile(((0.0, 0.0, 0.0), (0.025, 1e305, 1e305)))
    with pytest.raises(SimulationError) as err:
        simulate(model, initial, prof, 1.0, 1e-2, p)
    e = err.value
    assert (e.step, e.t) == (2, 0.02)
    assert isinstance(e.__cause__, ValueError)
    assert str(e).startswith("step 2 (t = 0.02 s) failed: ValueError: ")
    first = simulate(model, initial, prof, 0.02, 1e-2, p)
    assert np.array_equal(e.state, first.states[-1])


def test_shape_mass_failure_surfaces_from_the_fused_step(p, monkeypatch, fresh_kernels):
    # with h patched small the reduced kernel's m(alpha) = m_0 - kappa^2 / h
    # is negative, so the first stage of the first step raises
    from wipdyn import dynamics_reduced
    monkeypatch.setattr(dynamics_reduced, "h_const", lambda params: 1e-6)
    red0 = ReducedState(0, 0, 0, 0, 0.1, 0, 0, 0)
    with pytest.raises(SimulationError) as err:
        simulate("reduced", red0, TorqueProfile.zero(), 0.1, 1e-2, p)
    assert err.value.step == 0
    assert isinstance(err.value.__cause__, ValueError)
    assert "non-positive shape mass" in str(err.value.__cause__)


def test_full_vs_reduced_error_shrinks_fourth_order(p):
    from wipdyn import reduced_to_full
    red0 = ReducedState(0, 0, 0, 0, 0.12, 0.0, 0.25 * h_const(p), 0.0)
    full0 = reduced_to_full(red0, p)
    prof = TorqueProfile.zero()

    def gap(dt):
        tf = simulate("full", full0, prof, 1.0, dt, p)
        tr = simulate("reduced", red0, prof, 1.0, dt, p)
        stats = compare_trajectories(tf, tr, p)
        return max(st.max_abs for st in stats.values())

    gaps = [gap(dt) for dt in (4e-3, 2e-3, 1e-3)]
    for g1, g2 in zip(gaps, gaps[1:]):
        assert g1 / g2 > 8.0  # consistent with O(dt^4)


@pytest.mark.parametrize("model", ["full", "reduced"])
def test_simulate_fetches_rhs_kernel_once(p, kernel_fetches, model):
    # the per-Params kernel is fetched once per run, not once per rhs call
    from wipdyn import dynamics_full, dynamics_reduced
    calls = kernel_fetches(dynamics_full if model == "full" else dynamics_reduced)
    s = FullState.constrained(0.0, 0.0, 0.3, 0.2, 0.0, 0.0, 0.1, 0.5, -0.4, p)
    initial = full_to_reduced(s, p) if model == "reduced" else s
    traj = simulate(model, initial, TorqueProfile.constant(0.01, -0.02), 1.0, 1e-3, p)
    assert len(traj) == 1001
    assert calls == [p]


@pytest.mark.parametrize("model", MODELS)
def test_simulate_steps_through_the_traced_names(p, monkeypatch, model):
    # the benchmark's --trace 1 wraps these module attributes: it takes each
    # model's step times from the sim.rk4_step calls inside its simulate, so
    # every model must step through them, and the referee's row count from
    # the oracle.lagrangian_full calls inside oracle.lagrange_dalembert_rhs
    import wipdyn.oracle as oracle_mod
    import wipdyn.sim as sim_mod
    calls = collections.Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    for owner, name in ((sim_mod, "rk4_step"), (TorqueProfile, "tau_at"),
                        (oracle_mod, "lagrange_dalembert_rhs"), (oracle_mod, "lagrangian_full")):
        count(owner, name)
    s = FullState.constrained(0.0, 0.0, 0.3, 0.2, 0.0, 0.0, 0.1, 0.5, -0.4, p)
    initial = full_to_reduced(s, p) if model == "reduced" else s
    steps = 5
    traj = simulate(model, initial, TorqueProfile.constant(0.01, -0.02), steps * 1e-3, 1e-3, p)
    assert len(traj) == steps + 1
    assert calls["rk4_step"] == steps
    # every model reads its forces from one per-run lookup, which calls
    # tau_at once per torque segment entered: once for a constant profile
    assert calls["tau_at"] == 1
    per_step = 4 if model == "oracle" else 0
    assert calls["lagrange_dalembert_rhs"] == calls["lagrangian_full"] == per_step * steps


@pytest.mark.parametrize("model", MODELS)
def test_force_lookup_steps_are_the_generic_stages_with_tau_at_per_stage(p, model):
    # segments start at t + 0.3 dt of step 2, exactly at the stage time
    # t + dt/2 of step 5 and exactly at the stage time t + dt of step 9.  In
    # floats 9 dt + dt > 10 dt, so step 9's last stage is in the third
    # segment and step 10's first is back in the second: the lookup is asked
    # for an earlier time after a later one.  The reference runs the generic
    # stages around the model's rhs with a tau_at call at every stage.
    from wipdyn import dynamics_full, dynamics_reduced
    dt, steps = 1e-3, 12
    assert 9 * dt + dt > 10 * dt
    prof = TorqueProfile(((2 * dt + 0.3 * dt, 0.01, -0.02),
                          (5 * dt + 0.5 * dt, -0.03, 0.02),
                          (9 * dt + dt, 0.04, 0.05)))
    rhs = {"full": lambda t, y: dynamics_full._kernel(p)(y, *prof.tau_at(t)),
           "reduced": lambda t, y: dynamics_reduced._kernel(p)(y, *u_from_tau(*prof.tau_at(t), p)),
           "oracle": _oracle_ode(prof.tau_at, p)}[model]
    s = FullState.constrained(0.0, 0.0, 0.3, 0.2, 0.0, 0.0, 0.1, 0.5, -0.4, p)
    initial = full_to_reduced(s, p) if model == "reduced" else s
    traj = simulate(model, initial, prof, steps * dt, dt, p)
    ys = [traj.states[0].tolist()]
    for k in range(steps):
        ys.append(rk4_step(_rk4_stages(len(ys[0])), rhs, ys[-1], k * dt, dt))
    assert len(traj) == steps + 1
    assert traj.states.tobytes() == np.array(ys).tobytes()
