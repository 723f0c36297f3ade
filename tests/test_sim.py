import collections
import dis
import inspect
import math
import random
import tracemalloc
from dataclasses import astuple, fields
from decimal import Decimal

import numpy as np
import pytest

from wipdyn import (FullState, ReducedState, SimulationError, TorqueProfile,
                    compare_trajectories, full_to_reduced, h_const, rk4_step,
                    simulate, u_from_tau)
from wipdyn import dynamics_reduced as dred
from wipdyn import sim
from wipdyn.model import (LAYOUTS, reduced_energy, rolling_rates, rolling_residuals,
                          total_energy)
from wipdyn.sim import MODELS, REDUCED_VARIABLES, _oracle_ode, _rk4_stages, n_samples


def test_u_from_tau_symmetric_and_antisymmetric(p):
    # equal torques force rolling only; opposite torques force yaw only
    assert u_from_tau(1.0, 1.0, p) == (2.0, 0.0)
    u1, u2 = u_from_tau(-1.0, 1.0, p)
    assert u1 == 0.0
    assert u2 == pytest.approx(p.d / p.r, rel=1e-15)
    assert u_from_tau(0.0, 0.0, p) == (0.0, 0.0)


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


def test_torque_profile_names_a_bad_value_by_segment_and_field():
    # each torque value is checked once, here, and its message locates it
    with pytest.raises(ValueError, match="^segment 1 tau1 must be a finite number, got nan$"):
        TorqueProfile(((0.0, 0.1, 0.1), (1.0, float("nan"), 0.0)))
    with pytest.raises(ValueError, match="^segment 0 t_start must be a finite number, got True"):
        TorqueProfile(((True, 0.1, 0.1),))
    with pytest.raises(ValueError, match=r"^segment 0 must be a \(t_start, tau1, tau2\) triple, "
                       r"got \(0.0, 1.0\)$"):
        TorqueProfile(((0.0, 1.0),))
    with pytest.raises(ValueError, match=r"^segment 1 must be a \(t_start, tau1, tau2\) triple, "
                       r"got 5$"):
        TorqueProfile(((0.0, 1.0, 2.0), 5))


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


def test_rk4_step_finiteness_fast_path_is_exact():
    # a finite state whose sum overflows is finite all the same
    big = [1e308, 1e308]
    assert sum(big) == math.inf
    assert rk4_step(_rk4_stages(2), lambda t, s: [0.0, 0.0], big, 0.0, 0.1) == big
    # a state of inf and -inf sums to nan, as does one that holds a nan
    for slope in ([math.inf, -math.inf], [math.nan, 0.0], [0.0, -math.inf]):
        with pytest.raises(ValueError, match="non-finite"):
            rk4_step(_rk4_stages(2), lambda t, s: slope, [0.0, 0.0], 0.0, 0.1)


@pytest.mark.parametrize("model", ["full", "reduced"])
def test_fused_stages_build_and_unpack_no_tuples(p, model):
    # the body's tuple assignments and its returned tuple are one assignment per
    # name in the fused stages: the only unpacks left are of the state and the forces
    code = list(dis.get_instructions(sim._stepper(model, p, len(LAYOUTS[model]))[0]))
    assert "BUILD_TUPLE" not in {i.opname for i in code}
    unpacked = [a.argval for a, b in zip(code, code[1:]) if b.opname == "UNPACK_SEQUENCE"]
    assert sorted(unpacked) == ["f", "y"]


def test_a_tuple_assignment_that_reads_its_targets_stays_whole(p, fresh_kernels):
    # sa, ca = ca, sa split into sa = ca; ca = sa would read the new sa: kept
    # whole, the fused step is still the generic stages around the edited kernel
    from wipdyn import dynamics_full
    s = FullState.constrained(0.0, 0.0, 0.3, 0.2, 0.0, 0.0, 0.1, 0.5, -0.4, p)
    y, tau = [getattr(s, n) for n in LAYOUTS["full"]], (0.01, -0.02)

    def steps():
        stages, forces = sim._stepper("full", p, len(y))
        f, ode = forces(*tau, p), dynamics_full._kernel(p)
        generic = rk4_step(_rk4_stages(len(y)), lambda t, yy: ode(yy, *f), y, 0.0, 1e-3)
        return np.array(rk4_step(stages, f, y, 0.0, 1e-3)).tobytes(), np.array(generic).tobytes()

    unedited = steps()
    line = "sa, ca = sin(al), cos(al)\n"
    fresh_kernels(dynamics_full, "_BODY", line, line + "    sa, ca = ca, sa\n")
    fused, generic = steps()
    assert fused == generic != unedited[1]


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
    # 2160.9536/1e-4 rounds to 21609535.999999996: past 2**23 steps an ulp of
    # T/dt exceeds the 1e-9 slack that alone dropped the last sample here
    assert n_samples(2160.9536, 1e-4) == 21_609_537
    assert n_samples(2.0 ** 50 + 0.5, 1.0) == 2 ** 50 + 1  # 4 ulps reach half a step
    # decimal grids T = k dt and T = (k + 1/2) dt, k up to 1e9: the slack alone
    # dropped the last sample of 252 of these 2000 whole grids
    rng = random.Random(30)
    for _ in range(2000):
        k = rng.randint(1, 10 ** 9)
        dt = Decimal(rng.randint(1, 999)).scaleb(-rng.randint(1, 8))
        assert n_samples(float(k * dt), float(dt)) == k + 1
        assert n_samples(float((k + Decimal("0.5")) * dt), float(dt)) == k + 1


def test_simulate_zero_duration_single_sample(p):
    s = FullState.constrained(0, 0, 0, 0.1, 0, 0, 0, 0.2, 0.3, p)
    traj = simulate("full", s, TorqueProfile.zero(), 0.0, 1e-3, p)
    assert len(traj) == 1
    assert traj.t[0] == 0.0


@pytest.mark.parametrize("model", ["full", "oracle"])
def test_a_zero_duration_run_has_a_longer_runs_first_energy(p, random_constrained, model):
    # one sample's energy is its value as a row of a longer run's, bit for
    # bit, over 200 states: a matmul in the energy would round one row (a
    # BLAS dot) otherwise than two (a gemv)
    for _ in range(200):
        s = random_constrained()
        alone = simulate(model, s, TorqueProfile.zero(), 0.0, 1e-3, p).energy
        longer = simulate(model, s, TorqueProfile.zero(), 2e-3, 1e-3, p).energy
        assert alone[0] == longer[0], s


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
    # finishes some steps names the later step and, byte for byte, the state it
    # reached: 1e305 N m from step 2, from steps 140 and 256, past many stored
    # rows, or from inside step 200, which its start splits
    s = FullState.constrained(0, 0, 0, 0.1, 0, 0, 0, 0, 0, p)
    initial = full_to_reduced(s, p) if model == "reduced" else s
    for start, dt, step in ((0.025, 1e-2, 2), (0.14, 1e-3, 140), (0.256, 1e-3, 256),
                            (0.2005, 1e-3, 200)):
        prof = TorqueProfile(((0.0, 0.0, 0.0), (start, 1e305, 1e305)))
        with pytest.raises(SimulationError) as err:
            simulate(model, initial, prof, 0.3, dt, p)
        e = err.value
        assert (e.step, e.t) == (step, step * dt)
        assert isinstance(e.__cause__, ValueError)
        assert str(e).startswith(f"step {step} (t = {step * dt:.6g} s) failed: ValueError: ")
        first = simulate(model, initial, prof, step * dt, dt, p)
        assert len(first) == step + 1
        assert e.state.tobytes() == first.states[-1].tobytes()



def test_full_vs_reduced_error_shrinks_fourth_order(p):
    from wipdyn import reduced_to_full
    red0 = ReducedState(0, 0, 0, 0, 0.12, 0.0, 0.25 * h_const(p), 0.0)
    full0 = reduced_to_full(red0, p)
    prof = TorqueProfile.zero()

    def gap(dt):
        tf = simulate("full", full0, prof, 1.0, dt, p)
        tr = simulate("reduced", red0, prof, 1.0, dt, p)
        stats = compare_trajectories(tf, tr)
        return max(st.max_abs for st in stats.values())

    gaps = [gap(dt) for dt in (4e-3, 2e-3, 1e-3)]
    for g1, g2 in zip(gaps, gaps[1:]):
        assert g1 / g2 > 8.0  # consistent with O(dt^4)


@pytest.mark.parametrize("model, T", [("full", 1.0), ("reduced", 1.0), ("oracle", 0.1)])
def test_piecewise_torques_converge_at_fourth_order(p, rng, model, T):
    # 100 torque segments: 50 start on grid times k/50 (some 1 ulp off the
    # float j dt) and 50 at (k + 0.37)/50, inside steps.  Each step runs on
    # the segment that holds its start time and splits at a start inside
    # it, so the final state converges at RK4's order against dt = 1.25e-4:
    # 4.9 per halving (full, reduced) and 3.9 (oracle, 0.1 s).  Reading the
    # next segment at a step's later stages reads -0.04 to 0.01 on the first
    # halving
    starts = sorted([k / 50 for k in range(50)] + [(k + 0.37) / 50 for k in range(50)])
    prof = TorqueProfile(tuple(zip(starts, *rng.uniform(-0.1, 0.1, (2, 100)).tolist())))
    s = FullState.constrained(0.0, 0.0, 0.3, 0.12, 0.0, 0.0, 0.1, 0.8, 1.1, p)
    initial = full_to_reduced(s, p) if model == "reduced" else s

    def final(dt):
        return simulate(model, initial, prof, T, dt, p).states[-1]

    ref = final(1.25e-4)
    errors = [np.max(np.abs(final(dt) - ref)) for dt in (4e-3, 2e-3, 1e-3)]
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
    assert min(orders) >= 3.5, orders


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
    dt, steps = 1e-3, 5
    # simulate calls tau_at once per torque segment entered.  A start inside
    # step 2 splits it into two rk4_step calls; a start 1 ulp past 4 dt snaps
    # onto that grid time and splits nothing
    off_grid = math.nextafter(4 * dt, math.inf)
    for profile, rk4_calls, segments in (
            (TorqueProfile.constant(0.01, -0.02), steps, 1),
            (TorqueProfile(((0.0, 0.01, -0.02), (2.5 * dt, 0.02, 0.01), (off_grid, -0.01, 0.0))),
             steps + 1, 3)):
        calls.clear()
        traj = simulate(model, initial, profile, steps * dt, dt, p)
        assert len(traj) == steps + 1
        assert (calls["rk4_step"], calls["tau_at"]) == (rk4_calls, segments)
        per_step = 4 if model == "oracle" else 0
        assert calls["lagrange_dalembert_rhs"] == calls["lagrangian_full"] == per_step * rk4_calls


@pytest.mark.parametrize("model", MODELS)
def test_force_lookup_steps_are_the_generic_stages_with_tau_at_per_stage(p, model):
    # segments start inside step 2, at the midpoint of step 5 and at 9 dt + dt,
    # which in floats is 1 ulp past 10 dt.  The reference runs the generic
    # stages around the model's rhs, each (sub-)step under the torques of the
    # segment that holds its start time: steps 2 and 5 split at their starts,
    # and the third start snaps onto 10 dt, as on the profile that starts
    # there, so step 10 runs whole on the third segment
    from wipdyn import dynamics_full, dynamics_reduced
    dt, steps = 1e-3, 12
    assert 9 * dt + dt == math.nextafter(10 * dt, math.inf)
    splits = {2: 2 * dt + 0.3 * dt, 5: 5 * dt + 0.5 * dt}
    torques = ((0.01, -0.02), (-0.03, 0.02), (0.04, 0.05))
    on_grid = TorqueProfile(tuple(zip((*splits.values(), 10 * dt), *zip(*torques))))
    prof = TorqueProfile(tuple(zip((*splits.values(), 9 * dt + dt), *zip(*torques))))
    ode = {"full": lambda tau: lambda t, y: dynamics_full.ode_rhs(y, *tau, p),
           "reduced": lambda tau: lambda t, y: dynamics_reduced.ode_rhs(y, *u_from_tau(*tau, p), p),
           "oracle": lambda tau: _oracle_ode(*tau, p)}[model]
    s = FullState.constrained(0.0, 0.0, 0.3, 0.2, 0.0, 0.0, 0.1, 0.5, -0.4, p)
    initial = full_to_reduced(s, p) if model == "reduced" else s
    traj = simulate(model, initial, prof, steps * dt, dt, p)
    ys = [traj.states[0].tolist()]
    stages = _rk4_stages(len(ys[0]))
    for k in range(steps):
        y, t, h = ys[-1], k * dt, dt
        if k in splits:
            y = rk4_step(stages, ode(on_grid.tau_at(t)), y, t, splits[k] - t)
            t, h = splits[k], (k + 1) * dt - splits[k]
        ys.append(rk4_step(stages, ode(on_grid.tau_at(t)), y, t, h))
    assert len(traj) == steps + 1
    assert traj.states.tobytes() == np.array(ys).tobytes()
    snapped = simulate(model, initial, on_grid, steps * dt, dt, p)
    assert snapped.states.tobytes() == traj.states.tobytes()


def test_layouts_are_the_state_records():
    *constrained, last = inspect.signature(FullState.constrained).parameters
    assert last == "p" and LAYOUTS["full"] == tuple(constrained)
    assert LAYOUTS["reduced"] == tuple(f.name for f in fields(ReducedState)) == REDUCED_VARIABLES
    assert LAYOUTS["oracle"] == tuple(f.name for f in fields(FullState))
    # both full layouts open with FullState.q, which sim's diagnostics view in place
    s = FullState(*range(12))
    for model in ("full", "oracle"):
        assert [getattr(s, n) for n in LAYOUTS[model][:6]] == s.q.tolist()


def test_each_rhs_returns_its_layout(p, rng):
    # as many components as the layout, and each angle's rate is the
    # integrated rate of the same name
    from wipdyn import dynamics_full, dynamics_reduced
    rhs = {"full": lambda y: dynamics_full.ode_rhs(y, 0.1, -0.2, p),
           "reduced": lambda y: dynamics_reduced.ode_rhs(y, 0.1, -0.2, p),
           "oracle": lambda y: _oracle_ode(0.1, -0.2, p)(0.0, y)}
    for model, f in rhs.items():
        layout = LAYOUTS[model]
        y = rng.uniform(-1.0, 1.0, len(layout)).tolist()
        dy = f(y)
        assert len(dy) == len(layout)
        rates = [n for n in layout if n + "_dot" in layout]
        assert len(rates) == {"full": 3, "reduced": 1, "oracle": 6}[model]
        for n in rates:
            assert dy[layout.index(n)] == y[layout.index(n + "_dot")]


@pytest.mark.parametrize("model", MODELS)
def test_trajectory_columns_by_name(p, model):
    s = FullState.constrained(0.0, 0.0, 0.3, 0.2, 0.0, 0.0, 0.1, 0.5, -0.4, p)
    initial = full_to_reduced(s, p) if model == "reduced" else s
    traj = simulate(model, initial, TorqueProfile.constant(0.01, -0.02), 3e-3, 1e-3, p)
    for j, name in enumerate(LAYOUTS[model]):
        assert np.array_equal(traj.column(name), traj.states[:, j])
    shared = dict(zip(REDUCED_VARIABLES, traj.shared.T))
    for name in ("x", "theta", "alpha", "alpha_dot"):
        assert np.array_equal(shared[name], traj.column(name))
    assert np.array_equal(shared["p1"], traj.column("p1"))
    missing = "phi_dot"  # neither integrated nor shared
    with pytest.raises(ValueError, match=missing):
        traj.column(missing)


@pytest.mark.parametrize("model", MODELS)
def test_shared_series_is_full_to_reduced_per_sample(p, model):
    # the one change of representation, on columns, equals it on each sample's
    # state bit for bit; p1 and p2 read as read-only views of the series
    s = FullState.constrained(0.1, -0.2, 0.3, 0.25, 0.4, -0.6, 0.3, 1.1, -0.7, p)
    initial = full_to_reduced(s, p) if model == "reduced" else s
    traj = simulate(model, initial, TorqueProfile.constant(0.02, -0.01), 0.02, 1e-3, p)
    assert traj.shared.shape == (len(traj), len(REDUCED_VARIABLES))
    for name in ("p1", "p2"):
        column = traj.column(name)
        assert np.shares_memory(column, traj.shared) and not column.flags.writeable
    if model == "reduced":
        assert traj.shared is traj.states
        return
    for k in (0, len(traj) // 2, len(traj) - 1):
        row = traj.states[k].tolist()
        state = FullState.constrained(*row, p) if model == "full" else FullState(*row)
        assert traj.shared[k].tolist() == list(astuple(full_to_reduced(state, p)))


def _diagnostics_over_all_rows(model, Y, p):
    """The diagnostics' formulas evaluated on every row of Y at once."""
    v = dict(zip(LAYOUTS[model], Y.T))
    zero = np.zeros((len(Y), 3))
    if model == "reduced":
        return reduced_energy((v["alpha"], v["alpha_dot"], v["p1"], v["p2"]), p), Y, zero
    if model == "full":
        v.update(zip(("x_dot", "y_dot", "theta_dot"),
                     rolling_rates(v["theta"], v["phi1_dot"], v["phi2_dot"], p)))
    q, qd = Y[:, :6], np.stack([v[n] for n in LAYOUTS["oracle"][6:]], axis=1)
    red = dred._to_reduced(v, p)
    return (total_energy((q, qd), p), np.stack([red[n] for n in REDUCED_VARIABLES], axis=1),
            rolling_residuals(q, qd, p) if model == "oracle" else zero)


@pytest.mark.parametrize("model", MODELS)
def test_diagnostics_in_row_blocks_are_the_formulas_over_all_rows(p, monkeypatch, model):
    # with 7-row blocks, 51 samples are seven blocks and a partial one of two
    # rows, 50 samples seven and a partial one of one row; every block's
    # values are the all-rows values bit for bit
    monkeypatch.setattr(sim, "_BLOCK", 7)
    s = FullState.constrained(0.1, -0.2, 0.3, 0.25, 0.4, -0.6, 0.3, 1.1, -0.7, p)
    initial = full_to_reduced(s, p) if model == "reduced" else s
    profile = TorqueProfile(((0.0, 0.02, -0.01), (0.0215, -0.03, 0.04)))
    for T, samples in ((0.05, 51), (0.049, 50)):
        traj = simulate(model, initial, profile, T, 1e-3, p)
        assert len(traj) == samples
        energy, shared, res = _diagnostics_over_all_rows(model, traj.states, p)
        assert traj.energy.tobytes() == energy.tobytes()
        assert traj.shared.tobytes() == shared.tobytes()
        assert traj.residuals.tobytes() == res.tobytes()
        for a in (traj.t, traj.states, traj.shared, traj.energy, traj.residuals):
            assert not a.flags.writeable
        if model != "oracle":  # one zero row, viewed N times
            assert traj.residuals.shape == (len(traj), 3) and traj.residuals.strides[0] == 0
        if model == "reduced":
            assert np.shares_memory(traj.shared, traj.states)


@pytest.mark.parametrize("model", ["full", "reduced"])
def test_a_long_run_peaks_near_the_arrays_it_returns(p, model):
    # the tracemalloc peak of a 20,001-sample run stays within 1.3x the bytes
    # it returns: 1.58x (full) and 1.50x (reduced) when the diagnostics took
    # every row at once, about 1.02x and 1.00x in blocks
    s = FullState.constrained(0.1, -0.2, 0.3, 0.25, 0.4, -0.6, 0.3, 1.1, -0.7, p)
    initial = full_to_reduced(s, p) if model == "reduced" else s
    profile = TorqueProfile.constant(0.01, -0.02)
    simulate(model, initial, profile, 2e-3, 1e-3, p)  # compiles and caches the stepper
    tracemalloc.start()
    try:
        traj = simulate(model, initial, profile, 20.0, 1e-3, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 20001
    # the reduced shared series is states itself; the residuals are one zero row
    arrays = (traj.t, traj.states, traj.energy) + ((traj.shared,) if model == "full" else ())
    returned = sum(a.nbytes for a in arrays)
    assert peak < 1.3 * returned, peak / returned
