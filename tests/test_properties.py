"""Property tests over random valid parameter sets.

Every field of Params is drawn within a factor of two of Params.default(),
which keeps the set physical and well conditioned.
"""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from wipdyn import (Controls, FullState, Params, TorqueProfile,
                    accelerations_q6, compare_trajectories, f_of_alpha,
                    f_prime, full_rhs, full_to_reduced, h_const, i_theta,
                    lagrange_dalembert_rhs, mass_matrix, power_balance_error,
                    reduced_to_full, rk4_step, shape_mass, simulate, u_from_tau)
from wipdyn import dynamics_full, dynamics_reduced, model
from wipdyn.sim import _force_lookup, _rk4_stages, _stepper

# deterministic examples, no example database on disk
property_settings = settings(derandomize=True, deadline=None, max_examples=60, database=None)
# No shrink phase where shrinking a failure is slow and the first failing
# example already says which case broke.  With the factor r dropped from
# xi1 in the reduced rhs, shrinking took 34 s for the bit-for-bit test and
# 106 s for the trajectory test; without it the red file takes about 4 s.
no_shrink = settings(property_settings,
                     phases=(Phase.explicit, Phase.reuse, Phase.generate))

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


def _oracle_error(p, s, ctl):
    """Max |accelerations_q6 - oracle q_dd|, relative to max(1, |q_dd|), and
    the oracle's q_dd."""
    tau = np.array([0.0, 0.0, 0.0, 0.0, ctl.tau1, ctl.tau2])
    ref = lagrange_dalembert_rhs(s.q, s.q_dot, tau, p)
    return np.max(np.abs(accelerations_q6(s, ctl, p) - ref)) / max(1.0, np.max(np.abs(ref))), ref


@property_settings
@given(case())
def test_accelerations_match_oracle(c):
    assert _oracle_error(*c)[0] <= 1e-10


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


def _momentum_rates(p, s, ctl):
    """(p1_dot, p2_dot) by differentiating p1 = h phi_dot + r m_b b cos(alpha)
    alpha_dot and p2 = f(alpha) theta_dot along the full model's
    accelerations, and the same from the reduced rhs."""
    out = full_rhs(s, ctl, p)
    ca, sa = math.cos(s.alpha), math.sin(s.alpha)
    thd = p.r / p.d * (s.phi2_dot - s.phi1_dot)
    p1_dot = (h_const(p) * 0.5 * (out.phi1_ddot + out.phi2_ddot)
              + p.r * p.m_b * p.b * (ca * out.alpha_ddot - sa * s.alpha_dot ** 2))
    p2_dot = (float(f_of_alpha(s.alpha, p)) * p.r / p.d * (out.phi2_ddot - out.phi1_ddot)
              + float(f_prime(s.alpha, p)) * s.alpha_dot * thd)
    red = full_to_reduced(s, p)
    y = (red.x, red.y, red.theta, red.phi, red.alpha, red.alpha_dot, red.p1, red.p2)
    return [p1_dot, p2_dot], dynamics_reduced.ode_rhs(y, *u_from_tau(ctl.tau1, ctl.tau2, p), p)[6:]


@property_settings
@given(case())
def test_momentum_rates_of_full_model_match_reduced_rhs(c):
    from_full, rates = _momentum_rates(*c)
    assert rates == pytest.approx(from_full, rel=1e-10, abs=1e-11)


def test_one_yaw_inertia_statement_feeds_all_three_formulations(
        p, random_constrained, monkeypatch, fresh_kernels):
    # move i_0 and i_s of model._yaw_inertia by a few percent: the full and
    # reduced kernels and the oracle's Lagrangian must all follow
    cases = [(random_constrained(), Controls(0.3, -0.2)) for _ in range(5)]

    def outputs():
        values = []
        for s, ctl in cases:
            err, ref = _oracle_error(p, s, ctl)
            from_full, rates = _momentum_rates(p, s, ctl)
            assert err <= 1e-10
            assert rates == pytest.approx(from_full, rel=1e-10, abs=1e-11)
            values.append(np.concatenate([ref, rates]))
        return np.array(values)

    before = outputs()
    yaw = model._yaw_inertia

    def patched(params):
        i_0, i_c, i_s = yaw(params)
        return 1.05 * i_0, i_c, 0.97 * i_s

    monkeypatch.setattr(model, "_yaw_inertia", patched)
    for kernel in fresh_kernels:
        kernel.cache_clear()
    moved = np.min(np.max(np.abs(outputs() - before), axis=1))
    assert moved > 1e-6


def _reduced_rhs_by_formula(y, u1, u2, p):
    """The reduced equations term by term from the model's inertia helpers,
    in the evaluation order of the rhs kernel's constants."""
    th, al, ald, p1, p2 = y[2], y[4], y[5], y[6], y[7]
    sa, ca = math.sin(al), math.cos(al)
    h = h_const(p)
    fa = f_of_alpha(al, p)
    m_al = shape_mass(al, p)
    mbbr = p.m_b * p.b * p.r
    xi3 = p2 / fa
    xi4 = (p1 - mbbr * ca * ald) / h
    xi1 = p.r * xi4
    alpha_dd = (-(mbbr * mbbr) * sa * ca / h * ald * ald
                + 0.5 * (f_prime(al, p) - 2.0 * mbbr * mbbr * sa * ca / h) * xi3 * xi3
                + p.m_b * p.g * p.b * sa
                - mbbr * ca / h * u1) / m_al
    return (xi1 * math.cos(th), xi1 * math.sin(th), xi3, xi4, ald, alpha_dd,
            mbbr * sa * xi3 * xi3 + u1, -mbbr * sa * xi3 * xi4 + u2)


@no_shrink
@given(case())
def test_reduced_kernel_is_the_model_formulas_bit_for_bit(c):
    # the kernel binds h, f(alpha), f'(alpha) and m(alpha)'s constants once per
    # Params; a mis-hoisted constant shows up as a differing bit
    p, s, ctl = c
    red = full_to_reduced(s, p)
    u1, u2 = u_from_tau(ctl.tau1, ctl.tau2, p)
    for alpha in (red.alpha, 0.0, 0.5 * math.pi, math.pi, -2.5):
        y = (red.x, red.y, red.theta, red.phi, alpha, red.alpha_dot, red.p1, red.p2)
        assert dynamics_reduced.ode_rhs(y, u1, u2, p) == _reduced_rhs_by_formula(y, u1, u2, p)


@no_shrink
@given(case(), st.floats(0.0, 10.0), st.floats(1e-4, 0.05))
def test_fused_steps_are_the_generic_stages_bit_for_bit(c, t, dt):
    # each model's fused step inlines its rhs body and looks the forces up
    # once per distinct stage time; the generic stages around its ode look
    # them up at every stage.  A second torque segment starting inside
    # (t, t + dt/2), at t + dt/2 or inside (t + dt/2, t + dt) shows a lookup
    # at the wrong stage time.  Another parameter set only binds constants:
    # its ode and fused step run the same code objects.
    p, s, ctl = c
    red = full_to_reduced(s, p)
    states = {"full": [s.x, s.y, s.theta, s.alpha, s.phi1, s.phi2,
                       s.alpha_dot, s.phi1_dot, s.phi2_dot],
              "reduced": [red.x, red.y, red.theta, red.phi, red.alpha,
                          red.alpha_dot, red.p1, red.p2]}
    for start in (t + 0.3 * dt, t + 0.5 * dt, t + 0.8 * dt):
        profile = TorqueProfile(((t - 1.0, ctl.tau1, ctl.tau2),
                                 (start, ctl.tau1 + 1.0, ctl.tau2 - 1.0)))
        forces = {"full": profile.tau_at,
                  "reduced": lambda tt: u_from_tau(*profile.tau_at(tt), p)}
        for model, module in (("full", dynamics_full), ("reduced", dynamics_reduced)):
            y, ode, force = states[model], module._kernel(p), forces[model]
            ref = rk4_step(_rk4_stages(len(y)), lambda tt, yy: ode(yy, *force(tt)), y, t, dt)
            stages, tau_at = _stepper(model, profile, p, len(y))
            fused = rk4_step(stages, tau_at, y, t, dt)
            assert np.array(fused).tobytes() == np.array(ref).tobytes()
            other = Params.default()
            assert ode.__code__ is module._kernel(other).__code__
            assert stages.__code__ is _stepper(model, profile, other, len(y))[0].__code__


@st.composite
def profile_and_times(draw):
    """A torque profile, possibly empty, and times in a drawn order: every
    segment start, its float neighbours on both sides, a time before the
    first start, both infinities and a few free draws."""
    starts = sorted(set(draw(st.lists(st.floats(-5.0, 5.0), max_size=6))))
    torque = st.floats(-2.0, 2.0)
    profile = TorqueProfile(tuple((t, draw(torque), draw(torque)) for t in starts))
    edges = [x for t in starts
             for x in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))]
    before = min(starts, default=0.0) - 1.0
    free = draw(st.lists(st.floats(-10.0, 10.0), max_size=8))
    times = draw(st.permutations(edges + free + [before, -math.inf, math.inf]))
    return profile, times


@property_settings
@given(params, profile_and_times())
def test_force_lookup_is_tau_at_at_any_time_in_any_order(p, c):
    # the per-run lookup keeps one segment's bounds and forces; it must give
    # tau_at's value (u_from_tau's for the reduced model) for any sequence
    # of times, and two lookups on one profile must not share that state
    profile, times = c
    full, reduced = _stepper("full", profile, p, 9)[1], _stepper("reduced", profile, p, 8)[1]
    other = _force_lookup(profile, p)
    for t, back in zip(times, reversed(times)):
        assert full(t) == profile.tau_at(t)
        assert other(back) == profile.tau_at(back)
        assert reduced(t) == u_from_tau(*profile.tau_at(t), p)


@property_settings
@given(case())
def test_mass_matrix_wheel_difference_is_yaw_inertia(c):
    # a1 - a3 = 2 (r/d)^2 I_theta(alpha) + I_Wyy ties the full kernel's inertia
    # to model.i_theta; worst 8.2e-16 relative over 30000 random cases
    p, s, _ = c
    M = mass_matrix(s.alpha, p)
    ref = 2.0 * (p.r / p.d) ** 2 * i_theta(s.alpha, p) + p.I_Wyy
    assert abs((M[1, 1] - M[1, 2]) - ref) <= 1e-15 * ref


# Short runs for the trajectory properties: 0.1 s at dt = 5e-4 under the
# case's constant torques, fewer examples to keep them cheap.  Worst over
# 3000 uniform random cases (600 random hypothesis examples): full vs reduced
# 1.1e-11 (1.8e-11), the RK4 truncation of two coordinate systems, and power
# balance 9.8e-5 (8.4e-5), the O(dt^2) central difference of the energy.
run_settings = settings(no_shrink, max_examples=30)


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
