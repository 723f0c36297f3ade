"""Property tests over random valid parameter sets.

Every field of Params is drawn within a factor of two of Params.default(),
which keeps the set physical and well conditioned.
"""

import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from conftest import constrained_mass, ddt
from wipdyn import (Controls, FullState, Params, TorqueProfile,
                    accelerations_q6, compare_trajectories, f_of_alpha,
                    full_to_reduced, h_const, i_theta, lagrange_dalembert_rhs,
                    power_balance_error, reduced_to_full, rk4_step,
                    run_structural_checks, shape_mass, simulate, u_from_tau)
from wipdyn import dynamics_full, dynamics_reduced, model
from wipdyn.oracle import CS_STEP
from wipdyn.sim import _rk4_stages, _stepper
from wipdyn.validation import _torque_rows

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
    out = ddt(s, tau1, tau2, p)
    return np.array([out["alpha_dot"], out["phi1_dot"], out["phi2_dot"]])


@property_settings
@given(case())
def test_torque_response_identity(c):
    # M(alpha) (a(tau) - a(0)) = (0, tau1, tau2): the closed-form solve is
    # linear in the torques with the referee's mass matrix as its inverse;
    # worst 3.1e-14 of scale over 2000 random cases
    p, s, ctl = c
    M = constrained_mass(s.alpha, p)
    a_tau = _shape_accels(s, ctl.tau1, ctl.tau2, p)
    a_free = _shape_accels(s, 0.0, 0.0, p)
    resid = M @ (a_tau - a_free) - np.array([0.0, ctl.tau1, ctl.tau2])
    scale = np.max(np.abs(M)) * max(np.max(np.abs(a_tau)), np.max(np.abs(a_free)), 1.0)
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
def test_accelerations_match_oracle_at_high_rates(c):
    # the case's tilt rate scaled by 100 and wheel rates by 50: up to 100
    # rad/s each.  Worst measured 7.0e-13 over 2000 draws from the same
    # ranges; the bound is about 100x that
    p, s, ctl = c
    fast = FullState.constrained(s.x, s.y, s.theta, s.alpha, s.phi1, s.phi2,
                                 100.0 * s.alpha_dot, 50.0 * s.phi1_dot, 50.0 * s.phi2_dot, p)
    assert _oracle_error(p, fast, ctl)[0] <= 7e-11


@property_settings
@given(case())
def test_full_reduced_round_trip(c):
    p, s, _ = c
    red = full_to_reduced(s, p)
    back = reduced_to_full(red, p)
    assert back.phi1 == back.phi2 == red.phi  # the wheel difference is not reduced
    wheels = [4, 5]  # phi1, phi2 in q
    assert np.delete(back.q, wheels) == pytest.approx(np.delete(s.q, wheels), rel=1e-12, abs=1e-12)
    assert back.q_dot == pytest.approx(s.q_dot, rel=1e-12, abs=1e-12)
    again = full_to_reduced(back, p)
    for name in ("x", "y", "theta", "phi", "alpha", "alpha_dot", "p1", "p2"):
        assert getattr(again, name) == pytest.approx(getattr(red, name), rel=1e-12, abs=1e-12)


def _momentum_rates(p, s, ctl):
    """(p1_dot, p2_dot) by differentiating p1 = h phi_dot + r m_b b cos(alpha)
    alpha_dot and p2 = f(alpha) theta_dot along the full model's
    accelerations, and the same from the reduced rhs."""
    out = ddt(s, ctl.tau1, ctl.tau2, p)
    ca, sa = math.cos(s.alpha), math.sin(s.alpha)
    thd = p.r / p.d * (s.phi2_dot - s.phi1_dot)
    ith_prime = i_theta(s.alpha + 1j * CS_STEP, p).imag / CS_STEP  # one complex step
    p1_dot = (h_const(p) * 0.5 * (out["phi1_dot"] + out["phi2_dot"])
              + p.r * p.m_b * p.b * (ca * out["alpha_dot"] - sa * s.alpha_dot ** 2))
    p2_dot = (float(f_of_alpha(s.alpha, p)) * p.r / p.d * (out["phi2_dot"] - out["phi1_dot"])
              + ith_prime * s.alpha_dot * thd)
    red = full_to_reduced(s, p)
    y = (red.x, red.y, red.theta, red.phi, red.alpha, red.alpha_dot, red.p1, red.p2)
    return [p1_dot, p2_dot], dynamics_reduced.ode_rhs(y, *u_from_tau(ctl.tau1, ctl.tau2, p), p)[6:]


@property_settings
@given(case())
def test_momentum_rates_of_full_model_match_reduced_rhs(c):
    from_full, rates = _momentum_rates(*c)
    assert rates == pytest.approx(from_full, rel=1e-10, abs=1e-11)


def test_one_yaw_inertia_statement_feeds_all_three_formulations(
        p, random_constrained, scale_inertias):
    # move i_0 and i_s of model._inertias by a few percent: the full and
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
    scale_inertias(i_0=1.05, i_s=0.97)
    moved = np.min(np.max(np.abs(outputs() - before), axis=1))
    assert moved > 1e-6


def test_constrained_scalars_are_one_record_the_referee_checks(
        p, random_constrained, scale_inertias):
    # both kernels bind the record's scalars by its names, read-only
    record = model._inertias(p)
    full, reduced = (m._kernel(p).__globals__ for m in (dynamics_full, dynamics_reduced))
    for bound in (full, reduced):
        assert {n: bound[n] for n in record} == dict(record)
    assert full["mgb"] == reduced["mgb"]
    with pytest.raises(TypeError):
        record["h"] = 1.0
    # the referee states its own L: one wrong constrained scalar leaves the
    # full and reduced models agreeing with each other but not with it
    cases = [(random_constrained(), Controls(0.3, -0.2)) for _ in range(5)]
    for name in ("mgb", "h"):
        scale_inertias(**{name: 1.01})
        worst_pair, least_oracle = 0.0, math.inf
        for s, ctl in cases:
            from_full, rates = _momentum_rates(p, s, ctl)
            red = full_to_reduced(s, p)
            y = (red.x, red.y, red.theta, red.phi, red.alpha, red.alpha_dot, red.p1, red.p2)
            alpha_dd = dynamics_reduced.ode_rhs(y, *u_from_tau(ctl.tau1, ctl.tau2, p), p)[5]
            full_alpha_dd = ddt(s, ctl.tau1, ctl.tau2, p)["alpha_dot"]
            worst_pair = max(worst_pair, abs(full_alpha_dd - alpha_dd),
                             *np.abs(np.subtract(rates, from_full)))
            least_oracle = min(least_oracle, _oracle_error(p, s, ctl)[0])
        assert worst_pair <= 1e-10, name
        assert least_oracle > 1e-4, name


def _reduced_rhs_by_formula(y, u1, u2, p):
    """The reduced equations term by term from the model's inertia helpers,
    in the evaluation order of the rhs kernel's constants; f'(alpha) from the
    inertia record as (i_s - i_c) sin(2 alpha)."""
    th, al, ald, p1, p2 = y[2], y[4], y[5], y[6], y[7]
    sa, ca = math.sin(al), math.cos(al)
    h = h_const(p)
    rec = model._inertias(p)
    fa = f_of_alpha(al, p)
    m_al = shape_mass(al, p)
    mbbr = p.m_b * p.b * p.r
    xi3 = p2 / fa
    xi4 = (p1 - mbbr * ca * ald) / h
    xi1 = p.r * xi4
    alpha_dd = (-(mbbr * mbbr) * sa * ca / h * ald * ald
                + 0.5 * ((rec["i_s"] - rec["i_c"]) * math.sin(2.0 * al)
                         - 2.0 * mbbr * mbbr * sa * ca / h) * xi3 * xi3
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


@property_settings
@given(params, st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("name", ["full", "reduced"])
def test_kernels_on_columns_are_the_scalar_rhs_bit_for_bit(name, p, seed):
    # model._on_columns binds numpy's sin and cos into a kernel's globals, so
    # the momentum-rate check runs the reduced body once on all its samples:
    # each row must equal the scalar ode_rhs in every bit.  numpy's SIMD sin
    # and cos need not round as math's do on every build: where one does
    # not, bound the difference in ulps (ROADMAP item 4), do not drop this
    module = {"full": dynamics_full, "reduced": dynamics_reduced}[name]
    rng = np.random.default_rng(seed)
    y = rng.uniform(-2.0, 2.0, (64, len(model.LAYOUTS[name])))
    f1, f2 = rng.uniform(-1.0, 1.0, (2, 64))
    columns = model._on_columns(module._kernel(p))(y.T, f1, f2)
    for k, row in enumerate(y.tolist()):
        scalar = module.ode_rhs(row, float(f1[k]), float(f2[k]), p)
        assert [float.hex(float(c[k])) for c in columns] == list(map(float.hex, scalar))


# every field scaled by e^u with |u| <= 30, far from physical; random draws
# rarely reach a degenerate set, so two explicit examples sit at the edge
wide_params = st.fixed_dictionaries(
    {k: st.floats(-30.0, 30.0).map(lambda u, v=v: v * math.exp(u))
     for k, v in Params.default().to_dict().items()})


_BODY_ONLY = dict(Params.default().to_dict(), m_b=1.0, b=1.0, r=1.0,
                  m_W=1e-20, I_Wyy=1e-20, I_Byy=1e-20)


@property_settings
@given(wide_params)
@example(_BODY_ONLY)  # m(0) rounds to 0.0: rejected
@example(dict(_BODY_ONLY, I_Byy=1e-12))  # m(0) about 1e-12 after cancellation
def test_params_check_at_alpha_zero_covers_every_tilt(values):
    # shape_mass on floats is the reduced kernel's m(alpha) bit for bit (see
    # the test above), so a constructed set never divides by m <= 0 there
    try:
        p = Params(**values)
    except ValueError:
        return
    m_0 = shape_mass(0.0, p)
    assert m_0 > 0.0
    assert min(shape_mass(al, p) for al in np.linspace(0.0, math.pi, 181).tolist()) >= m_0


@no_shrink
@given(case(), st.floats(0.0, 10.0), st.floats(1e-4, 0.05))
def test_fused_steps_are_the_generic_stages_bit_for_bit(c, t, dt):
    # each model's fused step inlines its rhs body and reads the forces of
    # its step's segment once; the generic stages run around its ode with the
    # same forces held at every stage.  Another parameter set only binds
    # constants: its ode and fused step run the same code objects.
    p, s, ctl = c
    red = full_to_reduced(s, p)
    states = {"full": [s.x, s.y, s.theta, s.alpha, s.phi1, s.phi2,
                       s.alpha_dot, s.phi1_dot, s.phi2_dot],
              "reduced": [red.x, red.y, red.theta, red.phi, red.alpha,
                          red.alpha_dot, red.p1, red.p2]}
    for model, module in (("full", dynamics_full), ("reduced", dynamics_reduced)):
        y, ode = states[model], module._kernel(p)
        stages, forces = _stepper(model, p, len(y))
        f = forces(ctl.tau1, ctl.tau2, p)
        ref = rk4_step(_rk4_stages(len(y)), lambda tt, yy: ode(yy, *f), y, t, dt)
        fused = rk4_step(stages, f, y, t, dt)
        assert np.array(fused).tobytes() == np.array(ref).tobytes()
        other = Params.default()
        assert ode.__code__ is module._kernel(other).__code__
        assert stages.__code__ is _stepper(model, other, len(y))[0].__code__


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
    # the torque table's rows at the times' segments, the check lines' path,
    # are tau_at's values, and u_from_tau on their columns is u_from_tau on
    # each time's tau_at, the reduced model's forces, bit for bit
    profile, times = c
    rows = _torque_rows(profile, np.array(times))
    assert rows.tobytes() == np.array([profile.tau_at(t) for t in times]).tobytes()
    columns = np.stack(u_from_tau(*rows.T, p), axis=1)
    assert columns.tobytes() == np.array([u_from_tau(*profile.tau_at(t), p)
                                          for t in times]).tobytes()


@property_settings
@given(case())
def test_wheel_difference_inertia_is_yaw_inertia(c):
    # a1 - a3 = 2 (r/d)^2 I_theta(alpha) + I_Wyy ties the full kernel's inertia
    # to model.i_theta.  At zero rates under tau = (-1, 1), phi2_dd - phi1_dd =
    # 2/(a1 - a3); at alpha in {0, +-pi/2} the wheel sum adds no rounding to
    # the difference (at other alpha it adds up to 5.4e-15).  Worst 6.3e-16
    # relative over 30000 random cases
    p, s, _ = c
    for al in (0.0, 0.5 * math.pi, -0.5 * math.pi):
        rest = FullState.constrained(s.x, s.y, s.theta, al, s.phi1, s.phi2, 0.0, 0.0, 0.0, p)
        out = ddt(rest, -1.0, 1.0, p)
        ref = 2.0 * (p.r / p.d) ** 2 * i_theta(al, p) + p.I_Wyy
        assert abs(2.0 / (out["phi2_dot"] - out["phi1_dot"]) - ref) <= 1e-15 * ref


@settings(property_settings, max_examples=20)
@given(params)
def test_energy_drift_lines_hold_on_random_sets(p):
    # the zero-torque drift's observed order on the suite's step-halving pair
    # and its extrapolation to dt = 1e-4: worst 3.74 and 2.0e-10 over 150
    # uniform random sets, against 3.5 and 1e-8
    lines = {r.name: r for r in run_structural_checks(p) if "energy drift" in r.name}
    assert len(lines) == 2 and all(r.passed for r in lines.values()), lines


# Short runs for the trajectory properties: 0.1 s at dt = 5e-4 under the
# case's constant torques, fewer examples to keep them cheap.  Worst over
# 3000 uniform random cases (600 random hypothesis examples): full vs reduced
# 1.1e-11 (1.8e-11), the RK4 truncation of two coordinate systems.  Power
# balance is exact to rounding at every sample, by one complex step of the
# energy along the vector field: 2.0e-13 over 600 uniform random cases.
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
    stats = compare_trajectories(full, red)
    assert max(st.max_abs for st in stats.values()) <= 1e-9


@run_settings
@given(case())
def test_power_balance(c):
    p, profile, full = _short_run(c)
    assert power_balance_error(full, profile, p) <= 1e-9
