import cmath
import json
import math

import numpy as np
import pytest

from wipdyn import (Controls, FullState, Params, ReducedState, TorqueProfile, f_of_alpha,
                    h_const, i_theta, lagrangian_full,
                    reduced_energy, shape_mass, total_energy)
from wipdyn.model import LAYOUTS, _inertias, _lift, rolling_rates, rolling_residuals
from wipdyn.oracle import CS_STEP, lagrangian_derivatives

from conftest import contact_velocities, rigid_body_lagrangian


def _central(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# inertia scalars


# I_theta(alpha) = 2 (L(q, e_theta) - L(q, 0)) of the rigid-body assembly at
# q = (0, 0, 0, alpha, 0, 0), frozen from 40-digit mpmath at the default set;
# it is 2 I_Wzz + m_W d^2 / 2 + I_Bz cos^2(alpha) + (I_Bxx + m_b b^2) sin^2(alpha)
I_THETA_FROZEN = {0.0: 0.07120833333333335, math.pi / 2: 0.3352083333333334,
                  0.3: 0.0942640321652558}


def test_i_theta_at_zero(p):
    assert i_theta(0.0, p) == pytest.approx(I_THETA_FROZEN[0.0], rel=1e-15)


def test_i_theta_at_half_pi(p):
    assert i_theta(math.pi / 2, p) == pytest.approx(I_THETA_FROZEN[math.pi / 2], rel=1e-14)


def test_i_theta_frozen_value(p):
    assert i_theta(0.3, p) == pytest.approx(I_THETA_FROZEN[0.3], abs=1e-15)


def test_i_theta_even_and_pi_periodic(p, rng):
    for al in rng.uniform(-3.0, 3.0, 20):
        assert i_theta(al, p) == pytest.approx(i_theta(-al, p), rel=1e-14)
        assert i_theta(al, p) == pytest.approx(i_theta(al + math.pi, p), rel=1e-13)


def test_i_theta_derivative_vanishes_at_critical_points(p):
    for al in (0.0, math.pi / 2):
        assert abs(_central(lambda a: i_theta(a, p), al)) < 1e-10
        assert abs(_central(lambda a: f_of_alpha(a, p), al)) < 1e-10


def test_i_theta_prime_matches_finite_difference(p, rng):
    # dI_theta/dalpha = (i_s - i_c) sin(2 alpha), read by one complex step as
    # the reduced dynamics' property tests do
    rec = _inertias(p)
    for al in rng.uniform(-3.0, 3.0, 10):
        prime = i_theta(al + 1j * CS_STEP, p).imag / CS_STEP
        assert prime == pytest.approx((rec["i_s"] - rec["i_c"]) * math.sin(2.0 * al),
                                      rel=1e-14, abs=1e-15)
        fd = _central(lambda a: i_theta(a, p), al)
        assert prime == pytest.approx(fd, abs=5e-9)
        # f differs from I_theta by a constant, so it has the same derivative
        fd_f = _central(lambda a: f_of_alpha(a, p), al)
        assert prime == pytest.approx(fd_f, abs=5e-9)


def test_f_of_alpha_composition_and_symmetry(p, rng):
    assert f_of_alpha(0.0, p) == pytest.approx(
        i_theta(0.0, p) + p.d ** 2 * p.I_Wyy / (2 * p.r ** 2), rel=1e-15)
    for al in rng.uniform(-3.0, 3.0, 10):
        assert f_of_alpha(al, p) == pytest.approx(f_of_alpha(-al, p), rel=1e-14)
        assert f_of_alpha(al, p) > 0.0
        # f - I_theta is the constant f_wy up to the sum's rounding: worst
        # 1.5e-16 of f over 30000 random alpha on default and random sets
        f = f_of_alpha(al, p)
        assert abs(f - i_theta(al, p) - _inertias(p)["f_wy"]) <= 1e-15 * f


def test_h_const(p):
    assert h_const(p) == pytest.approx((p.m_b + 2 * p.m_W) * p.r ** 2 + 2 * p.I_Wyy,
                                       rel=1e-15)
    assert h_const(p) > 0.0


def test_h_const_mass_free_limit():
    # formula collapses to 2 I_Wyy when the masses vanish
    tiny = Params(m_b=1e-12, m_W=1e-12, b=0.2, r=0.1, d=0.4,
                  I_Bxx=0.1, I_Byy=0.1, I_Bz=0.05, I_Wyy=1.0, I_Wzz=0.5, g=9.81)
    assert h_const(tiny) == pytest.approx(2.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Lagrangian


def test_lagrangian_full_rest_values(p):
    q = np.zeros(6)
    qd = np.zeros(6)
    assert lagrangian_full(q, qd, p) == pytest.approx(-p.m_b * p.b * p.g, rel=1e-15)
    q[3] = math.pi / 2
    assert abs(lagrangian_full(q, qd, p)) < 1e-15


# (q, q_dot, L): L frozen from the rigid-body assembly (conftest) evaluated
# in 40-digit arithmetic (mpmath) at the default parameter set
LAGRANGIAN_FROZEN = [
    ((0.3, -0.7, 1.1, 0.4, 2.0, -1.5), (0.5, -0.2, 0.8, -0.6, 1.3, 0.9), -8.272322904889451),
    ((-1.2, 0.5, -2.6, -0.9, 0.1, 0.3), (-1.1, 0.7, -0.3, 1.4, -2.0, 0.6), -0.48606628820754266),
    ((0.0, 0.0, 3.0, 1.3, 0.0, 0.0), (0.05, 2.0, -1.7, 0.2, -0.4, -3.1), 13.125336560801559),
]
# the oracle's complex-step rows: q + i h q_dot, h = 1e-30, at the first
# state; the imaginary part is h dL/dq . q_dot
COMPLEX_FROZEN = complex(-8.272322904889451, -1.8731598715827153e-30)


@pytest.mark.parametrize("q, qd, frozen", LAGRANGIAN_FROZEN, ids=("state0", "state1", "state2"))
def test_lagrangian_full_frozen_values(p, q, qd, frozen):
    assert rigid_body_lagrangian(q, qd, p) == pytest.approx(frozen, rel=1e-14)
    assert lagrangian_full(np.array(q), np.array(qd), p) == pytest.approx(frozen, rel=1e-14)


def _complex_row():
    q, qd, _ = LAGRANGIAN_FROZEN[0]
    return np.array(q) + 1e-30j * np.array(qd), qd


def test_lagrangian_full_frozen_complex_value(p):
    qc, qd = _complex_row()
    for value in (rigid_body_lagrangian(qc, qd, p, cmath.sin, cmath.cos),
                  lagrangian_full(qc, np.array(qd), p)):
        assert value.real == pytest.approx(COMPLEX_FROZEN.real, rel=1e-14)
        assert value.imag == pytest.approx(COMPLEX_FROZEN.imag, rel=1e-14)


def test_a_state_has_one_lagrangian_value_in_any_table(p, rng):
    # L and E of 2000 real states, alone and as rows of tables of 1, 2, 7, 46
    # (the oracle's) and 2000 rows, bit for bit; and of their complex-step
    # rows (q + i h q_dot, q_dot) in complex tables.  A matmul of the squared
    # rates would fail: BLAS rounds one row (a dot) otherwise than a table (a
    # gemv), in about a third of these rows
    q, qd = rng.uniform(-3.0, 3.0, (2, 2000, 6))
    functions = (lambda q, qd: lagrangian_full(q, qd, p), lambda q, qd: total_energy((q, qd), p))
    for f in functions:
        for a, b in ((q, qd), (q + 1j * CS_STEP * qd, qd.astype(complex))):
            table = f(a, b)
            for n in (1, 2, 7, 46):
                rows = np.concatenate([f(a[i:i + n], b[i:i + n]) for i in range(0, len(a), n)])
                assert rows.tobytes() == table.tobytes(), (a.dtype, n)
        alone = np.array([f(x, y) for x, y in zip(q, qd)])
        assert alone.tobytes() == f(q, qd).tobytes()


def test_frozen_values_are_the_rigid_body_assembly_in_mpmath(p):
    # re-derives every frozen number above, so none of them comes from wipdyn
    mpmath = pytest.importorskip("mpmath")

    def lag(q, qd):
        with mpmath.workdps(40):
            return rigid_body_lagrangian([mpmath.mpmathify(v) for v in q],
                                         [mpmath.mpf(v) for v in qd], p,
                                         mpmath.sin, mpmath.cos)

    e_theta, rest = (0, 0, 1, 0, 0, 0), (0,) * 6
    for al, frozen in I_THETA_FROZEN.items():
        q = (0, 0, 0, al, 0, 0)
        assert float(2 * (lag(q, e_theta) - lag(q, rest))) == frozen
    for q, qd, frozen in LAGRANGIAN_FROZEN:
        assert float(lag(q, qd)) == frozen
    assert complex(lag(*_complex_row())) == COMPLEX_FROZEN


def test_lagrangian_full_is_velocity_quadratic_form(p, rng):
    # L(q, qd) = qd^T M(q) qd / 2 + L(q, 0) with M the velocity Hessian
    f = lambda Q, QD: lagrangian_full(Q, QD, p)
    for _ in range(10):
        q = rng.uniform(-2.0, 2.0, 6)
        qd = rng.uniform(-2.0, 2.0, 6)
        M = lagrangian_derivatives(f, q, np.zeros(6))[0]
        expected = 0.5 * qd @ M @ qd + lagrangian_full(q, np.zeros(6), p)
        assert lagrangian_full(q, qd, p) == pytest.approx(expected, rel=1e-11, abs=1e-11)


def test_velocity_hessians_positive_definite(p, rng):
    f6 = lambda Q, QD: lagrangian_full(Q, QD, p)
    for _ in range(10):
        q = rng.uniform(-2.0, 2.0, 6)
        M6 = lagrangian_derivatives(f6, q, np.zeros(6))[0]
        assert np.allclose(M6, M6.T)
        assert np.min(np.linalg.eigvalsh(M6)) > 0.0


# ---------------------------------------------------------------------------
# energy


def test_total_energy_rest_upright(p):
    s = FullState.constrained(0, 0, 0, 0.0, 0, 0, 0, 0, 0, p)
    assert total_energy((s.q, s.q_dot), p) == pytest.approx(p.m_b * p.b * p.g, rel=1e-15)


def test_total_energy_even_in_velocities(p, random_constrained):
    for _ in range(10):
        s = random_constrained()
        flipped = FullState(s.x, s.y, s.theta, s.alpha, s.phi1, s.phi2,
                            -s.x_dot, -s.y_dot, -s.theta_dot,
                            -s.alpha_dot, -s.phi1_dot, -s.phi2_dot)
        assert total_energy((s.q, s.q_dot), p) == pytest.approx(
            float(total_energy((flipped.q, flipped.q_dot), p)), rel=1e-14)


def test_total_energy_matches_finite_difference_legendre(p, rng, velocity_gradient):
    # E = sum qd_i dL/dqd_i - L, the gradient by exact central differences
    for _ in range(10):
        q = rng.uniform(-2.0, 2.0, 6)
        qd = rng.uniform(-2.0, 2.0, 6)
        expected = qd @ velocity_gradient(q, qd) - lagrangian_full(q, qd, p)
        assert total_energy((q, qd), p) == pytest.approx(float(expected), rel=1e-10)


def test_reduced_energy_equals_full_energy_on_constrained_states(p, random_constrained):
    from wipdyn import full_to_reduced
    for _ in range(10):
        s = random_constrained()
        red = full_to_reduced(s, p)
        assert reduced_energy((red.alpha, red.alpha_dot, red.p1, red.p2), p) == pytest.approx(
            float(total_energy((s.q, s.q_dot), p)), rel=1e-12)


# ---------------------------------------------------------------------------
# symmetry of the Lagrangian


def test_lagrangian_full_se2xs1_invariance(p, rng):
    # SE(2) acts on (x, y, theta), S1 shifts both wheel angles
    for _ in range(20):
        q = rng.uniform(-2.0, 2.0, 6)
        qd = rng.uniform(-2.0, 2.0, 6)
        gx, gy, gth, gphi = rng.uniform(-3.0, 3.0, 4)
        c, s = math.cos(gth), math.sin(gth)
        q2 = q.copy()
        q2[0], q2[1], q2[2] = c * q[0] - s * q[1] + gx, s * q[0] + c * q[1] + gy, q[2] + gth
        q2[4:] += gphi
        qd2 = qd.copy()
        qd2[0], qd2[1] = c * qd[0] - s * qd[1], s * qd[0] + c * qd[1]
        assert lagrangian_full(q2, qd2, p) == pytest.approx(
            float(lagrangian_full(q, qd, p)), abs=1e-12)


# ---------------------------------------------------------------------------
# parameters and states


def test_params_rejects_non_positive_fields(p):
    for name in ("m_b", "m_W", "b", "r", "d", "I_Bxx", "I_Byy", "I_Bz",
                 "I_Wyy", "I_Wzz", "g"):
        data = p.to_dict()
        data[name] = 0.0
        with pytest.raises(ValueError, match=name):
            Params.from_dict(data)
        data[name] = -1.0
        with pytest.raises(ValueError, match=name):
            Params.from_dict(data)


def test_params_rejects_non_finite(p):
    data = p.to_dict()
    data["g"] = float("nan")
    with pytest.raises(ValueError, match="g"):
        Params.from_dict(data)


@pytest.mark.parametrize("value", [True, "0.2"])
def test_params_rejects_booleans_and_strings(p, value):
    with pytest.raises(ValueError, match="'b' must be a finite number"):
        Params.from_dict({**p.to_dict(), "b": value})


def test_params_dict_roundtrip_and_strictness(p):
    assert Params.from_dict(p.to_dict()) == p
    extra = p.to_dict()
    extra["bogus"] = 1.0
    with pytest.raises(ValueError, match="bogus"):
        Params.from_dict(extra)
    short = p.to_dict()
    del short["I_Wyy"]
    with pytest.raises(ValueError, match="I_Wyy"):
        Params.from_dict(short)


def test_params_json_roundtrip(p):
    # a config's params block: to_dict survives JSON text unchanged
    assert Params.from_dict(json.loads(json.dumps(p.to_dict()))) == p


def test_shape_mass_positive_on_grid(p):
    grid = np.linspace(0.0, math.pi, 181)
    assert np.min(shape_mass(grid, p)) > 0.0


def test_params_rejects_shape_mass_that_rounds_to_zero(p):
    # every field positive, but m(0) = (1 + 1e-20) - 1 / (1 + 4e-20) rounds to 0.0
    values = dict(p.to_dict(), m_b=1.0, b=1.0, r=1.0, m_W=1e-20, I_Wyy=1e-20, I_Byy=1e-20)
    with pytest.raises(ValueError, match="shape-space mass"):
        Params(**values)


def test_states_reject_non_finite():
    with pytest.raises(ValueError):
        ReducedState(0, 0, 0, 0, 0, 0, float("inf"), 0)
    with pytest.raises(ValueError):
        FullState(0, 0, 0, 0, 0, 0, 0, 0, 0, float("nan"), 0, 0)
    with pytest.raises(ValueError):
        Controls(float("nan"), 0.0)


def test_states_store_plain_floats():
    for cls, n in ((FullState, 12), (ReducedState, 8), (Controls, 2)):
        s = cls(1, np.float32(0.5), *[np.int64(2)] * (n - 2))
        values = [getattr(s, f) for f in cls.__dataclass_fields__]
        assert all(type(v) is float for v in values)
        assert values == [1.0, 0.5] + [2.0] * (n - 2)
    assert type(Params(**{**Params.default().to_dict(), "m_b": np.int64(5)}).m_b) is float


# each input record stores the value v in one field, or raises
_RECORDS = {
    "FullState": lambda v: FullState(v, *[0.0] * 11),
    "ReducedState": lambda v: ReducedState(*[0.0] * 7, v),
    "Controls": lambda v: Controls(0.0, v),
    "TorqueProfile": lambda v: TorqueProfile(((0.0, 0.1, 0.0), (1.0, v, 0.0))),
    "Params": lambda v: Params(**{**Params.default().to_dict(), "m_b": v}),
}


@pytest.mark.parametrize("value", [True, "0.3", None, 10 ** 400, float("nan")],
                         ids=["bool", "numeric-string", "none", "huge-int", "nan"])
@pytest.mark.parametrize("record", list(_RECORDS))
def test_records_take_only_finite_real_numbers(record, value):
    with pytest.raises(ValueError, match="must be a finite number"):
        _RECORDS[record](value)


def test_constrained_constructor_satisfies_rolling(p, random_constrained):
    for _ in range(5):
        s = random_constrained()
        assert np.max(rolling_residuals(s.q, s.q_dot, p)) == 0.0


def test_lift_is_the_constrained_velocity(p, rng):
    # one state's floats lift to FullState.constrained's q_dot bit for bit;
    # real columns lift to rates that roll exactly, complex ones stay complex
    for row in rng.uniform(-3.0, 3.0, (20, 9)).tolist():
        lifted = _lift(dict(zip(LAYOUTS["full"], row)), p)
        assert lifted.tobytes() == FullState.constrained(*row, p).q_dot.tobytes()
    draws = rng.uniform(-3.0, 3.0, (50, 9))
    v = dict(zip(LAYOUTS["full"], draws.T))
    q_dot = _lift(v, p)
    assert (q_dot.shape, q_dot.dtype) == ((50, 6), np.float64)
    assert np.max(rolling_residuals(draws[:, :6], q_dot, p)) == 0.0
    stepped = _lift({n: c + 1j * CS_STEP for n, c in v.items()}, p)
    assert (stepped.shape, stepped.dtype) == ((50, 6), np.complex128)
    assert np.allclose(stepped.real, q_dot, rtol=1e-15, atol=1e-15)
    # scalar rates broadcast against a column of headings: each row is its heading's call
    rates = dict(zip(("alpha_dot", "phi1_dot", "phi2_dot"), draws[0, 6:].tolist()))
    lifted = _lift({**rates, "theta": v["theta"]}, p)
    assert lifted.tobytes() == np.array([_lift({**rates, "theta": th}, p)
                                         for th in v["theta"].tolist()]).tobytes()


def test_rolling_rates_leave_both_contact_points_at_rest(p, rng):
    # the one rolling statement against the no-slip geometry, at real headings
    # and at the complex-step headings that curvature_fd evaluates: worst
    # component 1.1e-16 m/s over 2000 states, and 0.59 m/s with the wheels'
    # sides swapped.  A yaw rate of r/(2d) instead of r/d slips
    for th, f1d, f2d in rng.uniform(-3.0, 3.0, (50, 3)).tolist():
        for heading, trig in ((th, (np.sin, np.cos)),
                              (complex(th, CS_STEP), (cmath.sin, cmath.cos))):
            xd, yd, thd = rolling_rates(heading, f1d, f2d, p)
            rates = (xd, yd, thd, 0.3, f1d, f2d)
            assert np.max(np.abs(contact_velocities(heading, rates, p, *trig))) <= 1e-15
            halved = (xd, yd, 0.5 * thd, 0.3, f1d, f2d)
            slip = np.max(np.abs(contact_velocities(heading, halved, p, *trig)))
            assert slip >= 0.1 * p.d * abs(thd)
