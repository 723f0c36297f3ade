import json
import math

import numpy as np
import pytest

from wipdyn import (Controls, FullState, Params, ReducedState, f_of_alpha,
                    f_prime, h_const, i_theta, i_theta_prime, lagrangian_case2,
                    lagrangian_full, reduced_constrained_lagrangian,
                    reduced_energy, shape_mass, total_energy)
from wipdyn.model import velocity_gradient_full
from wipdyn.oracle import velocity_hessian


def _central(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# inertia scalars


def test_i_theta_at_zero(p):
    assert i_theta(0.0, p) == pytest.approx(2 * p.I_Wzz + p.I_Bz + 2 * p.m_W * p.d ** 2,
                                            rel=1e-15)


def test_i_theta_at_half_pi(p):
    expected = 2 * p.I_Wzz + 2 * p.m_W * p.d ** 2 + p.I_Bxx + p.m_b * p.b ** 2
    assert i_theta(math.pi / 2, p) == pytest.approx(expected, rel=1e-14)


def test_i_theta_frozen_value(p):
    # frozen from an independent direct evaluation of the formula
    assert i_theta(0.3, p) == pytest.approx(0.21426403216525583, abs=1e-15)


def test_i_theta_even_and_pi_periodic(p, rng):
    for al in rng.uniform(-3.0, 3.0, 20):
        assert i_theta(al, p) == pytest.approx(i_theta(-al, p), rel=1e-14)
        assert i_theta(al, p) == pytest.approx(i_theta(al + math.pi, p), rel=1e-13)


def test_i_theta_derivative_vanishes_at_critical_points(p):
    for al in (0.0, math.pi / 2):
        assert abs(_central(lambda a: i_theta(a, p), al)) < 1e-10
        assert abs(_central(lambda a: f_of_alpha(a, p), al)) < 1e-10


def test_i_theta_prime_matches_finite_difference(p, rng):
    for al in rng.uniform(-3.0, 3.0, 10):
        fd = _central(lambda a: i_theta(a, p), al)
        assert i_theta_prime(al, p) == pytest.approx(fd, abs=5e-9)
        assert f_prime(al, p) == pytest.approx(fd, abs=5e-9)


def test_f_of_alpha_composition_and_symmetry(p, rng):
    assert f_of_alpha(0.0, p) == pytest.approx(
        i_theta(0.0, p) + p.d ** 2 * p.I_Wyy / (2 * p.r ** 2), rel=1e-15)
    for al in rng.uniform(-3.0, 3.0, 10):
        assert f_of_alpha(al, p) == pytest.approx(f_of_alpha(-al, p), rel=1e-14)
        assert f_of_alpha(al, p) > 0.0


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
# Lagrangians


def test_lagrangian_full_rest_values(p):
    q = np.zeros(6)
    qd = np.zeros(6)
    assert lagrangian_full(q, qd, p) == pytest.approx(-p.m_b * p.b * p.g, rel=1e-15)
    q[3] = math.pi / 2
    assert abs(lagrangian_full(q, qd, p)) < 1e-15


def test_lagrangian_full_is_velocity_quadratic_form(p, rng):
    # L(q, qd) = qd^T M(q) qd / 2 + L(q, 0) with M the velocity Hessian
    f = lambda Q, QD: lagrangian_full(Q, QD, p)
    for _ in range(10):
        q = rng.uniform(-2.0, 2.0, 6)
        qd = rng.uniform(-2.0, 2.0, 6)
        M = velocity_hessian(f, q, np.zeros(6))
        expected = 0.5 * qd @ M @ qd + lagrangian_full(q, np.zeros(6), p)
        assert lagrangian_full(q, qd, p) == pytest.approx(expected, rel=1e-11, abs=1e-11)


def test_velocity_hessians_positive_definite(p, rng):
    f6 = lambda Q, QD: lagrangian_full(Q, QD, p)
    f5 = lambda Q, QD: lagrangian_case2(Q, QD, p)
    for _ in range(10):
        q = rng.uniform(-2.0, 2.0, 6)
        M6 = velocity_hessian(f6, q, np.zeros(6))
        M5 = velocity_hessian(f5, q[:5], np.zeros(5))
        assert np.allclose(M6, M6.T)
        assert np.min(np.linalg.eigvalsh(M6)) > 0.0
        assert np.min(np.linalg.eigvalsh(M5)) > 0.0


def test_lagrangian_case2_rest_and_wheel_term(p):
    q = np.zeros(5)
    assert lagrangian_case2(q, np.zeros(5), p) == pytest.approx(-p.m_b * p.b * p.g)
    # pure mean-wheel spin at horizontal tilt isolates the I_Wyy phi_dot^2 term
    q[3] = math.pi / 2
    qd = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    assert lagrangian_case2(q, qd, p) == pytest.approx(p.I_Wyy, rel=1e-14)


def test_lagrangian_case2_equals_full_under_wheel_elimination(p, rng):
    # substitute phi1/2_dot = phi_dot -/+ (d/2r) theta_dot into the full L
    for _ in range(20):
        q5 = rng.uniform(-2.0, 2.0, 5)
        qd5 = rng.uniform(-2.0, 2.0, 5)
        xd, yd, thd, ald, phid = qd5
        q6 = np.concatenate([q5[:4], [0.3, -0.8]])
        half = 0.5 * p.d / p.r * thd
        qd6 = np.array([xd, yd, thd, ald, phid - half, phid + half])
        assert lagrangian_case2(q5, qd5, p) == pytest.approx(
            float(lagrangian_full(q6, qd6, p)), rel=1e-13, abs=1e-13)


def test_case2_restricted_to_constraints_is_reduced_constrained(p, rng):
    for _ in range(20):
        th = rng.uniform(-math.pi, math.pi)
        al, ald, xi3, xi4 = rng.uniform(-1.5, 1.5, 4)
        q = np.array([0.4, -0.2, th, al, 1.0])
        qd = np.array([p.r * xi4 * math.cos(th), p.r * xi4 * math.sin(th), xi3, ald, xi4])
        assert lagrangian_case2(q, qd, p) == pytest.approx(
            float(reduced_constrained_lagrangian(al, ald, xi3, xi4, p)),
            rel=1e-13, abs=1e-13)


def test_reduced_constrained_lagrangian_rest(p):
    for al in (0.0, 0.7, math.pi):
        assert reduced_constrained_lagrangian(al, 0.0, 0.0, 0.0, p) == pytest.approx(
            -p.m_b * p.g * p.b * math.cos(al), rel=1e-14)


def test_reduced_constrained_lagrangian_momentum_partials(p, rng):
    # dl_c/dxi4 = h xi4 + r m_b b cos(alpha) alpha_dot ; dl_c/dxi3 = f(alpha) xi3
    h = 1e-6
    for _ in range(10):
        al, ald, xi3, xi4 = rng.uniform(-1.5, 1.5, 4)
        lc = lambda a3, a4: float(reduced_constrained_lagrangian(al, ald, a3, a4, p))
        d4 = (lc(xi3, xi4 + h) - lc(xi3, xi4 - h)) / (2 * h)
        d3 = (lc(xi3 + h, xi4) - lc(xi3 - h, xi4)) / (2 * h)
        assert d4 == pytest.approx(
            h_const(p) * xi4 + p.r * p.m_b * p.b * math.cos(al) * ald, abs=1e-9)
        assert d3 == pytest.approx(float(f_of_alpha(al, p)) * xi3, abs=1e-9)


# ---------------------------------------------------------------------------
# energy


def test_total_energy_rest_upright(p):
    s = FullState.constrained(0, 0, 0, 0.0, 0, 0, 0, 0, 0, p)
    assert total_energy(s, p) == pytest.approx(p.m_b * p.b * p.g, rel=1e-15)


def test_total_energy_even_in_velocities(p, random_constrained):
    for _ in range(10):
        s = random_constrained()
        flipped = FullState(s.x, s.y, s.theta, s.alpha, s.phi1, s.phi2,
                            -s.x_dot, -s.y_dot, -s.theta_dot,
                            -s.alpha_dot, -s.phi1_dot, -s.phi2_dot)
        assert total_energy(s, p) == pytest.approx(float(total_energy(flipped, p)),
                                                   rel=1e-14)


def test_total_energy_matches_finite_difference_legendre(p, rng):
    # E = sum qd_i dL/dqd_i - L with the gradient by central differences
    for _ in range(10):
        q = rng.uniform(-2.0, 2.0, 6)
        qd = rng.uniform(-2.0, 2.0, 6)
        h = 1e-6
        grad = np.empty(6)
        for i in range(6):
            qp, qm = qd.copy(), qd.copy()
            qp[i] += h
            qm[i] -= h
            grad[i] = (lagrangian_full(q, qp, p) - lagrangian_full(q, qm, p)) / (2 * h)
        expected = qd @ grad - lagrangian_full(q, qd, p)
        assert total_energy((q, qd), p) == pytest.approx(float(expected), rel=1e-8)


def test_velocity_gradient_matches_finite_differences(p, rng):
    for _ in range(5):
        q = rng.uniform(-2.0, 2.0, 6)
        qd = rng.uniform(-2.0, 2.0, 6)
        grad = velocity_gradient_full(q, qd, p)
        h = 1.0  # L is quadratic in qd: central differences are exact at any h
        for i in range(6):
            qp, qm = qd.copy(), qd.copy()
            qp[i] += h
            qm[i] -= h
            fd = (lagrangian_full(q, qp, p) - lagrangian_full(q, qm, p)) / (2 * h)
            assert grad[i] == pytest.approx(float(fd), rel=1e-8, abs=1e-9)


def test_reduced_energy_equals_full_energy_on_constrained_states(p, random_constrained):
    from wipdyn import full_to_reduced
    for _ in range(10):
        s = random_constrained()
        red = full_to_reduced(s, p)
        assert reduced_energy(red, p) == pytest.approx(float(total_energy(s, p)),
                                                       rel=1e-12)


# ---------------------------------------------------------------------------
# symmetry of the Lagrangians


def test_lagrangian_full_se2_invariance(p, rng):
    for _ in range(20):
        q = rng.uniform(-2.0, 2.0, 6)
        qd = rng.uniform(-2.0, 2.0, 6)
        gx, gy, gth = rng.uniform(-3.0, 3.0, 3)
        c, s = math.cos(gth), math.sin(gth)
        q2 = q.copy()
        q2[0], q2[1], q2[2] = c * q[0] - s * q[1] + gx, s * q[0] + c * q[1] + gy, q[2] + gth
        qd2 = qd.copy()
        qd2[0], qd2[1] = c * qd[0] - s * qd[1], s * qd[0] + c * qd[1]
        assert lagrangian_full(q2, qd2, p) == pytest.approx(
            float(lagrangian_full(q, qd, p)), abs=1e-12)


def test_lagrangian_case2_se2xs1_invariance(p, rng):
    for _ in range(20):
        q = rng.uniform(-2.0, 2.0, 5)
        qd = rng.uniform(-2.0, 2.0, 5)
        gx, gy, gth, gphi = rng.uniform(-3.0, 3.0, 4)
        c, s = math.cos(gth), math.sin(gth)
        q2 = q.copy()
        q2[0], q2[1], q2[2], q2[4] = (c * q[0] - s * q[1] + gx,
                                      s * q[0] + c * q[1] + gy, q[2] + gth, q[4] + gphi)
        qd2 = qd.copy()
        qd2[0], qd2[1] = c * qd[0] - s * qd[1], s * qd[0] + c * qd[1]
        assert lagrangian_case2(q2, qd2, p) == pytest.approx(
            float(lagrangian_case2(q, qd, p)), abs=1e-12)


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
    assert Params.from_json(p.to_json()) == p
    assert set(json.loads(p.to_json())) == set(p.to_dict())


def test_shape_mass_positive_on_grid(p):
    grid = np.linspace(0.0, math.pi, 181)
    assert np.min(shape_mass(grid, p)) > 0.0


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


def test_constrained_constructor_satisfies_rolling(p, random_constrained):
    from wipdyn import constraint_residuals
    for _ in range(5):
        s = random_constrained()
        assert np.max(constraint_residuals(s, p)) == 0.0
