import math

import numpy as np
import pytest

from wipdyn import (ReducedState, curvature_at, curvature_fd, ehresmann_at,
                    f_of_alpha, full_to_reduced, h_const, i_theta, model,
                    nonholo_connection, reduced_to_full)
from wipdyn.dynamics_full import momenta
from wipdyn.dynamics_reduced import ode_rhs


def group_rates(alpha, alpha_dot, p1, p2, p, theta=0.0):
    """(x_dot, y_dot, theta_dot, phi_dot) that the reduced rhs reconstructs."""
    return ode_rhs((0.0, 0.0, theta, 0.0, alpha, alpha_dot, p1, p2), 0.0, 0.0, p)[:4]


def test_ehresmann_at_zero_heading(p):
    A = ehresmann_at(0.0, p)
    hr = 0.5 * p.r
    assert np.allclose(A[0], [0.0, -hr, -hr])
    assert np.allclose(A[1], [0.0, 0.0, 0.0])
    assert np.allclose(A[2], [0.0, p.r / p.d, -p.r / p.d])


def test_ehresmann_at_half_pi(p):
    A = ehresmann_at(math.pi / 2, p)
    assert np.max(np.abs(A[0])) < 1e-16
    assert np.allclose(A[1], [0.0, -0.5 * p.r, -0.5 * p.r])


def test_ehresmann_alpha_column_zero_and_kernel(p, rng):
    for th in rng.uniform(-math.pi, math.pi, 10):
        A = ehresmann_at(th, p)
        assert np.all(A[:, 0] == 0.0)
        # tilt direction (0,0,0,1,0,0) lies in the kernel of [I | A]
        assert np.max(np.abs(A @ np.array([1.0, 0.0, 0.0]))) == 0.0
        # every horizontal lift (-A r_dot, r_dot) is annihilated
        r_dot = rng.uniform(-1.0, 1.0, 3)
        assert np.max(np.abs(np.eye(3) @ (-A @ r_dot) + A @ r_dot)) == 0.0


def test_curvature_structure(p, rng):
    for th in rng.uniform(-math.pi, math.pi, 10):
        B = curvature_at(th, p)
        # all tilt slots vanish identically
        assert np.max(np.abs(B[:, 0, :])) == 0.0
        assert np.max(np.abs(B[:, :, 0])) == 0.0
        # diagonal slots vanish, off-diagonal are antisymmetric
        assert np.max(np.abs(B[:, 1, 1])) == 0.0
        assert np.max(np.abs(B[:, 2, 2])) == 0.0
        assert np.allclose(B[:, 1, 2], -B[:, 2, 1])


def test_curvature_at_zero_heading_against_symbolic(p):
    # independent symbolic derivation of the only nonzero slot
    sympy = pytest.importorskip("sympy")
    th = sympy.Symbol("theta")
    r, d = sympy.Symbol("r"), sympy.Symbol("d")
    A = sympy.Matrix([[0, -r / 2 * sympy.cos(th), -r / 2 * sympy.cos(th)],
                      [0, -r / 2 * sympy.sin(th), -r / 2 * sympy.sin(th)],
                      [0, r / d, -r / d]])
    dA = A.diff(th)
    B12 = [A[2, 1] * dA[b, 2] - A[2, 2] * dA[b, 1] for b in range(3)]
    vals = [float(expr.subs({r: p.r, d: p.d, th: 0.0})) for expr in B12]
    B = curvature_at(0.0, p)
    assert B[0, 1, 2] == pytest.approx(vals[0], abs=1e-15)  # = 0
    assert B[1, 1, 2] == pytest.approx(vals[1], rel=1e-12)  # = -r^2/d
    assert B[2, 1, 2] == pytest.approx(vals[2], abs=1e-15)  # = 0
    assert B[1, 1, 2] == pytest.approx(-p.r ** 2 / p.d, rel=1e-15)


def test_curvature_matches_finite_differences(p, rng):
    for th in rng.uniform(-math.pi, math.pi, 50):
        B = curvature_at(th, p)
        Bfd = curvature_fd(th, p)
        # complex step is exact to rounding: 5.4e-16 worst over random Params
        assert np.max(np.abs(B - Bfd)) <= 1e-13 * np.max(np.abs(B))


def test_broadcast_connection_rows_are_the_scalar_calls(p, rng):
    # one call over an axis of headings gives each heading's own result, bit
    # for bit: real headings, and complex ones (the complex step's) where the
    # formula takes them; curvature_fd's own complex step needs real headings
    real = rng.uniform(-math.pi, math.pi, 12)
    complex_ = real + 1j * rng.uniform(-1e-3, 1e-3, 12)
    for f, headings in ((ehresmann_at, real), (ehresmann_at, complex_),
                        (curvature_at, real), (curvature_at, complex_), (curvature_fd, real)):
        rows = f(headings, p)
        assert rows.shape == (12,) + f(headings[0], p).shape
        assert rows.dtype == headings.dtype
        for row, th in zip(rows, headings.tolist()):
            assert np.array_equal(row, f(th, p))
    grid = rng.uniform(-math.pi, math.pi, (3, 4))
    assert np.array_equal(curvature_fd(grid, p).reshape(12, 3, 3, 3),
                          curvature_fd(grid.ravel(), p))


def test_one_rolling_statement_feeds_the_kinematic_connection(p, monkeypatch):
    # r/d -> r/(2d) in model.rolling_rates halves A's yaw row, and with it
    # every curvature slot, which pairs that row with d/dtheta of the others
    th = 0.7
    A0, B0 = ehresmann_at(th, p), curvature_fd(th, p)
    rates = model.rolling_rates

    def patched(theta, phi1_dot, phi2_dot, params):
        x_dot, y_dot, theta_dot = rates(theta, phi1_dot, phi2_dot, params)
        return x_dot, y_dot, 0.5 * theta_dot

    monkeypatch.setattr(model, "rolling_rates", patched)
    A, B = ehresmann_at(th, p), curvature_fd(th, p)
    assert np.array_equal(A, A0 * [[1.0], [1.0], [0.5]])
    assert np.allclose(B, 0.5 * B0, rtol=1e-15, atol=0.0)
    assert np.max(np.abs(B - B0)) >= 0.25 * p.r ** 2 / p.d


def test_one_yaw_inertia_statement_feeds_the_nonholonomic_connection(p, scale_inertias):
    # doubling I_theta moves Gamma's yaw entry 1/f(alpha) and nothing else
    al = 0.4
    A0, Gamma0 = nonholo_connection(al, p)
    f_doubled = float(f_of_alpha(al, p)) + float(i_theta(al, p))
    scale_inertias(i_0=2.0, i_c=2.0, i_s=2.0)
    A, Gamma = nonholo_connection(al, p)
    assert Gamma[2, 1] == pytest.approx(1.0 / f_doubled, rel=1e-14)
    assert Gamma[2, 1] < 0.9 * Gamma0[2, 1]
    moved = Gamma != Gamma0
    assert moved.sum() == 1 and np.array_equal(A, A0)


def test_nonholo_connection_structure(p, rng):
    A, _ = nonholo_connection(math.pi / 2, p)
    assert np.max(np.abs(A)) < 1e-16  # cos(pi/2) kills the one-form
    for al in rng.uniform(-2.0, 2.0, 10):
        A, Gamma = nonholo_connection(al, p)
        # sway and yaw components of the one-form vanish; surge = r * roll
        assert A[1] == 0.0 and A[2] == 0.0
        assert A[0] == pytest.approx(p.r * A[3], rel=1e-15)
        # Gamma carries exactly r/h, 1/f(alpha), 1/h and a zero sway row
        h = h_const(p)
        assert Gamma[0, 0] == pytest.approx(p.r / h, rel=1e-15)
        assert Gamma[2, 1] == pytest.approx(1.0 / float(f_of_alpha(al, p)), rel=1e-15)
        assert Gamma[3, 0] == pytest.approx(1.0 / h, rel=1e-15)
        assert np.all(Gamma[1] == 0.0)
        assert Gamma[0, 1] == Gamma[2, 0] == Gamma[3, 1] == 0.0


def test_gamma_maps_rolling_momentum_to_unit_wheel_rate(p):
    _, Gamma = nonholo_connection(0.37, p)
    xi = Gamma @ np.array([h_const(p), 0.0])
    assert np.allclose(xi, [p.r, 0.0, 0.0, 1.0], rtol=1e-14)


def test_reduced_group_rates_are_the_connection(p, rng):
    # A(alpha) against its closed form, and xi = -A alpha_dot + Gamma p
    # against the rolling rates, at theta = 0, of the wheel rates whose full
    # model momenta are p: the momentum map is linear in the wheel rates, so
    # they solve a 2x2 system built from dynamics_full.momenta
    h = h_const(p)
    for _ in range(50):
        al, ald, p1, p2 = rng.uniform(-2.0, 2.0, 4)
        A, Gamma = nonholo_connection(al, p)
        a4 = p.m_b * p.b * p.r * math.cos(al) / h
        assert np.allclose(A, [p.r * a4, 0.0, 0.0, a4], rtol=1e-14, atol=0.0)
        base = np.array(momenta(al, ald, 0.0, 0.0, p))
        J = np.array([momenta(al, ald, *e, p) for e in np.eye(2)]).T - base[:, None]
        f1d, f2d = np.linalg.solve(J, np.array([p1, p2]) - base)
        kinematic = [*model.rolling_rates(0.0, f1d, f2d, p), 0.5 * (f1d + f2d)]
        xi = -A * ald + Gamma @ np.array([p1, p2])
        rates = np.array(group_rates(al, ald, p1, p2, p))
        assert rates[0] - p.r * rates[3] == 0.0  # surge is exactly r times roll
        for got in (xi, rates):
            assert np.max(np.abs(got - kinematic)) <= 1e-13 * max(1.0, np.max(np.abs(got)))


def test_body_velocity_zero_inputs(p):
    assert max(map(abs, group_rates(0.8, 0.0, 0.0, 0.0, p, theta=0.6))) == 0.0


def test_body_velocity_stays_on_constraint_surface(p, rng):
    # at any heading: no sway, and the planar velocity is r times the roll rate
    for _ in range(20):
        th, al, ald, p1, p2 = rng.uniform(-2.0, 2.0, 5)
        xd, yd, _, phid = group_rates(al, ald, p1, p2, p, theta=th)
        sway = -math.sin(th) * xd + math.cos(th) * yd
        assert sway == pytest.approx(0.0, abs=1e-15 * max(1.0, abs(xd) + abs(yd)))
        assert math.hypot(xd, yd) == pytest.approx(p.r * abs(phid), rel=1e-15)


def test_body_velocity_pure_tilt_rate(p):
    # alpha = 0, alpha_dot = 1, zero momenta: the momentum-consistent
    # connection gives xi = (-r^2 m_b b / h, 0, 0, -r m_b b / h)
    xd, yd, thd, phid = group_rates(0.0, 1.0, 0.0, 0.0, p)
    h = h_const(p)
    assert phid == pytest.approx(-p.r * p.m_b * p.b / h, rel=1e-14)
    assert xd == pytest.approx(-p.r ** 2 * p.m_b * p.b / h, rel=1e-14)
    assert yd == thd == 0.0


def test_body_velocity_inverts_momenta(p, rng):
    # reduced -> full reads the body velocity off the reduced rhs; the full
    # model's momentum map must take it back to the same momenta
    for _ in range(30):
        al, ald, p1, p2 = rng.uniform(-2.0, 2.0, 4)
        back = full_to_reduced(reduced_to_full(ReducedState(0, 0, 0, 0, al, ald, p1, p2), p), p)
        assert back.p1 == pytest.approx(p1, abs=1e-12)
        assert back.p2 == pytest.approx(p2, abs=1e-12)
