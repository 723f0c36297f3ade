"""Full constrained dynamics in the shape coordinates (alpha, phi1, phi2).

The group coordinates are eliminated through the rolling constraints, which
leaves the reduced Euler-Lagrange equations

    M(alpha) (alpha_dd, phi1_dd, phi2_dd)^T = F + (0, tau1, tau2)^T

with the mass matrix and force vector derived once from the constrained
Lagrangian.  M(alpha) = [[c, k, k], [k, a1, a3], [k, a3, a1]] decouples in
the wheel sum and difference: the difference row is the scalar equation
(a1 - a3)(phi2_dd - phi1_dd) = f2 - f1, and the (alpha, phi1_dd + phi2_dd)
block has determinant c (a1 + a3) - 2 k^2 = h m(alpha)/2, so the system is
solved in closed form.  The group rates are reconstructed kinematically,
s_dot = -A(theta) r_dot, so every trajectory of this module satisfies the
constraints identically.

The acceleration core is scalar ``math`` code on purpose: it sits in the
innermost integration loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .model import Controls, FullState, Params, f_of_alpha, h_const, rolling_rates

__all__ = [
    "FullRhs",
    "mass_matrix",
    "ode_rhs",
    "full_rhs",
    "reconstruct_group_rates",
    "momenta",
    "momenta_from_full",
    "accelerations_q6",
]


@dataclass(frozen=True)
class FullRhs:
    """Accelerations of the shape coordinates plus reconstructed group rates."""

    alpha_ddot: float
    phi1_ddot: float
    phi2_ddot: float
    x_dot: float
    y_dot: float
    theta_dot: float


def _coeffs(alpha: float, p: Params):
    """Mass-matrix entries of the constrained Lagrangian at a tilt angle."""
    sa, ca = sin(alpha), cos(alpha)
    m_t = p.m_b + 2.0 * p.m_W
    i_th = (2.0 * p.I_Wzz + p.I_Bz * ca * ca + 2.0 * p.m_W * p.d * p.d
            + (p.I_Bxx + p.m_b * p.b * p.b) * sa * sa)
    rr_dd = p.r * p.r / (p.d * p.d)
    a1 = 0.25 * m_t * p.r * p.r + i_th * rr_dd + p.I_Wyy
    a3 = 0.25 * m_t * p.r * p.r - i_th * rr_dd
    k = 0.5 * p.r * p.m_b * p.b * ca
    c = p.m_b * p.b * p.b + p.I_Byy
    return sa, ca, a1, a3, k, c, rr_dd


def mass_matrix(alpha: float, p: Params) -> np.ndarray:
    """Constrained mass matrix M(alpha) in coordinates (alpha, phi1, phi2)."""
    _, _, a1, a3, k, c, _ = _coeffs(alpha, p)
    return np.array([[c, k, k], [k, a1, a3], [k, a3, a1]])


def _accelerations(alpha, alpha_dot, phi1_dot, phi2_dot, tau1, tau2, p: Params):
    """Scalar core: solve M(alpha) a = F in closed form for (alpha_dd, phi1_dd, phi2_dd)."""
    sa, ca, a1, a3, k, c, rr_dd = _coeffs(alpha, p)
    ithp = (p.I_Bxx + p.m_b * p.b * p.b - p.I_Bz) * 2.0 * sa * ca
    mbb = p.m_b * p.b
    dphi = phi2_dot - phi1_dot
    curv = mbb * p.r * rr_dd * sa * dphi
    cor = rr_dd * ithp * alpha_dot * dphi
    quad = 0.5 * p.r * mbb * sa * alpha_dot * alpha_dot
    f_alpha = 0.5 * ithp * rr_dd * dphi * dphi + mbb * p.g * sa
    f_1 = tau1 + curv * phi2_dot + cor + quad
    f_2 = tau2 - curv * phi1_dot - cor + quad
    diff = (f_2 - f_1) / (a1 - a3)  # phi2_dd - phi1_dd
    f_s = f_1 + f_2
    det = c * (a1 + a3) - 2.0 * k * k  # = h m(alpha)/2, which Params keeps positive
    add = ((a1 + a3) * f_alpha - k * f_s) / det
    s_dd = (c * f_s - 2.0 * k * f_alpha) / det  # phi1_dd + phi2_dd
    return add, 0.5 * (s_dd - diff), 0.5 * (s_dd + diff)


def reconstruct_group_rates(state: FullState, p: Params) -> tuple[float, float, float]:
    """Group rates from the rolling constraints, s_dot = -A(theta) r_dot."""
    return tuple(float(v) for v in
                 rolling_rates(state.theta, state.phi1_dot, state.phi2_dot, p))


def ode_rhs(y, tau1: float, tau2: float, p: Params) -> np.ndarray:
    """Time derivative of the integrated state vector
    y = (x, y, theta, alpha, phi1, phi2, alpha_dot, phi1_dot, phi2_dot)."""
    ald, f1d, f2d = y[6], y[7], y[8]
    add, f1dd, f2dd = _accelerations(y[3], ald, f1d, f2d, tau1, tau2, p)
    return np.array([*rolling_rates(y[2], f1d, f2d, p), ald, f1d, f2d, add, f1dd, f2dd])


def full_rhs(state: FullState, controls: Controls, p: Params) -> FullRhs:
    """Accelerations of the full model plus reconstructed group rates."""
    add, f1dd, f2dd = _accelerations(state.alpha, state.alpha_dot,
                                     state.phi1_dot, state.phi2_dot,
                                     controls.tau1, controls.tau2, p)
    xd, yd, thd = reconstruct_group_rates(state, p)
    return FullRhs(add, f1dd, f2dd, xd, yd, thd)


def momenta(alpha, alpha_dot, phi1_dot, phi2_dot, p: Params):
    """Nonholonomic momenta (p1, p2) of a constrained state; broadcasts.

    p1 = h phi_dot + r m_b b cos(alpha) alpha_dot with phi_dot the mean wheel
    rate; p2 = f(alpha) theta_dot with theta_dot the rolling yaw rate, which
    does not depend on the heading.
    """
    theta_dot = rolling_rates(0.0, phi1_dot, phi2_dot, p)[2]
    p1 = (h_const(p) * (0.5 * (phi1_dot + phi2_dot))
          + p.r * p.m_b * p.b * np.cos(alpha) * alpha_dot)
    return p1, f_of_alpha(alpha, p) * theta_dot


def momenta_from_full(state: FullState, p: Params) -> tuple[float, float]:
    """Nonholonomic momenta (p1, p2) of a constrained full state."""
    p1, p2 = momenta(state.alpha, state.alpha_dot, state.phi1_dot, state.phi2_dot, p)
    return float(p1), float(p2)


def accelerations_q6(state: FullState, controls: Controls, p: Params) -> np.ndarray:
    """All six coordinate accelerations, for comparison with the oracle.

    (x_dd, y_dd, theta_dd) follow by differentiating the reconstruction.
    """
    add, f1dd, f2dd = _accelerations(state.alpha, state.alpha_dot,
                                     state.phi1_dot, state.phi2_dot,
                                     controls.tau1, controls.tau2, p)
    th = state.theta
    s_rate = state.phi1_dot + state.phi2_dot
    s_acc = f1dd + f2dd
    th_d = p.r / p.d * (state.phi2_dot - state.phi1_dot)
    xdd = 0.5 * p.r * (-sin(th) * th_d * s_rate + cos(th) * s_acc)
    ydd = 0.5 * p.r * (cos(th) * th_d * s_rate + sin(th) * s_acc)
    thdd = p.r / p.d * (f2dd - f1dd)
    return np.array([xdd, ydd, thdd, add, f1dd, f2dd])
