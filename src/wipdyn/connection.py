"""Connections for the rolling constraints.

Two objects live here:

* the kinematic (Ehresmann) connection ``A(theta)`` whose kernel is the
  admissible-velocity distribution, together with its curvature, and
* the local form of the nonholonomic connection of the symmetry-reduced
  description: the shape one-form ``A(alpha)`` and the momentum-to-velocity
  map ``Gamma(alpha)``.

Index conventions: group coordinates s = (x, y, theta) are rows 0..2, shape
coordinates r = (alpha, phi1, phi2) are columns 0..2.  The Lie-algebra basis
of the reduced description is e1 (body surge), e2 (body sway), e3 (yaw),
e4 (mean wheel roll), stored at index positions 0..3.

The coefficients of ``A(alpha)`` are fixed by requiring consistency with the
momenta p1 = h xi4 + m_b b r cos(alpha) alpha_dot and p2 = f(alpha) xi3; the
commonly printed variant drops one factor of r in each component, e.g.
A4 = m_b b cos(alpha)/h instead of m_b b r cos(alpha)/h, and then inverts the
momenta only when r = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Params, f_of_alpha, h_const

__all__ = [
    "ehresmann_at",
    "curvature_at",
    "curvature_fd",
    "NonholoConnectionLocal",
    "nonholo_connection",
    "body_velocity_from_momenta",
    "momenta_from_body_velocity",
]


def ehresmann_at(theta: float, p: Params) -> np.ndarray:
    """Kinematic connection coefficients A(theta), shape (3, 3).

    The constraints read s_dot + A r_dot = 0; the alpha column is zero.
    """
    c, s = np.cos(theta), np.sin(theta)
    half_r = 0.5 * p.r
    return np.array([
        [0.0, -half_r * c, -half_r * c],
        [0.0, -half_r * s, -half_r * s],
        [0.0, p.r / p.d, -p.r / p.d],
    ])


def curvature_at(theta: float, p: Params) -> np.ndarray:
    """Curvature coefficients B[b, beta, gamma] of the kinematic connection.

    Returned dense with shape (3, 3, 3); the only nonzero slots are the
    (phi1, phi2)/(phi2, phi1) pairs:

        B^x_{phi1 phi2} = (r^2/d) sin(theta)
        B^y_{phi1 phi2} = -(r^2/d) cos(theta)
        B^theta_{phi1 phi2} = 0

    antisymmetric in (beta, gamma).
    """
    B = np.zeros((3, 3, 3))
    coeff = p.r ** 2 / p.d
    B[0, 1, 2] = coeff * np.sin(theta)
    B[1, 1, 2] = -coeff * np.cos(theta)
    B[:, 2, 1] = -B[:, 1, 2]
    return B


def curvature_fd(theta: float, p: Params, step: float = 1e-5,
                 x: float = 0.0, y: float = 0.0) -> np.ndarray:
    """Curvature by central differences of the full defining formula.

    Evaluates  B^b_{beta gamma} = dA^b_beta/dr^gamma - dA^b_gamma/dr^beta
    + A^a_beta dA^b_gamma/ds^a - A^a_gamma dA^b_beta/ds^a  with every
    derivative taken numerically, including the structurally vanishing
    r-derivatives and the x/y derivatives (x and y are dummy inputs that
    let callers confirm the result does not depend on them).
    """
    def A_conf(s_vec, r_vec):
        # A depends on the configuration only through theta = s_vec[2]
        return ehresmann_at(s_vec[2], p)

    s0 = np.array([x, y, theta])
    r0 = np.zeros(3)
    A0 = A_conf(s0, r0)

    dA_dr = np.zeros((3, 3, 3))  # [gamma][b, beta]
    for gamma in range(3):
        rp, rm = r0.copy(), r0.copy()
        rp[gamma] += step
        rm[gamma] -= step
        dA_dr[gamma] = (A_conf(s0, rp) - A_conf(s0, rm)) / (2.0 * step)

    dA_ds = np.zeros((3, 3, 3))  # [a][b, beta]
    for a in range(3):
        sp, sm = s0.copy(), s0.copy()
        sp[a] += step
        sm[a] -= step
        dA_ds[a] = (A_conf(sp, r0) - A_conf(sm, r0)) / (2.0 * step)

    B = np.zeros((3, 3, 3))
    for b in range(3):
        for beta in range(3):
            for gamma in range(3):
                val = dA_dr[gamma][b, beta] - dA_dr[beta][b, gamma]
                for a in range(3):
                    val += A0[a, beta] * dA_ds[a][b, gamma] - A0[a, gamma] * dA_ds[a][b, beta]
                B[b, beta, gamma] = val
    return B


@dataclass(frozen=True)
class NonholoConnectionLocal:
    """Local form of the nonholonomic connection at a tilt angle.

    A:     coefficients of the shape one-form on (e1, e2, e3, e4), per d(alpha)
    Gamma: (4, 2) map from momenta (p1, p2) to body velocity
    """

    A: np.ndarray
    Gamma: np.ndarray


def nonholo_connection(alpha: float, p: Params) -> NonholoConnectionLocal:
    """Evaluate the nonholonomic connection pieces at a tilt angle.

    The body velocity, shape velocity and momenta are related by
    ``xi + A(alpha) alpha_dot = Gamma(alpha) p``.
    """
    h = h_const(p)
    ka = p.m_b * p.b * p.r * np.cos(alpha) / h
    A = np.array([p.r * ka, 0.0, 0.0, ka])
    Gamma = np.array([
        [p.r / h, 0.0],
        [0.0, 0.0],
        [0.0, 1.0 / f_of_alpha(alpha, p)],
        [1.0 / h, 0.0],
    ])
    return NonholoConnectionLocal(A=A, Gamma=Gamma)


def body_velocity_from_momenta(alpha: float, alpha_dot: float,
                               p1: float, p2: float, p: Params) -> np.ndarray:
    """Body velocity xi = -A(alpha) alpha_dot + Gamma(alpha) p.

    Assembled so that the constraint surface is hit exactly: the surge
    component is computed as r times the roll component, never through a
    separately rounded product.
    """
    h = h_const(p)
    xi4 = (p1 - p.m_b * p.b * p.r * np.cos(alpha) * alpha_dot) / h
    xi3 = p2 / f_of_alpha(alpha, p)
    return np.array([p.r * xi4, 0.0, xi3, xi4])


def momenta_from_body_velocity(alpha: float, alpha_dot: float,
                               xi3: float, xi4: float, p: Params) -> tuple[float, float]:
    """Inverse of :func:`body_velocity_from_momenta` on the constraint surface."""
    p1 = h_const(p) * xi4 + p.m_b * p.b * p.r * np.cos(alpha) * alpha_dot
    p2 = f_of_alpha(alpha, p) * xi3
    return float(p1), float(p2)
