"""Connections for the rolling constraints.

Two objects live here:

* the kinematic (Ehresmann) connection ``A(theta)`` whose kernel is the
  admissible-velocity distribution, together with its curvature, and
* the local form of the nonholonomic connection of the symmetry-reduced
  description: the shape one-form ``A(alpha)`` and the momentum-to-velocity
  map ``Gamma(alpha)``.  The reduced model's ``ode_rhs`` is the one place the
  reconstruction xi = -A alpha_dot + Gamma p is computed; tests check it here.

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
from .oracle import CS_STEP

__all__ = [
    "ehresmann_at",
    "curvature_at",
    "curvature_fd",
    "NonholoConnectionLocal",
    "nonholo_connection",
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


def curvature_fd(theta: float, p: Params, x: float = 0.0, y: float = 0.0) -> np.ndarray:
    """Curvature from the full defining formula, with numeric derivatives.

    Evaluates  B^b_{beta gamma} = dA^b_beta/dr^gamma - dA^b_gamma/dr^beta
    + A^a_beta dA^b_gamma/ds^a - A^a_gamma dA^b_beta/ds^a  with A differentiated
    along all six coordinates q = (x, y, theta, alpha, phi1, phi2), the
    structurally vanishing directions included, by complex step
    Im A(q + i h e_k)/h, exact to rounding.  x and y are dummy inputs that let
    callers confirm the result does not depend on them.
    """
    q = np.array([x, y, theta, 0.0, 0.0, 0.0], dtype=complex)
    # A depends on the configuration only through theta = q[2]
    dA = np.array([ehresmann_at((q + 1j * CS_STEP * e)[2], p).imag
                   for e in np.eye(6)]) / CS_STEP  # [k][b, beta]
    # T[b, beta, gamma] = dA^b_beta/dr^gamma + A^a_beta dA^b_gamma/ds^a
    T = dA[3:].transpose(1, 2, 0) + np.einsum("ac,abg->bcg", ehresmann_at(theta, p), dA[:3])
    return T - T.transpose(0, 2, 1)


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
