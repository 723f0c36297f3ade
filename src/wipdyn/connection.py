"""Connections for the rolling constraints, each read off the one statement
the models run, looked up as a module attribute so one patch reaches both:

* the kinematic (Ehresmann) connection ``A(theta)``, whose kernel is the
  admissible-velocity distribution, from ``model.rolling_rates``
  (s_dot = -A(theta) r_dot), with its curvature: the closed form is the one
  formula typed here, and :func:`curvature_fd` checks it;
* the local form of the nonholonomic connection of the symmetry-reduced
  description: the shape one-form ``A(alpha)`` and the momentum-to-velocity
  map ``Gamma(alpha)``, from the reduced model's ``ode_rhs``, the one place
  the reconstruction xi = -A alpha_dot + Gamma p is computed.

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

import numpy as np

from . import dynamics_reduced, model
from .model import Params
from .oracle import CS_STEP

__all__ = [
    "ehresmann_at",
    "curvature_at",
    "curvature_fd",
    "nonholo_connection",
]


_NEG_WHEEL_RATES = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])  # -e_phi1, -e_phi2


def ehresmann_at(theta, p: Params) -> np.ndarray:
    """Kinematic connection coefficients A(theta), shape (..., 3, 3) for
    headings of shape (...): one (3, 3) matrix per heading.

    The constraints read s_dot + A r_dot = 0, linear in r_dot, so column j
    is the rolling rates of the wheel-rate vector -e_j; the alpha column is
    zero.  The dtype follows theta's, complex included.
    """
    rates = model.rolling_rates(np.asarray(theta)[..., None], *_NEG_WHEEL_RATES, p)
    return np.stack(np.broadcast_arrays(*rates), axis=-2)


def curvature_at(theta, p: Params) -> np.ndarray:
    """Curvature coefficients B[..., b, beta, gamma] of the kinematic connection.

    Returned dense with shape (..., 3, 3, 3) for headings of shape (...), in
    their dtype, complex included; the only nonzero slots are the
    (phi1, phi2)/(phi2, phi1) pairs:

        B^x_{phi1 phi2} = (r^2/d) sin(theta)
        B^y_{phi1 phi2} = -(r^2/d) cos(theta)
        B^theta_{phi1 phi2} = 0

    antisymmetric in (beta, gamma).
    """
    theta = np.asarray(theta)
    B = np.zeros(theta.shape + (3, 3, 3), np.result_type(theta, float))
    coeff = p.r * p.r / p.d
    B[..., 0, 1, 2] = coeff * np.sin(theta)
    B[..., 1, 1, 2] = -coeff * np.cos(theta)
    B[..., 2, 1] = -B[..., 1, 2]
    return B


def curvature_fd(theta, p: Params) -> np.ndarray:
    """Curvature from the full defining formula, with numeric derivatives;
    shape (..., 3, 3, 3) for headings of shape (...), as :func:`curvature_at`.

    Evaluates  B^b_{beta gamma} = dA^b_beta/dr^gamma - dA^b_gamma/dr^beta
    + A^a_beta dA^b_gamma/ds^a - A^a_gamma dA^b_beta/ds^a  with A differentiated
    along all six coordinates q = (x, y, theta, alpha, phi1, phi2), the
    structurally vanishing directions included, by complex step
    Im A(q + i h e_k)/h, exact to rounding, all six in one call of
    :func:`ehresmann_at`.  The headings must be real.
    """
    theta = np.asarray(theta)
    # A depends on the configuration only through theta = q[2]
    steps = theta[..., None] + 1j * CS_STEP * np.eye(6)[2]
    dA = ehresmann_at(steps, p).imag / CS_STEP  # [..., k, b, beta]
    # T[..., b, beta, gamma] = dA^b_beta/dr^gamma + A^a_beta dA^b_gamma/ds^a
    T = (np.moveaxis(dA[..., 3:, :, :], -3, -1)
         + np.einsum("...ac,...abg->...bcg", ehresmann_at(theta, p), dA[..., :3, :, :]))
    return T - np.swapaxes(T, -1, -2)


def nonholo_connection(alpha: float, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """Local form (A, Gamma) of the nonholonomic connection at a tilt angle.

    A (4,) holds the shape one-form's coefficients on (e1, e2, e3, e4) per
    d(alpha); Gamma (4, 2) maps the momenta (p1, p2) to body velocity.  They
    relate body velocity, shape velocity and momenta by
    ``xi + A(alpha) alpha_dot = Gamma(alpha) p``.  xi is linear in
    (alpha_dot, p1, p2), and at theta = 0 the reduced model's group rates
    are xi itself, so A and Gamma are its columns on the unit vectors.
    """
    rhs = dynamics_reduced.ode_rhs
    xi = np.array([rhs((0.0, 0.0, 0.0, 0.0, alpha, *e), 0.0, 0.0, p)[:4]
                   for e in np.eye(3).tolist()])  # rows: alpha_dot, p1, p2
    return -xi[0], xi[1:].T
