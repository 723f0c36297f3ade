"""Full constrained dynamics in the shape coordinates (alpha, phi1, phi2).

The group coordinates are eliminated through the rolling constraints, which
leaves the reduced Euler-Lagrange equations

    M(alpha) (alpha_dd, phi1_dd, phi2_dd)^T = F + (0, tau1, tau2)^T

with the mass matrix and force vector derived once from the constrained
Lagrangian.  M(alpha) = [[m_0, k, k], [k, a1, a3], [k, a3, a1]] decouples in
the wheel sum and difference: the difference row is the scalar equation
(a1 - a3)(phi2_dd - phi1_dd) = f2 - f1 with a1 - a3 = 2 I_theta r^2/d^2 +
I_Wyy, and the (alpha, phi1_dd + phi2_dd) block has determinant
m_0 (a1 + a3) - 2 k^2 = h m(alpha)/2 with a1 + a3 = h/2, so the system is
solved in closed form.  The body states the sum and the difference
directly: formed from a1 and a3, whose +-I_theta r^2/d^2 terms cancel, they
lose a digit for every decade by which I_theta r^2/d^2 exceeds h, and for
some valid parameter sets all of them.  The group rates are reconstructed
kinematically by the rolling relation of ``model.rolling_rates``,
s_dot = -A(theta) r_dot, so every trajectory of this module satisfies the
constraints identically.
:func:`momenta` is the one map from a constrained state to the nonholonomic
momenta (p1, p2); the reduced model's ``ode_rhs`` holds its inverse.

The right-hand side is scalar ``math`` code stated once, as the text
``_BODY``, the model's one patch point.  ``_kernel(p)`` compiles it behind its
ode header, the one statement of the forces it reads, on p's parameter-only
constants (numpy's per-call overhead and re-reading ``Params`` cost more than
the arithmetic); ``sim`` inlines the same text into the fused RK4 step.
"""

from __future__ import annotations

from functools import lru_cache
from math import cos, sin
from operator import attrgetter
from types import FunctionType

import numpy as np

from . import model
from .model import LAYOUTS, Controls, FullState, Params, f_of_alpha, rolling_rates
from .oracle import CS_STEP

__all__ = [
    "ode_rhs",
    "momenta",
    "accelerations_q6",
]

# y[j] reads state component j; other free names are the forces of _kernel's
# header or _kernel(p)'s constants.  No local may reuse a name of sim's fused
# step (f, y, t, dt, y<i>, k<s>_<i>, half, w).  I_theta inline: model.i_theta cost 8 % a step.
# Constants fold only by powers of two and by naming a product once, so every
# rounded value is that of M(alpha) a = F solved as stated (halves in the wheel rows).
_BODY = """
    th, al, ald, f1d, f2d = y[2], y[3], y[6], y[7], y[8]
    sa, ca = sin(al), cos(al)
    i_th = i_0 + i_c * ca * ca + i_s * sa * sa
    k = k_0 * ca
    # solve M(alpha) a = F in closed form for (alpha_dd, phi1_dd, phi2_dd)
    rithp = rr_dd * (ithp_0 * sa * ca)  # (r/d)^2 I_theta'(alpha)
    dphi = f2d - f1d
    curv = curv_0 * sa * dphi
    cor = rithp * ald * dphi
    quad = k_0 * sa * ald * ald
    f_alpha = 0.5 * rithp * dphi * dphi + mgb * sa
    f_1 = tau1 + curv * f2d + cor + quad
    f_2 = tau2 - curv * f1d - cor + quad
    f_s = f_1 + f_2
    det = m_0s_0 - (k + k) * k  # = h m(alpha)/2; Params checks m at its minimum, alpha = 0
    add = (s_0 * f_alpha - k * f_s) / det
    # (phi1_dd + phi2_dd)/2 and (phi2_dd - phi1_dd)/2, over 2 (a1 - a3) = 4 i_th rr_dd + 2 I_Wyy
    mean_dd = (m_0h * f_s - k * f_alpha) / det
    half_dd = (f_2 - f_1) / (i_th * rr_4 + I_Wyy2)
    v = v_0 * (f1d + f2d)  # model.rolling_rates, inline
    return (v * cos(th), v * sin(th), r_d * dphi, ald, f1d, f2d,
            add, mean_dd - half_dd, mean_dd + half_dd)
"""


def _kernel(p: Params):
    """ode(y, tau1, tau2), :func:`ode_rhs`: ``_BODY`` as it stands, on p's inertia record
    (``model._inertias``: one patch reaches every formulation) and its derived constants."""
    return _bind(p, _BODY)


@lru_cache(maxsize=32)
def _bind(p: Params, body: str):
    """:func:`_kernel`, cached on the text it compiles as well as on p."""
    rec = model._inertias(p)
    rr_dd, s_0 = p.r * p.r / (p.d * p.d), 0.5 * rec["h"]
    return FunctionType(model._code("def ode(y, tau1, tau2):" + body), dict(
        rec, sin=sin, cos=cos, ithp_0=2.0 * (rec["i_s"] - rec["i_c"]), rr_dd=rr_dd,
        rr_4=4.0 * rr_dd, I_Wyy2=2.0 * p.I_Wyy, s_0=s_0, m_0s_0=rec["m_0"] * s_0,
        m_0h=0.5 * rec["m_0"], k_0=0.5 * rec["kappa_0"], curv_0=rec["kappa_0"] * rr_dd,
        v_0=0.5 * p.r, r_d=p.r / p.d))


def ode_rhs(y, tau1: float, tau2: float, p: Params) -> tuple:
    """Time derivative of the integrated state vector y, in the layout
    ``model.LAYOUTS["full"]``, as a tuple of nine floats for float input."""
    return _kernel(p)(y, tau1, tau2)


_integrated = attrgetter(*LAYOUTS["full"])  # a FullState's values in the full layout


def full_rhs(state: FullState, controls: Controls, p: Params) -> tuple:
    """:func:`ode_rhs` at a state record; kept only for the benchmark's rhs replay."""
    return ode_rhs(_integrated(state), controls.tau1, controls.tau2, p)


def momenta(alpha, alpha_dot, phi1_dot, phi2_dot, p: Params):
    """Nonholonomic momenta (p1, p2) of a constrained state; broadcasts.

    p1 = h phi_dot + r m_b b cos(alpha) alpha_dot with phi_dot the mean wheel
    rate; p2 = f(alpha) theta_dot with theta_dot the rolling yaw rate, which
    does not depend on the heading.
    """
    theta_dot = rolling_rates(0.0, phi1_dot, phi2_dot, p)[2]
    rec = model._inertias(p)
    p1 = rec["h"] * (0.5 * (phi1_dot + phi2_dot)) + rec["kappa_0"] * np.cos(alpha) * alpha_dot
    return p1, f_of_alpha(alpha, p) * theta_dot


def accelerations_q6(state: FullState, controls: Controls, p: Params) -> np.ndarray:
    """All six coordinate accelerations, for comparison with the oracle.

    (x_dd, y_dd, theta_dd) differentiate ``model.rolling_rates`` along
    (theta_dot, phi1_dd, phi2_dd), by one complex step.
    """
    _, _, th_d, _, _, _, add, f1dd, f2dd = ode_rhs(_integrated(state), controls.tau1,
                                                   controls.tau2, p)
    step = 1j * CS_STEP
    rates = rolling_rates(state.theta + step * th_d, state.phi1_dot + step * f1dd,
                          state.phi2_dot + step * f2dd, p)
    return np.array([*(np.imag(rates) / CS_STEP), add, f1dd, f2dd])
