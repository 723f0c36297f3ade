"""Symmetry-reduced dynamics: momenta, shape and group reconstruction.

State: group element (x, y, theta, phi), shape (alpha, alpha_dot) and the
nonholonomic momenta (p1, p2).  The evolution is

    p1_dot = m_b r b sin(alpha) p2^2 / f(alpha)^2 + u1
    p2_dot = -(m_b b r sin(alpha) p2 / (f(alpha) h)) (p1 - m_b b r cos(alpha) alpha_dot) + u2
    m(alpha) alpha_dd = -(m_b b r)^2 sin(2 alpha)/(2h) alpha_dot^2
                        + (h f'(alpha) - (m_b b r)^2 sin(2 alpha)) / (2 h f(alpha)^2) p2^2
                        + m_b g b sin(alpha) - (m_b b r cos(alpha)/h) u1
    g^-1 g_dot = xi = -A(alpha) alpha_dot + Gamma(alpha) p

where u1 and u2 are the generalized forces conjugate to the rolling and yaw
symmetry directions (see wipdyn.sim.u_from_tau).  The u1 reaction term in the
tilt equation comes from eliminating the wheel acceleration through p1_dot;
dropping it breaks equivalence with the full model whenever torque is applied.

Trajectories of this system reproduce the full model exactly (it is the same
mechanical system in different coordinates); that equivalence is the central
cross-check of the test suite.

The text ``_BODY``, bound to p's constants by ``_kernel(p)`` like the full
model's, is the one place these equations live, the map from momenta to body
velocity xi included; :func:`ode_rhs`, the model's one rhs,
:func:`reduced_to_full`, the momentum-rate check and the connection's
A(alpha) and Gamma(alpha) evaluate it, and ``sim`` inlines it into the
model's fused RK4 step.  Its inverse is ``dynamics_full.momenta``.
"""

from __future__ import annotations

from functools import lru_cache
from math import cos, sin
from operator import attrgetter
from types import FunctionType

from . import model
from .model import LAYOUTS, FullState, Params, ReducedState
from .dynamics_full import momenta

__all__ = [
    "ode_rhs",
    "full_to_reduced",
    "reduced_to_full",
]

# Read as dynamics_full._BODY, with the forces of _kernel's header.  f(alpha),
# f'(alpha) and shape_mass inline: helpers kept this rhs at about 3 us, not 1.2 us.
_BODY = """
    th, al, ald, p1, p2 = y[2], y[4], y[5], y[6], y[7]
    sa, ca = sin(al), cos(al)
    fa = i_0 + i_c * ca * ca + i_s * sa * sa + f_wy
    kappa = kappa_0 * ca
    m_al = m_0 - kappa * kappa / h  # >= shape_mass(0, p), which Params keeps positive
    xi3 = p2 / fa
    xi4 = (p1 - kappa * ald) / h
    xi1 = r * xi4
    alpha_dd = (neg_kappa2 * sa * ca / h * ald * ald
                + 0.5 * (fp_0 * sin(2.0 * al) - kappa2x2 * sa * ca / h) * xi3 * xi3
                + mgb * sa
                - kappa / h * u1) / m_al
    return (xi1 * cos(th), xi1 * sin(th), xi3, xi4, ald, alpha_dd,
            kappa_0 * sa * xi3 * xi3 + u1, -kappa_0 * sa * xi3 * xi4 + u2)
"""


def _kernel(p: Params):
    """ode(y, u1, u2), :func:`ode_rhs`: ``_BODY`` as it stands, on p's inertia record, as
    the full kernel, bit-identical to ``model``'s formulas: f(alpha) = i_0 + i_c cos^2
    + i_s sin^2 + f_wy, f' = fp_0 sin(2 alpha), m(alpha) = m_0 - kappa^2 / h."""
    return _bind(p, _BODY)


@lru_cache(maxsize=32)
def _bind(p: Params, body: str):
    """:func:`_kernel`, cached on the text it compiles as well as on p."""
    rec = model._inertias(p)
    kappa_0 = rec["kappa_0"]
    return FunctionType(model._code("def ode(y, u1, u2):" + body), dict(
        rec, sin=sin, cos=cos, r=p.r, fp_0=rec["i_s"] - rec["i_c"],
        neg_kappa2=-(kappa_0 * kappa_0), kappa2x2=2.0 * kappa_0 * kappa_0))


def ode_rhs(y, u1: float, u2: float, p: Params) -> tuple:
    """Time derivative of the integrated state vector y, the fields of
    :class:`~wipdyn.model.ReducedState` in order, as a tuple of eight floats
    for float input.

    The group rates follow from xi = -A(alpha) alpha_dot + Gamma(alpha) p by
    left translation: x_dot = xi1 cos(theta), y_dot = xi1 sin(theta),
    theta_dot = xi3, phi_dot = xi4 (xi2 is identically zero).
    """
    return _kernel(p)(y, u1, u2)


_integrated = attrgetter(*LAYOUTS["reduced"])  # a ReducedState's values in order


def reduced_rhs(state: ReducedState, u1: float, u2: float, p: Params) -> tuple:
    """:func:`ode_rhs` at a state record; kept only for the benchmark's rhs replay."""
    return ode_rhs(_integrated(state), u1, u2, p)


def _to_reduced(v: dict, p: Params) -> dict:
    """The one change of representation, on a constrained full state's named
    values, floats or columns: the ReducedState fields, with phi the mean wheel
    angle and (p1, p2) from ``dynamics_full.momenta``; the rest pass through."""
    p1, p2 = momenta(v["alpha"], v["alpha_dot"], v["phi1_dot"], v["phi2_dot"], p)
    return dict(x=v["x"], y=v["y"], theta=v["theta"], phi=0.5 * (v["phi1"] + v["phi2"]),
                alpha=v["alpha"], alpha_dot=v["alpha_dot"], p1=p1, p2=p2)


def full_to_reduced(state: FullState, p: Params) -> ReducedState:
    """Change of representation: mean wheel angle and nonholonomic momenta."""
    return ReducedState(**_to_reduced(vars(state), p))


def reduced_to_full(state: ReducedState, p: Params) -> FullState:
    """Inverse change of representation, with both wheels at the mean angle,
    phi1 = phi2 = phi: a reduced state does not hold the wheel difference.

    The wheel rates are phi_dot X_1 + theta_dot X_2 on the generators of
    ``model._generators``, from the body velocity (theta_dot, phi_dot) =
    (xi3, xi4) that :func:`ode_rhs` reconstructs, so the result satisfies the
    rolling constraints exactly.
    """
    theta_dot, phi_dot = ode_rhs(_integrated(state), 0.0, 0.0, p)[2:4]
    rates = [phi_dot * a + theta_dot * b for a, b in zip(*model._generators(p))]
    return FullState.constrained(state.x, state.y, state.theta, state.alpha,
                                 state.phi, state.phi, state.alpha_dot, *rates[1:], p)
