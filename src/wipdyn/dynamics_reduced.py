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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .model import (FullState, Params, ReducedState, f_of_alpha, f_prime,
                    h_const, shape_mass)
from .dynamics_full import momenta_from_full

__all__ = [
    "ReducedRhs",
    "ode_rhs",
    "momentum_rhs",
    "shape_rhs",
    "reduced_rhs",
    "full_to_reduced",
    "reduced_to_full",
]


@dataclass(frozen=True)
class ReducedRhs:
    """Momentum rates, shape acceleration and group rates."""

    p1_dot: float
    p2_dot: float
    alpha_ddot: float
    x_dot: float
    y_dot: float
    theta_dot: float
    phi_dot: float


def ode_rhs(y, u1: float, u2: float, p: Params) -> np.ndarray:
    """Time derivative of the integrated state vector
    y = (x, y, theta, phi, alpha, alpha_dot, p1, p2).

    The group rates follow from xi = -A(alpha) alpha_dot + Gamma(alpha) p by
    left translation: x_dot = xi1 cos(theta), y_dot = xi1 sin(theta),
    theta_dot = xi3, phi_dot = xi4 (xi2 is identically zero).  Raises
    ValueError on a non-positive shape mass (unreachable for a valid
    :class:`~wipdyn.model.Params`).
    """
    th, al, ald, p1, p2 = y[2], y[4], y[5], y[6], y[7]
    sa, ca = sin(al), cos(al)
    h = h_const(p)
    fa = float(f_of_alpha(al, p))
    m_al = float(shape_mass(al, p))
    if m_al <= 0.0:
        raise ValueError(f"non-positive shape mass m(alpha) = {m_al} at alpha = {al}")
    mbbr = p.m_b * p.b * p.r
    xi3 = p2 / fa
    xi4 = (p1 - mbbr * ca * ald) / h
    xi1 = p.r * xi4
    alpha_dd = (-(mbbr * mbbr) * sa * ca / h * ald * ald
                + 0.5 * (float(f_prime(al, p)) - 2.0 * mbbr * mbbr * sa * ca / h) * xi3 * xi3
                + p.m_b * p.g * p.b * sa
                - mbbr * ca / h * u1) / m_al
    return np.array([xi1 * cos(th), xi1 * sin(th), xi3, xi4, ald, alpha_dd,
                     mbbr * sa * xi3 * xi3 + u1, -mbbr * sa * xi3 * xi4 + u2])


def momentum_rhs(alpha: float, alpha_dot: float, p1: float, p2: float,
                 u1: float, u2: float, p: Params) -> tuple[float, float]:
    """Nonholonomic momentum dynamics (p1_dot, p2_dot) of :func:`ode_rhs`."""
    out = ode_rhs((0.0, 0.0, 0.0, 0.0, alpha, alpha_dot, p1, p2), u1, u2, p)
    return float(out[6]), float(out[7])


def shape_rhs(alpha: float, alpha_dot: float, p2: float, p: Params) -> float:
    """Unforced tilt acceleration alpha_dd(alpha, alpha_dot, p2) of :func:`ode_rhs`.

    Raises ValueError on a non-positive shape mass (unreachable for a valid
    :class:`~wipdyn.model.Params`).
    """
    return float(ode_rhs((0.0, 0.0, 0.0, 0.0, alpha, alpha_dot, 0.0, p2), 0.0, 0.0, p)[5])


def reduced_rhs(state: ReducedState, u1: float, u2: float, p: Params) -> ReducedRhs:
    """Complete reduced right-hand side including group reconstruction."""
    out = ode_rhs((state.x, state.y, state.theta, state.phi, state.alpha,
                   state.alpha_dot, state.p1, state.p2), u1, u2, p)
    return ReducedRhs(*out[[6, 7, 5, 0, 1, 2, 3]].tolist())


def full_to_reduced(state: FullState, p: Params) -> ReducedState:
    """Change of representation: mean wheel angle and nonholonomic momenta."""
    p1, p2 = momenta_from_full(state, p)
    return ReducedState(x=state.x, y=state.y, theta=state.theta,
                        phi=0.5 * (state.phi1 + state.phi2),
                        alpha=state.alpha, alpha_dot=state.alpha_dot,
                        p1=p1, p2=p2)


def reduced_to_full(state: ReducedState, p: Params,
                    phi1_0: float = 0.0, phi2_0: float = 0.0,
                    theta_0: float = 0.0) -> FullState:
    """Inverse change of representation.

    The wheel difference is recovered from the integrated yaw relation
    phi2 - phi1 = (d/r)(theta - theta_0) + (phi2_0 - phi1_0); the velocities
    come from the body velocity of the reduced state, so the result satisfies
    the rolling constraints exactly.
    """
    delta = p.d / p.r * (state.theta - theta_0) + (phi2_0 - phi1_0)
    phi1 = state.phi - 0.5 * delta
    phi2 = state.phi + 0.5 * delta
    kappa = p.m_b * p.b * p.r * cos(state.alpha)
    phi_dot = (state.p1 - kappa * state.alpha_dot) / h_const(p)
    theta_dot = state.p2 / float(f_of_alpha(state.alpha, p))
    half = 0.5 * p.d / p.r * theta_dot
    return FullState.constrained(state.x, state.y, state.theta, state.alpha,
                                 phi1, phi2, state.alpha_dot,
                                 phi_dot - half, phi_dot + half, p)
