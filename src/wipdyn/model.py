"""Physical model of the wheeled inverted pendulum (WIP).

Parameters, state containers, inertia scalars and the Lagrangians that every
other module builds on.  All functions are pure and all containers are frozen,
so values can be shared freely between threads.

Conventions used throughout the package:

* configuration ``q = (x, y, theta, alpha, phi1, phi2)``: planar position of
  the axle midpoint, heading, body tilt, left/right wheel angle;
* rolling without slipping ties the group rates to the wheel rates::

      x_dot     = (r/2) cos(theta) (phi1_dot + phi2_dot)
      y_dot     = (r/2) sin(theta) (phi1_dot + phi2_dot)
      theta_dot = (r/d) (phi2_dot - phi1_dot)

* the mean wheel angle ``phi = (phi1 + phi2)/2`` and the yaw relation
  ``theta - theta0 = (r/d)((phi2 - phi2_0) - (phi1 - phi1_0))`` are the
  coordinates of the reduced description;
* angles are stored unwrapped (no modular reduction) so the integrated
  yaw/wheel-angle relation is an exact real-number identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Params",
    "FullState",
    "ReducedState",
    "Controls",
    "i_theta",
    "i_theta_prime",
    "f_of_alpha",
    "f_prime",
    "h_const",
    "shape_mass",
    "rolling_rates",
    "rolling_residuals",
    "lagrangian_full",
    "lagrangian_case2",
    "reduced_constrained_lagrangian",
    "velocity_gradient_full",
    "total_energy",
    "reduced_energy",
]

_PARAM_FIELDS = ("m_b", "m_W", "b", "r", "d",
                 "I_Bxx", "I_Byy", "I_Bz", "I_Wyy", "I_Wzz", "g")


@dataclass(frozen=True)
class Params:
    """Physical constants of the WIP.

    Attributes:
        m_b:   body mass [kg]
        m_W:   mass of one wheel [kg]
        b:     height of the body centre of mass above the axle [m]
        r:     wheel radius [m]
        d:     wheel separation [m]
        I_Bxx: body roll inertia about its COM [kg m^2]
        I_Byy: body pitch inertia about its COM [kg m^2]
        I_Bz:  body yaw inertia about its COM [kg m^2]
        I_Wyy: wheel spin inertia [kg m^2]
        I_Wzz: wheel yaw inertia [kg m^2]
        g:     gravitational acceleration [m/s^2]

    All values must be strictly positive.  Construction additionally checks
    that the shape-space mass ``m(alpha)`` stays positive on an alpha grid,
    which is exactly the invertibility condition of the constrained mass
    matrix (for strictly positive inputs it cannot actually fail; the check
    guards against future parameterisations).
    """

    m_b: float
    m_W: float
    b: float
    r: float
    d: float
    I_Bxx: float
    I_Byy: float
    I_Bz: float
    I_Wyy: float
    I_Wzz: float
    g: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"parameter {f.name!r} must be a finite number, got {v!r}")
            object.__setattr__(self, f.name, float(v))
            if getattr(self, f.name) <= 0.0:
                raise ValueError(f"parameter {f.name!r} must be strictly positive, got {v!r}")
        grid = np.linspace(0.0, math.pi, 181)
        if np.min(shape_mass(grid, self)) <= 0.0:
            raise ValueError("non-physical parameter set: shape-space mass m(alpha) "
                             "is not positive for all alpha")

    @classmethod
    def default(cls) -> "Params":
        """Documented desk-scale default set.

        Body: 5 kg box, 0.08 x 0.25 x 0.40 m, COM 0.20 m above the axle.
        Wheels: two 0.5 kg solid discs of radius 0.10 m, 0.40 m apart.
        The values are inputs for the bundled scenarios, not ground truth.
        """
        m_b, m_W, r = 5.0, 0.5, 0.1
        tx, wy, hz = 0.08, 0.25, 0.40  # body box: depth, width, height
        return cls(
            m_b=m_b, m_W=m_W, b=0.2, r=r, d=0.4,
            I_Bxx=m_b / 12.0 * (wy ** 2 + hz ** 2),
            I_Byy=m_b / 12.0 * (tx ** 2 + hz ** 2),
            I_Bz=m_b / 12.0 * (tx ** 2 + wy ** 2),
            I_Wyy=0.5 * m_W * r ** 2,
            I_Wzz=0.25 * m_W * r ** 2,
            g=9.81,
        )

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in _PARAM_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "Params":
        """Strict construction from a key/value mapping.

        Every field is mandatory and unknown keys are rejected.
        """
        unknown = sorted(set(data) - set(_PARAM_FIELDS))
        if unknown:
            raise ValueError(f"unknown parameter keys: {', '.join(unknown)}")
        missing = sorted(set(_PARAM_FIELDS) - set(data))
        if missing:
            raise ValueError(f"missing parameter keys: {', '.join(missing)}")
        return cls(**{k: data[k] for k in _PARAM_FIELDS})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Params":
        return cls.from_dict(json.loads(text))


def _coerce_finite(obj):
    """Store every field of a frozen dataclass as a float; reject non-finite values."""
    for f in fields(obj):
        v = float(getattr(obj, f.name))
        if not math.isfinite(v):
            raise ValueError(f"{type(obj).__name__}.{f.name} must be finite, got {v!r}")
        object.__setattr__(obj, f.name, v)


@dataclass(frozen=True)
class FullState:
    """Configuration and velocity of the full six-coordinate model.

    Velocities are stored as given; use :meth:`constrained` to build a state
    whose group rates are derived from the wheel rates (the representation
    the full dynamics and the momentum maps expect).
    """

    x: float
    y: float
    theta: float
    alpha: float
    phi1: float
    phi2: float
    x_dot: float
    y_dot: float
    theta_dot: float
    alpha_dot: float
    phi1_dot: float
    phi2_dot: float

    def __post_init__(self):
        _coerce_finite(self)

    @classmethod
    def constrained(cls, x, y, theta, alpha, phi1, phi2,
                    alpha_dot, phi1_dot, phi2_dot, p: Params) -> "FullState":
        """Build a state with (x_dot, y_dot, theta_dot) derived from rolling."""
        return cls(x, y, theta, alpha, phi1, phi2,
                   *rolling_rates(theta, phi1_dot, phi2_dot, p),
                   alpha_dot, phi1_dot, phi2_dot)

    @property
    def q(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta, self.alpha, self.phi1, self.phi2])

    @property
    def q_dot(self) -> np.ndarray:
        return np.array([self.x_dot, self.y_dot, self.theta_dot,
                         self.alpha_dot, self.phi1_dot, self.phi2_dot])

    @property
    def phi(self) -> float:
        return 0.5 * (self.phi1 + self.phi2)

    @property
    def phi_dot(self) -> float:
        return 0.5 * (self.phi1_dot + self.phi2_dot)


@dataclass(frozen=True)
class ReducedState:
    """Group element (x, y, theta, phi), shape (alpha, alpha_dot) and momenta.

    phi is the mean wheel angle (phi1 + phi2)/2; p1 and p2 are the rolling
    and yaw momenta [kg m^2/s].
    """

    x: float
    y: float
    theta: float
    phi: float
    alpha: float
    alpha_dot: float
    p1: float
    p2: float

    def __post_init__(self):
        _coerce_finite(self)


@dataclass(frozen=True)
class Controls:
    """Wheel torques [N m]."""

    tau1: float
    tau2: float

    def __post_init__(self):
        _coerce_finite(self)


# ---------------------------------------------------------------------------
# inertia scalars


def _cos_sin(x):
    """(cos x, sin x): ``math`` for a float, so floats stay floats; numpy otherwise."""
    if isinstance(x, float):
        return math.cos(x), math.sin(x)
    return np.cos(x), np.sin(x)


def i_theta(alpha, p: Params):
    """Yaw inertia I_theta(alpha); smooth, even and pi-periodic."""
    ca, sa = _cos_sin(alpha)
    return (2.0 * p.I_Wzz + p.I_Bz * ca * ca + 2.0 * p.m_W * p.d ** 2
            + (p.I_Bxx + p.m_b * p.b ** 2) * sa * sa)


def i_theta_prime(alpha, p: Params):
    """d/dalpha of :func:`i_theta`."""
    return (p.I_Bxx + p.m_b * p.b ** 2 - p.I_Bz) * _cos_sin(2.0 * alpha)[1]


def f_of_alpha(alpha, p: Params):
    """Yaw inertia including the wheel-difference spin: I_theta + d^2 I_Wyy / (2 r^2)."""
    return i_theta(alpha, p) + p.d ** 2 / (2.0 * p.r ** 2) * p.I_Wyy


f_prime = i_theta_prime  # f differs from I_theta by a constant


def h_const(p: Params) -> float:
    """Rolling inertia h = (m_b + 2 m_W) r^2 + 2 I_Wyy."""
    return (p.m_b + 2.0 * p.m_W) * p.r ** 2 + 2.0 * p.I_Wyy


def shape_mass(alpha, p: Params):
    """Effective tilt inertia m(alpha) = m_b b^2 + I_Byy - (m_b b r cos alpha)^2 / h.

    This is the Schur complement of the constrained mass matrix, so
    m(alpha) > 0 is exactly its invertibility condition.
    """
    kappa = p.m_b * p.b * p.r * _cos_sin(alpha)[0]
    return p.m_b * p.b ** 2 + p.I_Byy - kappa * kappa / h_const(p)


# ---------------------------------------------------------------------------
# rolling constraint


def rolling_rates(theta, phi1_dot, phi2_dot, p: Params):
    """Group rates (x_dot, y_dot, theta_dot) that rolling without slipping
    assigns to the wheel rates; floats for float input, and broadcasts over
    array inputs."""
    v = 0.5 * p.r * (phi1_dot + phi2_dot)
    c, s = _cos_sin(theta)
    return v * c, v * s, p.r / p.d * (phi2_dot - phi1_dot)


def rolling_residuals(q, q_dot, p: Params) -> np.ndarray:
    """|s_dot - rolling_rates| for (x, y, theta); q and q_dot have a last
    axis of size 6 and the result a last axis of size 3."""
    q = np.asarray(q, dtype=float)
    qd = np.asarray(q_dot, dtype=float)
    rates = rolling_rates(q[..., 2], qd[..., 4], qd[..., 5], p)
    return np.abs(qd[..., :3] - np.stack(rates, axis=-1))


# ---------------------------------------------------------------------------
# Lagrangians


def lagrangian_full(q, q_dot, p: Params):
    """Lagrangian of the unconstrained six-coordinate model.

    q and q_dot are arrays whose last axis holds
    (x, y, theta, alpha, phi1, phi2) and its velocities; broadcasting over
    leading axes is supported (used heavily by the oracle).  Complex input
    is evaluated as is, never cast to real: the oracle takes derivatives of
    this function by complex step.
    """
    q = np.asarray(q)
    qd = np.asarray(q_dot)
    th, al = q[..., 2], q[..., 3]
    xd, yd, thd, ald, f1d, f2d = (qd[..., i] for i in range(6))
    m_t = p.m_b + 2.0 * p.m_W
    mbb = p.m_b * p.b
    sth, cth = np.sin(th), np.cos(th)
    sal, cal = np.sin(al), np.cos(al)
    return (0.5 * m_t * (xd * xd + yd * yd)
            + 0.5 * i_theta(al, p) * thd * thd
            + 0.5 * (p.m_b * p.b ** 2 + p.I_Byy) * ald * ald
            + 0.5 * p.I_Wyy * (f1d * f1d + f2d * f2d)
            - mbb * sal * sth * xd * thd
            + mbb * cal * cth * ald * xd
            + mbb * sal * cth * thd * yd
            + mbb * cal * sth * ald * yd
            - mbb * p.g * cal)


def lagrangian_case2(q, q_dot, p: Params):
    """Lagrangian in the five mean-wheel coordinates (x, y, theta, alpha, phi).

    Equals :func:`lagrangian_full` after eliminating the wheel difference via
    the integrated yaw relation phi2 - phi1 = (d/r) theta + const.
    """
    q = np.asarray(q, dtype=float)
    qd = np.asarray(q_dot, dtype=float)
    th, al = q[..., 2], q[..., 3]
    xd, yd, thd, ald, phid = (qd[..., i] for i in range(5))
    m_t = p.m_b + 2.0 * p.m_W
    mbb = p.m_b * p.b
    sth, cth = np.sin(th), np.cos(th)
    sal, cal = np.sin(al), np.cos(al)
    return (0.5 * m_t * (xd * xd + yd * yd)
            + 0.5 * f_of_alpha(al, p) * thd * thd
            + 0.5 * (p.m_b * p.b ** 2 + p.I_Byy) * ald * ald
            + p.I_Wyy * phid * phid
            + mbb * sal * thd * (-sth * xd + cth * yd)
            + mbb * cal * ald * (cth * xd + sth * yd)
            - mbb * p.g * cal)


def reduced_constrained_lagrangian(alpha, alpha_dot, xi3, xi4, p: Params):
    """Constrained reduced Lagrangian l_c(alpha, alpha_dot, xi3, xi4).

    xi3 is the body yaw rate and xi4 the mean wheel rate; the rolling
    constraint xi1 = r xi4, xi2 = 0 has been substituted.
    """
    alpha = np.asarray(alpha, dtype=float)
    cal = np.cos(alpha)
    return (0.5 * h_const(p) * xi4 * xi4
            + p.r * p.m_b * p.b * cal * alpha_dot * xi4
            + 0.5 * f_of_alpha(alpha, p) * xi3 * xi3
            + 0.5 * (p.m_b * p.b ** 2 + p.I_Byy) * alpha_dot * alpha_dot
            - p.m_b * p.g * p.b * cal)


def velocity_gradient_full(q, q_dot, p: Params):
    """Analytic dL/dq_dot of :func:`lagrangian_full`; last axis of size 6."""
    q = np.asarray(q, dtype=float)
    qd = np.asarray(q_dot, dtype=float)
    th, al = q[..., 2], q[..., 3]
    xd, yd, thd, ald, f1d, f2d = (qd[..., i] for i in range(6))
    m_t = p.m_b + 2.0 * p.m_W
    mbb = p.m_b * p.b
    sth, cth = np.sin(th), np.cos(th)
    sal, cal = np.sin(al), np.cos(al)
    g_x = m_t * xd - mbb * sal * sth * thd + mbb * cal * cth * ald
    g_y = m_t * yd + mbb * sal * cth * thd + mbb * cal * sth * ald
    g_th = i_theta(al, p) * thd + mbb * sal * (-sth * xd + cth * yd)
    g_al = (p.m_b * p.b ** 2 + p.I_Byy) * ald + mbb * cal * (cth * xd + sth * yd)
    return np.stack([g_x, g_y, g_th, g_al, p.I_Wyy * f1d, p.I_Wyy * f2d], axis=-1)


def total_energy(state, p: Params):
    """Total energy E = sum_i q_dot_i dL/dq_dot_i - L (kinetic + potential).

    Accepts a :class:`FullState` or a pair of arrays via
    ``total_energy((q, q_dot), p)`` with the usual broadcasting.
    """
    if isinstance(state, FullState):
        q, qd = state.q, state.q_dot
    else:
        q, qd = state
    grad = velocity_gradient_full(q, qd, p)
    qd = np.asarray(qd, dtype=float)
    return np.sum(qd * grad, axis=-1) - lagrangian_full(q, qd, p)


def reduced_energy(state: ReducedState | tuple, p: Params):
    """Energy of the reduced representation: p^T Gamma p / 2 + m(alpha) alpha_dot^2 / 2 + V."""
    if isinstance(state, ReducedState):
        alpha, alpha_dot, p1, p2 = state.alpha, state.alpha_dot, state.p1, state.p2
    else:
        alpha, alpha_dot, p1, p2 = state
    alpha = np.asarray(alpha, dtype=float)
    return (0.5 * p1 * p1 / h_const(p)
            + 0.5 * p2 * p2 / f_of_alpha(alpha, p)
            + 0.5 * shape_mass(alpha, p) * alpha_dot * alpha_dot
            + p.m_b * p.g * p.b * np.cos(alpha))
