"""Physical model of the wheeled inverted pendulum (WIP).

Parameters, state containers, inertia scalars and the one hand-typed
Lagrangian, :func:`lagrangian_full`, that every other module builds on.  All
functions are pure and all containers are frozen, so values can be shared
freely between threads.

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

import functools
import math
import numbers
from dataclasses import asdict, dataclass, fields
from types import FunctionType, MappingProxyType

import numpy as np

__all__ = [
    "Params",
    "FullState",
    "ReducedState",
    "LAYOUTS",
    "Controls",
    "i_theta",
    "f_of_alpha",
    "h_const",
    "shape_mass",
    "rolling_rates",
    "rolling_residuals",
    "lagrangian_full",
    "total_energy",
    "reduced_energy",
]


def _names(record) -> tuple[str, ...]:
    return tuple(f.name for f in fields(record))


def _strict_keys(data, names) -> None:
    """ValueError naming data's unknown keys, else the missing names, sorted."""
    for kind, keys in (("unknown", set(data) - set(names)), ("missing", set(names) - set(data))):
        if keys:
            raise ValueError(f"{kind} keys: {', '.join(sorted(keys))}")


def _finite(v, name: str) -> float:
    """v as a float if it is a real number, not a bool, and finite as a float
    (an int beyond the float range is not); else ValueError naming it."""
    if isinstance(v, numbers.Real) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"{name} must be a finite number, got {v!r}")


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

    All values must be strictly positive, and so must the shape-space mass
    m(alpha), the constrained mass matrix's invertibility condition.  Each
    rounded step of :func:`shape_mass` is monotone in |cos alpha|, so m is
    smallest at alpha = 0 in floating point too, where construction checks
    it.  Positive inputs can fail (m_b = b = r = 1, m_W = I_Wyy = I_Byy = 1e-20).

    Conditioning: m(0) = m_0 - kappa^2/h (m_0 = m_b b^2 + I_Byy) cancels, so
    m and both models' tilt accelerations carry a relative rounding error of
    about eps m_0/m(0).  Construction accepts any m(0) > 0 and promises no
    more: the ratio is 2.3 at :meth:`default` but 2.2e9 at m_b = b = r = 1,
    I_Byy = 1.1e-16, m_W = 2.1e-10, where both models' m(0) is off by 5.2e-7
    alike, so no cross-model check sees it.
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
            v = _finite(getattr(self, f.name), f"parameter {f.name!r}")
            if v <= 0.0:
                raise ValueError(f"parameter {f.name!r} must be strictly positive, got {v!r}")
            object.__setattr__(self, f.name, v)
        if shape_mass(0.0, self) <= 0.0:
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
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Params":
        """Strict construction from a key/value mapping.

        Every field is mandatory and unknown keys are rejected (:func:`_strict_keys`).
        """
        _strict_keys(data, _names(cls))
        return cls(**data)


def _coerce_finite(obj):
    """Store every field of a frozen dataclass as a float checked by :func:`_finite`."""
    for f in fields(obj):
        name = f"{type(obj).__name__}.{f.name}"
        object.__setattr__(obj, f.name, _finite(getattr(obj, f.name), name))


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


# What each model integrates, by name and in order: the oracle FullState's
# fields, the reduced model ReducedState's, and the full model FullState's
# less the group rates that rolling derives from the wheel rates.  The full
# layout is also FullState.constrained's positional order.
LAYOUTS = {
    "full": tuple(n for n in _names(FullState) if n not in ("x_dot", "y_dot", "theta_dot")),
    "reduced": _names(ReducedState),
    "oracle": _names(FullState),
}


@dataclass(frozen=True)
class Controls:
    """Wheel torques [N m]."""

    tau1: float
    tau2: float

    def __post_init__(self):
        _coerce_finite(self)


@functools.cache
def _code(src: str):
    """Code of the one function src defines, compiled once per process."""
    namespace = {}
    exec(src, namespace)
    (fn,) = filter(callable, namespace.values())
    return fn.__code__


def _on_columns(kernel):
    """A rhs kernel with numpy's sin and cos bound in place of ``math``'s: the
    same body and constants on numpy columns, one state per column."""
    return FunctionType(kernel.__code__, {**kernel.__globals__, "sin": np.sin, "cos": np.cos})


# ---------------------------------------------------------------------------
# inertia scalars


def _cos_sin(x):
    """(cos x, sin x): ``math`` for a float, so floats stay floats; numpy otherwise."""
    if isinstance(x, float):
        return math.cos(x), math.sin(x)
    return np.cos(x), np.sin(x)


@functools.lru_cache(maxsize=32)
def _inertias(p: Params) -> MappingProxyType:
    """The inertia scalars, each stated once, read-only and by name.

    I_theta(alpha) = i_0 + i_c cos^2 + i_s sin^2: i_0 is the wheels' own yaw
    inertia plus 2 m_W (d/2)^2 for wheel centres at +-d/2 from the axle
    midpoint (as in :func:`rolling_rates`), i_c the body's yaw inertia and i_s
    its roll inertia shifted to the axle; f = I_theta + f_wy; h is the rolling
    inertia; m(alpha) = m_0 - (kappa_0 cos alpha)^2 / h; mgb = m_b g b.  The
    helpers here, ``dynamics_full.momenta`` and both rhs kernels bind it by name,
    so one patch reaches them all; ``lagrangian_full`` reads only I_theta's.
    """
    return MappingProxyType(dict(
        i_0=2.0 * p.I_Wzz + 0.5 * p.m_W * p.d * p.d, i_c=p.I_Bz,
        i_s=p.I_Bxx + p.m_b * p.b * p.b, f_wy=p.d * p.d / (2.0 * p.r * p.r) * p.I_Wyy,
        h=(p.m_b + 2.0 * p.m_W) * (p.r * p.r) + 2.0 * p.I_Wyy,
        m_0=p.m_b * (p.b * p.b) + p.I_Byy, kappa_0=p.m_b * p.b * p.r, mgb=p.m_b * p.g * p.b))


def _i_theta(ca, sa, p: Params):
    """I_theta from cos(alpha) and sin(alpha), for callers that hold them."""
    rec = _inertias(p)
    return rec["i_0"] + rec["i_c"] * ca * ca + rec["i_s"] * sa * sa


def i_theta(alpha, p: Params):
    """Yaw inertia I_theta(alpha); smooth, even and pi-periodic."""
    return _i_theta(*_cos_sin(alpha), p)


def f_of_alpha(alpha, p: Params):
    """Yaw inertia including the wheel-difference spin: I_theta + d^2 I_Wyy / (2 r^2)."""
    return i_theta(alpha, p) + _inertias(p)["f_wy"]


def h_const(p: Params) -> float:
    """Rolling inertia h = (m_b + 2 m_W) r^2 + 2 I_Wyy."""
    return _inertias(p)["h"]


def shape_mass(alpha, p: Params):
    """Effective tilt inertia m(alpha) = m_b b^2 + I_Byy - (m_b b r cos alpha)^2 / h.

    This is the Schur complement of the constrained mass matrix, so
    m(alpha) > 0 is exactly its invertibility condition (its conditioning:
    see :class:`Params`).
    """
    rec = _inertias(p)
    kappa = rec["kappa_0"] * _cos_sin(alpha)[0]
    return rec["m_0"] - kappa * kappa / rec["h"]


# ---------------------------------------------------------------------------
# rolling constraint


def rolling_rates(theta, phi1_dot, phi2_dot, p: Params):
    """Group rates (x_dot, y_dot, theta_dot) that rolling without slipping
    assigns to the wheel rates; floats for float input, and broadcasts over
    array inputs."""
    v = 0.5 * p.r * (phi1_dot + phi2_dot)
    c, s = _cos_sin(theta)
    return v * c, v * s, p.r / p.d * (phi2_dot - phi1_dot)


def _lift(v, p: Params) -> np.ndarray:
    """q_dot, last axis 6: the horizontal lift of (alpha_dot, phi1_dot, phi2_dot) at theta,
    named full-layout values (floats or columns that broadcast, real or complex)."""
    a, w1, w2 = v["alpha_dot"], v["phi1_dot"], v["phi2_dot"]
    return np.stack(np.broadcast_arrays(*rolling_rates(v["theta"], w1, w2, p), a, w1, w2), -1)


def _generators(p: Params) -> tuple:
    """Shape rates (alpha_dot, phi1_dot, phi2_dot) of the symmetry generators
    X_1 (rolling) and X_2 (yaw), whose group rates :func:`rolling_rates` gives.
    The momenta, the generalized forces and the wheel rates of a reduced state
    read them by name, so one patch reaches all three.  X_1 is an orbit
    direction of the S1 that shifts both wheels equally (``validation._shift``);
    X_2 only of SE(2) x T2, where each wheel shifts on its own.
    """
    half = 0.5 * p.d / p.r
    return (0.0, 1.0, 1.0), (0.0, -half, half)


def rolling_residuals(q, q_dot, p: Params) -> np.ndarray:
    """|s_dot - rolling_rates| for (x, y, theta); q and q_dot have a last
    axis of size 6 and the result a last axis of size 3."""
    q = np.asarray(q, dtype=float)
    qd = np.asarray(q_dot, dtype=float)
    rates = rolling_rates(q[..., 2], qd[..., 4], qd[..., 5], p)
    return np.abs(qd[..., :3] - np.stack(rates, axis=-1))


# ---------------------------------------------------------------------------
# Lagrangian


def lagrangian_full(q, q_dot, p: Params):
    """Lagrangian of the unconstrained six-coordinate model.

    q and q_dot are arrays whose last axis holds
    (x, y, theta, alpha, phi1, phi2) and its velocities; broadcasting over
    leading axes is supported (used heavily by the oracle).  Complex input
    is evaluated as is, never cast to real: the oracle takes derivatives of
    this function by complex step.  Few numpy calls, for the oracle's 46 rows:
    sin/cos of (theta, alpha) once, I_theta from them via ``_i_theta`` (as
    :func:`i_theta`), squared rates once and weighted per row by ``einsum``,
    as BLAS would round one row (a dot) otherwise than a table (a gemv).
    """
    q = np.asarray(q)
    qd = np.asarray(q_dot)
    sin, cos = np.sin(q[..., 2:4]), np.cos(q[..., 2:4])
    sth, sal = sin[..., 0], sin[..., 1]
    cth, cal = cos[..., 0], cos[..., 1]
    xd, yd, thd, ald = (qd[..., i] for i in range(4))
    v2 = qd * qd
    m_t, m_s = 0.5 * (p.m_b + 2.0 * p.m_W), 0.5 * (p.m_b * (p.b * p.b) + p.I_Byy)
    w = np.array([m_t, m_t, 0.0, m_s, 0.5 * p.I_Wyy, 0.5 * p.I_Wyy])
    return (np.einsum("...i,i->...", v2, w) + 0.5 * _i_theta(cal, sal, p) * v2[..., 2]
            + p.m_b * p.b * (sal * thd * (cth * yd - sth * xd)
                             + cal * (ald * (cth * xd + sth * yd) - p.g)))


def total_energy(state, p: Params):
    """Total energy E = q_dot . dL/dq_dot - L (kinetic + potential) of the
    pair ``state = (q, q_dot)``, with the usual broadcasting.

    T is quadratic in q_dot, so by Euler's identity q_dot . dL/dq_dot = 2 T
    and E = L(q, q_dot) - 2 L(q, 0), from :func:`lagrangian_full` alone.
    """
    q, qd = state
    return lagrangian_full(q, qd, p) - 2.0 * lagrangian_full(q, np.zeros(6), p)


def reduced_energy(state, p: Params):
    """Energy of the reduced representation, ``state = (alpha, alpha_dot, p1, p2)``:
    p^T Gamma p / 2 + m(alpha) alpha_dot^2 / 2 + V; broadcasts."""
    alpha, alpha_dot, p1, p2 = state
    alpha = np.asarray(alpha, dtype=float)
    return (0.5 * p1 * p1 / h_const(p)
            + 0.5 * p2 * p2 / f_of_alpha(alpha, p)
            + 0.5 * shape_mass(alpha, p) * alpha_dot * alpha_dot
            + _inertias(p)["mgb"] * np.cos(alpha))
