import math
from types import MappingProxyType

import numpy as np
import pytest

from wipdyn import (FullState, Params, ReducedState, dynamics_full, dynamics_reduced,
                    ehresmann_at, lagrangian_full, model, sim)
from wipdyn.oracle import lagrangian_derivatives


# wheel 1 sits on the +axle side of the midpoint, wheel 2 on the -axle side;
# both wheels spin about +axle
WHEEL_SIDES = (1.0, -1.0)


def _heading_frame(th, sin, cos):
    """(e_z, forward, axle) at heading th; the axle points to wheel 1's side."""
    return (np.array([0.0, 0.0, 1.0]), np.array([cos(th), sin(th), 0.0]),
            np.array([-sin(th), cos(th), 0.0]))


def rigid_body_lagrangian(q, q_dot, p, sin=np.sin, cos=np.cos):
    """L = T - V of the WIP assembled from its rigid bodies' geometry alone.

    No inertia scalar of ``wipdyn.model`` is typed here.  The body pivots
    about the axle through the midpoint (x, y, r); its centre of mass sits at
    b along the body's yaw axis, which is tilted by alpha about the axle a.
    The wheel centres sit on the axle at side (d/2) a (``WHEEL_SIDES``), and
    wheel i spins at phi_i_dot about a.  Velocities of body-fixed points
    follow from v_axle + omega x offset.  q and q_dot are sequences of six
    scalars: floats, complex numbers or mpmath numbers, with sin and cos to
    match.
    """
    th, al = q[2], q[3]  # x, y and the wheel angles are cyclic
    xd, yd, thd, ald, f1d, f2d = q_dot
    ez, fwd, axle = _heading_frame(th, sin, cos)
    # body principal axes: roll, pitch (the axle) and yaw
    axes = (cos(al) * fwd - sin(al) * ez, axle, sin(al) * fwd + cos(al) * ez)
    v_axle = np.array([xd, yd, 0.0])
    omega_b = thd * ez + ald * axle
    v_com = v_axle + np.cross(omega_b, p.b * axes[2])
    T = (0.5 * p.m_b * (v_com @ v_com)
         + 0.5 * sum(i * (omega_b @ e) ** 2
                     for i, e in zip((p.I_Bxx, p.I_Byy, p.I_Bz), axes)))
    for side, spin in zip(WHEEL_SIDES, (f1d, f2d)):
        v_w = v_axle + np.cross(omega_b, side * 0.5 * p.d * axle)
        omega_w = thd * ez + spin * axle
        w_spin = omega_w @ axle
        w_perp = omega_w - w_spin * axle
        T += (0.5 * p.m_W * (v_w @ v_w) + 0.5 * p.I_Wyy * w_spin ** 2
              + 0.5 * p.I_Wzz * (w_perp @ w_perp))
    # potential energy above the rest height of the axle (the wheels' is constant)
    return T - p.m_b * p.g * (p.b * axes[2][2])


def contact_velocities(theta, q_dot, p, sin=np.sin, cos=np.cos):
    """(2, 3) velocities of the wheels' ground-contact points, from the same
    geometry as :func:`rigid_body_lagrangian`: each contact point sits r below
    its wheel centre, which yaws with the axle.  Rolling without slipping is
    their vanishing; the tilt does not enter.
    """
    xd, yd, thd, _, f1d, f2d = q_dot
    ez, _, axle = _heading_frame(theta, sin, cos)
    v_axle = np.array([xd, yd, 0.0])
    return np.array([v_axle + np.cross(thd * ez, side * 0.5 * p.d * axle)
                     + np.cross(thd * ez + spin * axle, -p.r * ez)
                     for side, spin in zip(WHEEL_SIDES, (f1d, f2d))])


def constrained_mass(alpha, p):
    """The referee's M(alpha): the Hessian in the shape rates r_dot = (alpha_dot,
    phi1_dot, phi2_dot) of the constrained Lagrangian l_c(r, r_dot) =
    L(s, -A(theta) r_dot, r, r_dot) (Bloch, Krishnaprasad, Marsden & Murray
    1996), from ``lagrangian_full`` and ``ehresmann_at`` alone.  l_c does not
    depend on the group coordinates s, which sit at zero."""
    A = ehresmann_at(0.0, p)

    def l_c(r, r_dot):
        q = np.concatenate([np.zeros(r.shape[:-1] + (3,)), r], axis=-1)
        return lagrangian_full(q, np.concatenate([-r_dot @ A.T, r_dot], axis=-1), p)

    return lagrangian_derivatives(l_c, [alpha, 0.0, 0.0], np.zeros(3))[0]


def ddt(state, f1, f2, p):
    """The model's ``ode_rhs`` at a FullState (f1, f2 the wheel torques) or a
    ReducedState (f1, f2 = u1, u2), keyed by the layout name it differentiates:
    ddt(...)["alpha_dot"] is alpha_ddot, ddt(...)["theta"] is theta_dot."""
    module = dynamics_reduced if isinstance(state, ReducedState) else dynamics_full
    names = model.LAYOUTS["reduced" if module is dynamics_reduced else "full"]
    return dict(zip(names, module.ode_rhs([getattr(state, n) for n in names], f1, f2, p)))


@pytest.fixture(scope="session")
def p():
    return Params.default()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def random_constrained(p, rng):
    """Factory for constrained full states with unit-order velocities."""

    def make():
        return FullState.constrained(
            rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
            rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 1.0),
            rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
            rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
            p)

    return make


@pytest.fixture()
def velocity_gradient(p):
    """dL/dq_dot of lagrangian_full by central differences with steps
    h_i = max(1, |q_dot_i|): L is quadratic in q_dot, so they are exact up to
    round-off."""

    def grad(q, qd):
        hs = np.maximum(1.0, np.abs(qd))
        steps = np.diag(hs)
        return (lagrangian_full(q, qd + steps, p)
                - lagrangian_full(q, qd - steps, p)) / (2.0 * hs)

    return grad


@pytest.fixture()
def kernel_fetches(monkeypatch):
    """watch(module) records every fetch of the module's per-Params rhs kernel."""

    def watch(module):
        calls = []
        kernel = module._kernel

        def counting(params):
            calls.append(params)
            return kernel(params)

        monkeypatch.setattr(module, "_kernel", counting)
        return calls

    return watch


def _clear_compiled():
    """Clear both rhs kernel caches and the two behind ``sim._rk4_stages``: every
    cache of code or text built from a model's ``_BODY`` or ``sim._RK4_STAGES``."""
    for cache in (dynamics_full._bind, dynamics_reduced._bind, sim._stages, sim._single):
        cache.cache_clear()


@pytest.fixture()
def fresh_kernels(monkeypatch):
    """edit(owner, name, old, new) patches the text owner.name, a model's
    ``_BODY`` or ``sim._RK4_STAGES``, with old, which occurs once, replaced by
    new.  Every cache of compiled code is keyed on the text it compiles, so
    ``ode_rhs``, the column lines and the fused step all run the current text
    with no cache cleared; the caches are cleared after the test, so no code
    built under an edit or a patched model outlives it."""

    def edit(owner, name, old, new):
        text = getattr(owner, name)
        found = text.count(old)
        assert found == 1, f"{owner.__name__}.{name} holds {old!r} {found} times, not once"
        monkeypatch.setattr(owner, name, text.replace(old, new))

    yield edit
    _clear_compiled()


@pytest.fixture()
def scale_inertias(monkeypatch, fresh_kernels):
    """scale(**factors) patches ``model._inertias`` to scale the named inertia
    scalars and clears the compiled code, so every reader of the record sees
    the patch."""
    record = model._inertias

    def scale(**factors):
        monkeypatch.setattr(model, "_inertias", lambda params: MappingProxyType(
            {n: v * factors.get(n, 1.0) for n, v in record(params).items()}))
        _clear_compiled()

    return scale
