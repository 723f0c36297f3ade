"""Time integration of the three models under a torque profile.

Fixed-step classical Runge-Kutta only: cross-model comparisons then live on
identical grids and every run is bit-for-bit deterministic.  The reduced
model integrates its group coordinates as ordinary ODE components (no exact
exponential update); the O(dt^4) error that costs is covered by the
comparison tolerances.

RK4 runs on Python floats: on 8 or 9 components, lists and float tuples cost
a fraction of numpy arrays.  ``rk4_step`` runs straight-line stages generated
from one template per state length.  The oracle's stages call its rhs; the
full and reduced models' fused steps inline the model's rhs body (``_BODY``)
on its kernel's constants and read the forces once per distinct stage time,
so they make no rhs calls.  Every model reads its forces from one per-run
lookup that calls ``TorqueProfile.tau_at`` and maps torques to forces once
per torque segment entered, not at every stage.  Only the sampled trajectory
is an array; the oracle converts at its boundary.

simulate() is pure per call.  Independent scenarios may be run concurrently
map-style; outputs are deterministic per scenario and no state is shared:
the force lookup lives in one simulate call, never on the profile.
"""

from __future__ import annotations

import bisect
import functools
import math
import re
from dataclasses import dataclass
from types import FunctionType

import numpy as np

from . import dynamics_full as dfull
from . import dynamics_reduced as dred
from . import oracle as _oracle
from .model import (FullState, Params, ReducedState, _code, reduced_energy,
                    rolling_rates, rolling_residuals, total_energy)

__all__ = [
    "SimulationError",
    "TorqueProfile",
    "Trajectory",
    "u_from_tau",
    "tau_from_u",
    "rk4_step",
    "simulate",
    "n_samples",
]

MODELS = ("full", "reduced", "oracle")


class SimulationError(RuntimeError):
    """Integration failure in one RK4 step: its index in .step, its start
    time in .t and its start state, the last finite one, in .state."""

    def __init__(self, exc: Exception, step: int, t: float, state):
        super().__init__(f"step {step} (t = {t:.6g} s) failed: {type(exc).__name__}: {exc}")
        self.step, self.t, self.state = step, t, np.array(state)


def u_from_tau(tau1: float, tau2: float, p: Params) -> tuple[float, float]:
    """Generalized forces (u1, u2) conjugate to the rolling and yaw directions.

    u1 = tau1 + tau2 and u2 = (d / 2r)(tau2 - tau1).  These are the forcings
    that enter the momentum equations additively.  They pair the wheel
    torques with the symmetry generators: the rolling generator turns both
    wheels by one radian, and a unit turn of the yaw generator turns the
    wheels by -d/(2r) and +d/(2r).  The power identity
    u1 phi_dot + u2 theta_dot = tau1 phi1_dot + tau2 phi2_dot checks them.
    """
    return tau1 + tau2, p.d / (2.0 * p.r) * (tau2 - tau1)


def tau_from_u(u1: float, u2: float, p: Params) -> tuple[float, float]:
    """Wheel torques producing the generalized forces (u1, u2)."""
    delta = 2.0 * p.r / p.d * u2
    return 0.5 * (u1 - delta), 0.5 * (u1 + delta)


@dataclass(frozen=True)
class TorqueProfile:
    """Piecewise-constant wheel torques.

    segments: ordered (t_start, tau1, tau2) triples with strictly increasing
    start times.  Torque lookup is left-closed: the segment starting at
    t_start applies on [t_start, t_next); before the first start time the
    torque is zero.  ``simulate`` calls tau_at once per segment it enters.
    """

    segments: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        segs = tuple((float(t), float(a), float(b)) for t, a, b in self.segments)
        object.__setattr__(self, "segments", segs)
        prev = -math.inf
        for t, a, b in segs:
            if not (math.isfinite(t) and math.isfinite(a) and math.isfinite(b)):
                raise ValueError("torque segments must be finite")
            if t <= prev:
                raise ValueError("segment start times must be strictly increasing")
            prev = t
        object.__setattr__(self, "_starts", tuple(t for t, _, _ in segs))

    @classmethod
    def zero(cls) -> "TorqueProfile":
        return cls(())

    @classmethod
    def constant(cls, tau1: float, tau2: float, t_start: float = 0.0) -> "TorqueProfile":
        return cls(((t_start, tau1, tau2),))

    def tau_at(self, t: float) -> tuple[float, float]:
        k = bisect.bisect_right(self._starts, t)
        if k == 0:
            return 0.0, 0.0
        _, tau1, tau2 = self.segments[k - 1]
        return tau1, tau2


# The RK4 stages for a state of n components.  Each <...> expands to its
# term for i = 0 .. n-1, comma-separated; [] = y unpacks an empty state.
_RK4_STAGES = """
def stages(f, y, t, dt):
    [<y{i}>] = y
    half = 0.5 * dt
    t_half = t + half
    [<k1_{i}>] = f(t, y)
    [<k2_{i}>] = f(t_half, [<y{i} + half * k1_{i}>])
    [<k3_{i}>] = f(t_half, [<y{i} + half * k2_{i}>])
    [<k4_{i}>] = f(t + dt, [<y{i} + dt * k3_{i}>])
    w = dt / 6.0
    return [<y{i} + w * (((k1_{i} + 2.0 * k2_{i}) + 2.0 * k3_{i}) + k4_{i})>]
"""
_STAGE = re.compile(r" +\[<(.+)>\] = f\((.+?), (?:y|\[<(.+)>\])\)")


@functools.cache
def _rk4_stages(n: int, body: str | None = None, forces: str | None = None):
    """stages(f, y, t, dt) for n components, compiled once per template and n:
    f is a rhs f(t, y), or, given a model's rhs body, each stage line
    [<k{i}>] = f(T, Y) becomes the forces line at t = T if T is new, then the
    body with y[j] read as Y's component j and its result bound to k."""
    def terms(template):
        return ", ".join(template.format(i=i) for i in range(n))

    lines, when = [], None
    for line in _RK4_STAGES.splitlines():
        stage = _STAGE.fullmatch(line) if body else None
        if stage is None:
            lines.append(re.sub(r"<(.*?)>", lambda m: terms(m[1]), line))
            continue
        slopes, t, state = stage[1], stage[2], stage[3] or "y{i}"
        if t != when:
            lines.append("    " + forces.format(t=t))
            when = t
        inlined = re.sub(r"\by\[(\d+)\]", lambda m: f"({state.format(i=int(m[1]))})", body)
        lines.append(inlined.replace("return ", f"{terms(slopes)} = "))
    return FunctionType(_code("\n".join(lines)), {})


def rk4_step(stages, f, y, t: float, dt: float) -> list[float]:
    """One classical fourth-order Runge-Kutta step on a sequence of floats.

    stages(f, y, t, dt) is generated by ``_rk4_stages``: generic, calling a rhs
    f(t, y) that maps a list of floats to dy/dt, or a model's fused step,
    taking the run's force lookup (``_force_lookup``) as f.  The new state is
    a list, combined per element as y + (dt/6)(((k1 + 2 k2) + 2 k3) + k4),
    the array formula's order.  Raises ValueError unless dt > 0, if the rhs
    returns a sequence of another length, or if the new state is not finite
    (an overflowing stage may raise first, in the rhs's ``math`` calls)."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    out = stages(f, y, t, dt)
    if not all(map(math.isfinite, out)):
        raise ValueError("non-finite state in RK4 step")
    return out


def n_samples(T: float, dt: float) -> int:
    """Samples on the uniform grid: floor(T/dt) + 1 (tolerant of rounding).

    The one check of a time grid.  Raises ValueError unless
    * dt is finite and > 0,
    * T is finite and >= 0,
    * the step count T/dt is at most 2**53, the largest count whose step
      indices k are all exact floats in t = k dt.  numpy can size every
      trajectory array up to it; a count that exceeds memory still raises
      MemoryError.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"T must be non-negative and finite, got {T!r}")
    steps = T / dt + 1e-9
    if not steps <= 2.0 ** 53:
        raise ValueError(f"T/dt = {T!r}/{dt!r} exceeds 2**53 steps")
    return int(math.floor(steps)) + 1


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled run of one model plus per-sample diagnostics.

    states holds the raw integrator state (rows = samples); the layout
    depends on the model:

    * full:    (x, y, theta, alpha, phi1, phi2, alpha_dot, phi1_dot, phi2_dot)
    * reduced: (x, y, theta, phi, alpha, alpha_dot, p1, p2)
    * oracle:  (x, y, theta, alpha, phi1, phi2) + the six velocities

    Diagnostics: total energy, nonholonomic momenta and the three rolling
    constraint residuals at every sample.
    """

    model: str
    t: np.ndarray
    states: np.ndarray
    energy: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    residuals: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0]) if len(self.t) > 1 else 0.0

    def __len__(self) -> int:
        return len(self.t)

    def reduced_series(self) -> np.ndarray:
        """Shared observables (x, y, theta, phi, alpha, alpha_dot, p1, p2), (N, 8)."""
        Y = self.states
        if self.model == "reduced":
            return Y.copy()
        cols = [Y[:, 0], Y[:, 1], Y[:, 2], 0.5 * (Y[:, 4] + Y[:, 5]), Y[:, 3]]
        cols.append(Y[:, 6] if self.model == "full" else Y[:, 9])
        return np.stack(cols + [self.p1, self.p2], axis=1)


REDUCED_VARIABLES = ("x", "y", "theta", "phi", "alpha", "alpha_dot", "p1", "p2")


def _force_lookup(profile: TorqueProfile, p: Params, to_forces=None):
    """f(t) = profile.tau_at(t), or to_forces(*profile.tau_at(t), p), for any t
    in any order.  It keeps the last segment's bounds [start_k, start_k+1)
    and its forces, so it calls tau_at and to_forces once per segment entered.
    Built per run and never stored on the shared profile."""
    bounds = (-math.inf, *profile._starts, math.inf)
    lo = hi = 0.0  # [0, 0) holds no t: the first call looks up
    forces = None

    def f(t):
        nonlocal lo, hi, forces
        if lo <= t < hi:
            return forces
        forces = profile.tau_at(t)
        if to_forces is not None:
            forces = to_forces(*forces, p)
        k = bisect.bisect_right(profile._starts, t)
        lo, hi = bounds[k], bounds[k + 1]
        return forces

    return f


def _oracle_ode(forces, p: Params):
    def rhs(t, y):
        a = np.array([*y, 0.0, 0.0, 0.0, 0.0, *forces(t)])  # q, q_dot, generalized forces
        qdd = _oracle.lagrange_dalembert_rhs(a[:6], a[6:12], a[12:], p, check_constraints=False)
        return [*y[6:], *qdd.tolist()]

    return rhs


# How each fused step reads its generalized forces at time {t} from the run's
# force lookup f, and the map from torques to those forces (None: the torques).
_FORCES = {"full": (dfull, "tau1, tau2 = f({t})", None),
           "reduced": (dred, "u1, u2 = f({t})", u_from_tau)}


def _stepper(model: str, profile: TorqueProfile, p: Params, n: int):
    """(stages, f) for rk4_step: the oracle's rhs, or the model's fused step
    with the run's force lookup."""
    if model == "oracle":
        return _rk4_stages(n), _oracle_ode(_force_lookup(profile, p), p)
    module, forces, to_forces = _FORCES[model]
    stages = FunctionType(_rk4_stages(n, module._BODY, forces).__code__,
                          module._kernel(p).__globals__)
    return stages, _force_lookup(profile, p, to_forces)


def _initial_vector(model: str, initial, p: Params) -> np.ndarray:
    if model == "reduced":
        if not isinstance(initial, ReducedState):
            raise TypeError("reduced model requires a ReducedState initial condition")
        s = initial
        return np.array([s.x, s.y, s.theta, s.phi, s.alpha, s.alpha_dot, s.p1, s.p2])
    if not isinstance(initial, FullState):
        raise TypeError(f"{model} model requires a FullState initial condition")
    s = initial
    res = float(np.max(rolling_residuals(s.q, s.q_dot, p)))
    if res > 1e-9:
        raise ValueError(f"initial state violates the rolling constraints by {res:.3e}")
    # the full model integrates only the wheel and tilt rates
    return np.concatenate([s.q, s.q_dot[3:] if model == "full" else s.q_dot])


def _diagnostics(model: str, Y: np.ndarray, p: Params):
    if model == "reduced":
        energy = reduced_energy((Y[:, 4], Y[:, 5], Y[:, 6], Y[:, 7]), p)
        return energy, Y[:, 6].copy(), Y[:, 7].copy(), np.zeros((len(Y), 3))
    q = Y[:, :6]
    if model == "full":
        f1d, f2d = Y[:, 7], Y[:, 8]
        qd = np.stack([*rolling_rates(Y[:, 2], f1d, f2d, p), Y[:, 6], f1d, f2d], axis=1)
        res = np.zeros((len(Y), 3))
    else:
        qd = Y[:, 6:]
        res = rolling_residuals(q, qd, p)
    p1, p2 = dfull.momenta(q[:, 3], qd[:, 3], qd[:, 4], qd[:, 5], p)
    return total_energy((q, qd), p), p1, p2, res


def simulate(model: str, initial, profile: TorqueProfile,
             T: float, dt: float, p: Params) -> Trajectory:
    """Integrate the chosen model and return its diagnosed trajectory.

    The initial state must satisfy the rolling constraints for the full and
    oracle models; T and dt must pass :func:`n_samples` (T = 0 gives a
    single-sample trajectory).  RHS failures are re-raised as
    SimulationError with the failing step, its timestamp and the last finite
    state.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    steps = n_samples(T, dt) - 1
    y = _initial_vector(model, initial, p).tolist()
    Y = np.empty((steps + 1, len(y)))
    Y[0] = y
    stages, f = _stepper(model, profile, p, len(y))
    t = 0.0
    # overflow in a diverging run is detected and raised; silence the warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            try:
                y = rk4_step(stages, f, y, t, dt)
            except Exception as exc:
                raise SimulationError(exc, k, t, y) from exc
            t = (k + 1) * dt
            Y[k + 1] = y
    energy, p1, p2, res = _diagnostics(model, Y, p)
    return Trajectory(model=model, t=np.arange(steps + 1) * dt, states=Y,
                      energy=np.asarray(energy, float), p1=np.asarray(p1, float),
                      p2=np.asarray(p2, float), residuals=res)
