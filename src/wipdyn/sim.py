"""Time integration of the three models under a torque profile.

Fixed-step classical Runge-Kutta only: cross-model comparisons then live on
identical grids and every run is bit-for-bit deterministic.  The reduced
model integrates its group coordinates as ordinary ODE components (no exact
exponential update); the O(dt^4) error that costs is covered by the
comparison tolerances.

RK4 runs on Python floats: on 8 or 9 components, lists cost a fraction of numpy
arrays.  ``rk4_step`` runs straight-line stages generated from one template per
state length.  The oracle's stages call its rhs; the full and reduced models'
fused steps inline the text their kernel compiles (``_BODY``) on its constants,
one assignment per name (``_single``), and make no rhs calls and no tuples.
Each step runs on the forces of the torque segment that holds its start time,
mapped from ``TorqueProfile.tau_at`` once per segment entered, and splits at a
start inside it, so piecewise runs keep RK4's order.  Only the sampled
trajectory is an array, each row packed in place by ``struct``; the oracle
converts at its boundary.  The diagnostics read it by name in blocks of rows
and map it once to the shared observables, ``Trajectory.shared``.

simulate() is pure per call.  Independent scenarios may be run concurrently
map-style; outputs are deterministic per scenario and no state is shared.
"""

from __future__ import annotations

import ast
import bisect
import functools
import math
import re
import struct
import textwrap
from dataclasses import dataclass
from types import FunctionType

import numpy as np

from . import dynamics_full as dfull
from . import dynamics_reduced as dred
from . import model as _model
from . import oracle as _oracle
from .model import (LAYOUTS, FullState, Params, ReducedState, _code, _finite,
                    reduced_energy, rolling_residuals, total_energy)

__all__ = [
    "SimulationError",
    "TorqueProfile",
    "Trajectory",
    "u_from_tau",
    "rk4_step",
    "simulate",
    "n_samples",
]

MODELS = tuple(LAYOUTS)  # ("full", "reduced", "oracle")


class SimulationError(RuntimeError):
    """Integration failure in one output step: its index in .step, its start
    time in .t and its start state, the last sample, in .state."""

    def __init__(self, exc: Exception, step: int, t: float, state):
        super().__init__(f"step {step} (t = {t:.6g} s) failed: {type(exc).__name__}: {exc}")
        self.step, self.t, self.state = step, t, np.array(state)


def u_from_tau(tau1: float, tau2: float, p: Params) -> tuple[float, float]:
    """Generalized forces (u1, u2) conjugate to the rolling and yaw directions.

    u1 = tau1 + tau2 and u2 = (d / 2r)(tau2 - tau1).  These are the forcings
    that enter the momentum equations additively: the wheel torques paired
    with the symmetry generators of ``model._generators``.  The power identity
    u1 phi_dot + u2 theta_dot = tau1 phi1_dot + tau2 phi2_dot checks them.
    """
    half = _model._generators(p)[1][2]
    return tau1 + tau2, half * (tau2 - tau1)


@dataclass(frozen=True)
class TorqueProfile:
    """Piecewise-constant wheel torques.

    segments: ordered (t_start, tau1, tau2) triples of finite numbers with
    strictly increasing start times; a ValueError names a bad segment or value.
    Torque lookup is left-closed: the segment starting at t_start applies on
    [t_start, t_next); before the first start time the torque is zero.
    _torques is the one table of the torques: row k holds (tau1, tau2) after
    k start times, so row 0 is the zero torque before the first.
    """

    segments: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        segs, names = [], ("t_start", "tau1", "tau2")
        for i, seg in enumerate(self.segments):
            try:
                t, a, b = seg
            except (TypeError, ValueError):
                raise ValueError(f"segment {i} must be a (t_start, tau1, tau2) triple, "
                                 f"got {seg!r}") from None
            segs.append(tuple(_finite(v, f"segment {i} {n}") for n, v in zip(names, (t, a, b))))
        starts = tuple(t for t, _, _ in segs)
        if any(t0 >= t1 for t0, t1 in zip(starts, starts[1:])):
            raise ValueError("segment start times must be strictly increasing")
        object.__setattr__(self, "segments", tuple(segs))
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_torques", ((0.0, 0.0), *((a, b) for _, a, b in segs)))

    @classmethod
    def zero(cls) -> "TorqueProfile":
        return cls(())

    @classmethod
    def constant(cls, tau1: float, tau2: float) -> "TorqueProfile":
        return cls(((0.0, tau1, tau2),))

    def tau_at(self, t: float) -> tuple[float, float]:
        return self._torques[bisect.bisect_right(self._starts, t)]


# The RK4 stages for a state of n components.  Each <...> expands to its
# term for i = 0 .. n-1, comma-separated; [] = y unpacks an empty state.
_RK4_STAGES = """
def stages(f, y, t, dt):
    [<y{i}>] = y
    half = 0.5 * dt
    [<k1_{i}>] = f(t, y)
    [<k2_{i}>] = f(t + half, [<y{i} + half * k1_{i}>])
    [<k3_{i}>] = f(t + half, [<y{i} + half * k2_{i}>])
    [<k4_{i}>] = f(t + dt, [<y{i} + dt * k3_{i}>])
    w = dt / 6.0
    return [<y{i} + w * (((k1_{i} + 2.0 * k2_{i}) + 2.0 * k3_{i}) + k4_{i})>]
"""
_STAGE = re.compile(r" +\[<(.+)>\] = f\(.+?, (?:y|\[<(.+)>\])\)")


def _rk4_stages(n: int, body: str | None = None, ode=None):
    """stages(f, y, t, dt) for n components from ``_RK4_STAGES`` as it stands:
    f is a rhs f(t, y), or, given a model's rhs body and its kernel's code ode,
    the forces, unpacked to ode's arguments after y, and each stage line
    [<k{i}>] = f(T, Y) is ``_single``(body) with y[j] read as Y's component j, bound to k."""
    return _stages(_RK4_STAGES, n, body, ode)


@functools.cache
def _stages(text: str, n: int, body: str | None, ode):
    """:func:`_rk4_stages` from the template text, compiled once per argument set."""
    def terms(template):
        return ", ".join(template.format(i=i) for i in range(n))

    lines = []
    for line in text.splitlines():
        stage = _STAGE.fullmatch(line) if body else None
        if stage is None:
            lines.append(re.sub(r"<(.*?)>", lambda m: terms(m[1]), line))
            continue
        if ode:
            lines.append(f"    {', '.join(ode.co_varnames[1:ode.co_argcount])} = f")
            ode = None
        slopes, state = stage[1], stage[2] or "y{i}"
        inlined = re.sub(r"\by\[(\d+)\]|\breturn\[(\d+)\]", lambda m: slopes.format(i=int(m[2]))
                         if m[2] else f"({state.format(i=int(m[1]))})", _single(body))
        lines.append(inlined.replace("return ", f"{terms(slopes)} = "))
    return FunctionType(_code("\n".join(lines)), {})


def _elements(node) -> list:
    """The elements of a tuple display with none starred, else []."""
    starred = any(isinstance(e, ast.Starred) for e in getattr(node, "elts", ()))
    return node.elts if isinstance(node, ast.Tuple) and not starred else []


@functools.cache
def _single(body: str) -> str:
    """body with one assignment per name, from its own ast, so its stages build
    and unpack no tuples: a tuple assignment of names splits into one line per
    target unless its right side reads one of them, and a returned tuple into
    lines return[i] = <element i>.  Any other statement is kept whole."""
    lines = []
    for node in ast.parse(textwrap.dedent(body)).body:
        pairs = []
        if isinstance(node, ast.Return):
            pairs = [(f"return[{i}]", e) for i, e in enumerate(_elements(node.value))]
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            targets, values = _elements(node.targets[0]), _elements(node.value)
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            read = {r.id for r in ast.walk(node.value) if isinstance(r, ast.Name)}
            if len(names) == len(targets) == len(values) and read.isdisjoint(names):
                pairs = list(zip(names, values))
        lines += [f"{t} = {ast.unparse(e)}" for t, e in pairs] or ast.unparse(node).splitlines()
    return "\n".join("    " + line for line in lines)


def rk4_step(stages, f, y, t: float, dt: float) -> list[float]:
    """One classical fourth-order Runge-Kutta step on a sequence of floats, by
    stages(f, y, t, dt) of ``_rk4_stages`` (f a rhs f(t, y), or a fused step's
    forces).  The new state is a list, combined per element as y + (dt/6)(((k1
    + 2 k2) + 2 k3) + k4), the array formula's order.  Raises ValueError unless
    dt > 0, if the rhs returns a sequence of another length, or if the new state
    is not finite (an overflowing stage may raise first, in its ``math`` calls)."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    out = stages(f, y, t, dt)
    if not (math.isfinite(sum(out)) or all(map(math.isfinite, out))):
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
    steps = T / dt
    if not steps <= 2.0 ** 53:
        raise ValueError(f"T/dt = {T!r}/{dt!r} exceeds 2**53 steps")
    # T/dt may round a few ulps below the whole count T holds: take that count if it
    # is within max(1e-9, 4 ulps), as _entries snaps a start, and under half a step
    whole = math.ceil(steps)
    gap = whole - steps
    return whole + 1 if gap <= max(1e-9, 4.0 * math.ulp(steps)) and gap < 0.5 else whole


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled run of one model plus per-sample diagnostics.

    states holds the raw integrator state (rows = samples) in the model's
    layout, ``model.LAYOUTS[model]``.  shared holds the observables
    ``REDUCED_VARIABLES`` that every cross-model check compares, (N, 8): each
    sample's ``full_to_reduced``, or states itself for the reduced model.
    :meth:`column` reads either by name.

    Diagnostics: total energy and the three rolling constraint residuals at
    every sample, (N, 3); the full and reduced runs' residuals are zero.
    Every array is read-only.
    """

    model: str
    t: np.ndarray
    states: np.ndarray
    shared: np.ndarray
    energy: np.ndarray
    residuals: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def column(self, name: str) -> np.ndarray:
        """The samples of one variable, a read-only view: of states if the
        model integrates it, else of shared if it is a shared observable.
        Raises ValueError for any other name."""
        for names, table in ((LAYOUTS[self.model], self.states),
                             (REDUCED_VARIABLES, self.shared)):
            if name in names:
                return table[:, names.index(name)]
        raise ValueError(f"a {self.model} trajectory has no column {name!r}")


REDUCED_VARIABLES = LAYOUTS["reduced"]


def _entries(profile: TorqueProfile, dt: float, steps: int):
    """Yield (k, t, start) for each torque segment that steps RK4 steps of dt
    enter, in order: start is the segment's own start time (-inf before the
    first), and the segment holds from t, the start of step k (t = k dt, onto
    which a start within 4 ulps snaps: k/50 is 20k dt at dt = 1e-3) or a time
    inside step k, which splits there."""
    last = (0, 0.0, -math.inf)
    for start in profile._starts[:bisect.bisect_right(profile._starts, steps * dt)]:
        k = round(max(start, 0.0) / dt)
        t = k * dt
        if start > 0.0 and abs(start - t) > 4.0 * math.ulp(start):
            k, t = math.floor(start / dt), start
        if last[:2] != (k, t):  # of two starts on one grid time, the later holds
            yield last
        last = (k, t, start)
    yield last


def _oracle_ode(tau1: float, tau2: float, p: Params):
    """rhs(t, y) of the oracle under constant wheel torques (read-only forces)."""
    forces = np.array([0.0, 0.0, 0.0, 0.0, tau1, tau2])
    forces.setflags(write=False)
    def rhs(t, y):
        a = np.array(y)  # q, q_dot
        qdd = _oracle.lagrange_dalembert_rhs(a[:6], a[6:], forces, p, check_constraints=False)
        return [*y[6:], *qdd.tolist()]

    return rhs


# Each fused model's module, whose _BODY and kernel the step inlines and binds,
# and the map from torques to its f, the forces its kernel's ode header names.
_FUSED = {"full": (dfull, lambda tau1, tau2, p: (tau1, tau2)), "reduced": (dred, u_from_tau)}


def _stepper(model: str, p: Params, n: int):
    """(stages, forces) for rk4_step: forces(tau1, tau2, p) is the f of every step under
    those torques, the oracle's rhs or the fused step's forces, named as the kernel's."""
    if model == "oracle":
        return _rk4_stages(n), _oracle_ode
    module, forces = _FUSED[model]
    ode = module._kernel(p)
    return FunctionType(_rk4_stages(n, module._BODY, ode.__code__).__code__,
                        ode.__globals__), forces


def _initial_vector(model: str, initial, p: Params) -> list[float]:
    record = ReducedState if model == "reduced" else FullState
    if not isinstance(initial, record):
        raise TypeError(f"{model} model requires a {record.__name__} initial condition")
    if record is FullState:
        res = float(np.max(rolling_residuals(initial.q, initial.q_dot, p)))
        if res > 1e-9:
            raise ValueError(f"initial state violates the rolling constraints by {res:.3e}")
    return [getattr(initial, n) for n in LAYOUTS[model]]


_BLOCK = 1024  # rows per diagnostics block; 2048 raised a 3,001-row full run's peak 0.17 MB


def _diagnostics(model: str, Y: np.ndarray, p: Params):
    """(energy, shared series, residuals) of a run's states Y, read by name and
    written into preallocated outputs _BLOCK rows at a time, so the
    temporaries are one block's.  The full model derives its group rates by
    rolling and the reduced model has none, so their residuals are zero by
    construction: one read-only (N, 3) view of a zero row, not an array."""
    energy = np.empty(len(Y))
    shared = Y if model == "reduced" else np.empty((len(Y), len(REDUCED_VARIABLES)))
    res = np.broadcast_to(np.zeros(3), (len(Y), 3))
    if model == "oracle":
        res = np.empty(res.shape)
    for i in range(0, len(Y), _BLOCK):
        rows = slice(i, i + _BLOCK)
        v = dict(zip(LAYOUTS[model], Y[rows].T))
        if model == "reduced":
            energy[rows] = reduced_energy((v["alpha"], v["alpha_dot"], v["p1"], v["p2"]), p)
            continue
        q = Y[rows, :6]  # FullState.q opens both full layouts
        qd = _model._lift(v, p) if model == "full" else Y[rows, 6:]
        if model == "oracle":
            res[rows] = rolling_residuals(q, qd, p)
        energy[rows] = total_energy((q, qd), p)
        red = dred._to_reduced(v, p)
        np.stack([red[n] for n in REDUCED_VARIABLES], axis=1, out=shared[rows])
    return energy, shared, res


def simulate(model: str, initial, profile: TorqueProfile,
             T: float, dt: float, p: Params) -> Trajectory:
    """Integrate the chosen model and return its diagnosed trajectory.

    The initial state must satisfy the rolling constraints for the full and
    oracle models; T and dt must pass :func:`n_samples` (T = 0 gives a
    single-sample trajectory).  RHS failures are re-raised as SimulationError
    with the failing output step, its start time and its start sample.  A
    run's memory peak is the arrays it returns plus one block of diagnostics
    temporaries, however many samples it has.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    steps = n_samples(T, dt) - 1
    y = _initial_vector(model, initial, p)
    Y = np.empty((steps + 1, len(y)))
    Y[0] = y
    stages, forces = _stepper(model, p, len(y))
    # each new state's bytes straight into its row: half the time of Y[k + 1] = y
    store, row = struct.Struct(f"{len(y)}d").pack_into, Y.strides[0]
    entries = _entries(profile, dt, steps)
    ek, s, start = next(entries)
    # overflow in a diverging run is detected and raised; silence the warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            t, h = k * dt, dt
            try:
                while k == ek:  # a segment entered: a sub-step up to its start
                    if s > t:
                        y = rk4_step(stages, f, y, t, s - t)
                        t, h = s, (k + 1) * dt - s
                    f = forces(*profile.tau_at(start), p)
                    ek, s, start = next(entries, (None, 0.0, 0.0))
                y = rk4_step(stages, f, y, t, h)
            except Exception as exc:
                raise SimulationError(exc, k, k * dt, Y[k]) from exc
            store(Y, (k + 1) * row, *y)
    Y.setflags(write=False)
    energy, shared, res = _diagnostics(model, Y, p)
    t = np.arange(steps + 1, dtype=float)
    t *= dt  # in place: an int grid times dt held a second N-array
    for a in (t, shared, energy, res):
        a.setflags(write=False)
    return Trajectory(model=model, t=t, states=Y, shared=shared, energy=energy, residuals=res)
