"""Cross-model comparison and structural checks.

Every check is a plain library predicate so the test suite and the CLI share
one implementation.  Model comparison happens in the shared observable set
(x, y, theta, phi, alpha, alpha_dot, p1, p2); wheel angles are compared only
through the mean angle and the integrated yaw relation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .connection import curvature_at, curvature_fd
from . import dynamics_full as dfull
from . import dynamics_reduced as dred
from . import model as _model
from .model import (LAYOUTS, FullState, Params, _lift, _on_columns, lagrangian_full,
                    rolling_rates, total_energy)
from .oracle import CS_STEP
from .sim import (_BLOCK, _FUSED, REDUCED_VARIABLES, Trajectory, TorqueProfile, simulate,
                  u_from_tau)

__all__ = [
    "momentum_pairing",
    "ErrorStats",
    "compare_trajectories",
    "energy_drift",
    "momentum_rate_error",
    "power_balance_error",
    "holonomic_residual",
    "equivariance_error",
    "CheckResult",
    "run_structural_checks",
    "render_check_lines",
]


def momentum_pairing(q, q_dot, p: Params) -> tuple:
    """Numeric momenta (p1, p2) = <dL/dq_dot, X_i> of ``lagrangian_full`` at q
    and q_dot, arrays whose last axis holds the six coordinates or their
    rates; broadcasts over leading axes, one pair per state.

    X_i is the horizontal lift (``model._lift``) at q's heading of the shape
    rates (alpha_dot, phi1_dot, phi2_dot) of ``model._generators``.  L is
    quadratic in q_dot, so (L(q, q_dot + X_i) - L(q, q_dot - X_i))/2 is the
    pairing exactly, up to round-off: one ``lagrangian_full`` call.
    """
    q, q_dot = np.asarray(q), np.asarray(q_dot)
    xi = np.stack([_lift(dict(zip(("alpha_dot", "phi1_dot", "phi2_dot"), g), theta=q[..., 2]), p)
                   for g in _model._generators(p)], axis=-2)
    plus, minus = lagrangian_full(q[..., None, :], q_dot[..., None, :] + np.stack([xi, -xi]), p)
    return tuple(np.moveaxis(0.5 * (plus - minus), -1, 0))


@dataclass(frozen=True)
class ErrorStats:
    max_abs: float
    rms: float


def compare_trajectories(a: Trajectory, b: Trajectory) -> dict[str, ErrorStats]:
    """Per-variable max-abs and RMS error between two runs on the same grid."""
    if len(a) != len(b) or not np.allclose(a.t, b.t, rtol=0.0, atol=1e-12):
        raise ValueError("trajectories are on different time grids")
    out = {}
    for name, diff in zip(REDUCED_VARIABLES, (a.shared - b.shared).T):
        out[name] = ErrorStats(float(np.max(np.abs(diff))),
                               float(np.sqrt(np.mean(diff * diff))))
    return out


def energy_drift(traj: Trajectory) -> tuple[float, float]:
    """(max |E(t) - E(0)|, same relative to |E(0)|) for a zero-torque run."""
    drift = float(np.max(np.abs(traj.energy - traj.energy[0])))
    return drift, drift / abs(float(traj.energy[0]))


def _torque_rows(profile: TorqueProfile, t: np.ndarray) -> np.ndarray:
    """The row (tau1, tau2) of the torque table ``_torques`` at each time t, as ``tau_at``'s."""
    return np.array(profile._torques)[np.searchsorted(profile._starts, t, side="right")]


def _power(traj: Trajectory, tau1, tau2, rows=slice(None)) -> np.ndarray:
    """The wheel torques' power tau1 phi1_dot + tau2 phi2_dot at the samples in rows."""
    return tau1 * traj.column("phi1_dot")[rows] + tau2 * traj.column("phi2_dot")[rows]


def _complex_step(traj: Trajectory, profile: TorqueProfile, p: Params):
    """Yield (rows, v, tau) per block of ``sim._BLOCK`` samples: v their full-layout values
    moved by 1j ``CS_STEP`` times the full model's rates at them, as named complex columns,
    and tau the (tau1, tau2) columns of their rows of the torque table (:func:`_torque_rows`).
    The imaginary part of any function of v over ``CS_STEP`` is its time derivative along
    the vector field, exact up to rounding at every sample.  numpy rounds complex products
    past 8192 elements in chunks, so blocks keep a sample's value independent of the run's
    length.  Raises ValueError for a run that does not integrate the wheel angles."""
    rhs = _on_columns(dfull._kernel(p))
    for rows in (slice(i, i + _BLOCK) for i in range(0, len(traj), _BLOCK)):
        tau = _torque_rows(profile, traj.t[rows]).T
        y = [traj.column(n)[rows] for n in LAYOUTS["full"]]
        rates = rhs(y, *tau)
        yield rows, {n: a + 1j * CS_STEP * b for n, a, b in zip(LAYOUTS["full"], y, rates)}, tau


def momentum_rate_error(traj: Trajectory, profile: TorqueProfile, p: Params) -> float:
    """Max |d/dt s - reduced rate| / max(1, |reduced rate|) over the eight shared
    values s at every sample: ``dynamics_reduced._to_reduced`` of the samples moved
    along the full vector field (:func:`_complex_step`), against the reduced rhs body
    on the shared columns (``model._on_columns``) under ``u_from_tau`` of the same
    torque rows.  Raises ValueError for a run that does not integrate the wheel angles."""
    rhs, worst = _on_columns(dred._kernel(p)), []
    for rows, v, tau in _complex_step(traj, profile, p):
        red = dred._to_reduced(v, p)
        pushed = np.stack([np.imag(red[n]) for n in REDUCED_VARIABLES]) / CS_STEP
        rates = np.array(rhs(traj.shared[rows].T, *u_from_tau(*tau, p)))
        worst.append(np.max(np.abs(pushed - rates) / np.maximum(1.0, np.abs(rates))))
    return float(np.max(worst))  # a nan in any block stays nan


def _power_residuals(traj: Trajectory, profile: TorqueProfile, p: Params) -> np.ndarray:
    """dE/dt - (tau1 phi1_dot + tau2 phi2_dot) at every sample, with dE/dt of
    ``total_energy`` by one complex step (:func:`_complex_step`), q_dot by ``model._lift``."""
    out = np.empty(len(traj))
    for rows, v, tau in _complex_step(traj, profile, p):
        q = np.stack([v[n] for n in LAYOUTS["oracle"][:6]], axis=1)
        rate = np.imag(total_energy((q, _lift(v, p)), p)) / CS_STEP
        out[rows] = rate - _power(traj, *tau, rows)
    return out


def power_balance_error(traj: Trajectory, profile: TorqueProfile, p: Params) -> float:
    """Max |:func:`_power_residuals`| / max(1, |tau1 phi1_dot + tau2 phi2_dot|) over every
    sample.  Raises ValueError for a run that does not integrate the wheel angles."""
    power = np.max(np.abs(_power(traj, *_torque_rows(profile, traj.t).T)))
    return float(np.max(np.abs(_power_residuals(traj, profile, p))) / max(1.0, power))


def holonomic_residual(traj: Trajectory, p: Params) -> float:
    """Max |theta(t) - theta(0) - (r/d) [(phi2 - phi2(0)) - (phi1 - phi1(0))]|.

    Raises ValueError for a run that does not integrate the wheel angles.
    """
    th, phi1, phi2 = map(traj.column, ("theta", "phi1", "phi2"))
    yaw = rolling_rates(0.0, phi1 - phi1[0], phi2 - phi2[0], p)[2]  # the integrated yaw row
    return float(np.max(np.abs(th - th[0] - yaw)))


def _shift(v: dict, gx, gy, gth, gphi) -> dict:
    """Left action of (gx, gy, gth, gphi) in SE(2) x S1 on a state's named
    values in a model's layout, floats or columns: the planar position
    rotates by gth and translates by (gx, gy), the heading shifts by gth and
    every wheel angle (phi, phi1, phi2) by gphi.  Other values stay."""
    c, si = math.cos(gth), math.sin(gth)
    out = dict(v)
    out["x"], out["y"] = c * v["x"] - si * v["y"] + gx, si * v["x"] + c * v["y"] + gy
    out["theta"] = v["theta"] + gth
    for name in v.keys() & {"phi", "phi1", "phi2"}:
        out[name] = v[name] + gphi
    return out


def equivariance_error(model: str, v: dict, tau, p: Params, shifts) -> float:
    """Max |rates at g v - g_*(rates at v)| over the states v, named columns in
    the model's layout, and the shifts g (:func:`_shift`): its rhs body on
    columns (``model._on_columns``) under torques tau, with g_* rotating
    (x_dot, y_dot) by g's angle.  RK4 commutes with the affine group action, so
    a run is equivariant to rounding wherever its rhs is.  Raises KeyError for the oracle."""
    module, forces = _FUSED[model]
    rhs, u = _on_columns(module._kernel(p)), forces(*tau, p)
    xd, yd, *rest = rhs([v[n] for n in LAYOUTS[model]], *u)
    worst = 0.0
    for g in shifts:
        moved = _shift(v, *g)
        c, si = math.cos(g[2]), math.sin(g[2])
        error = np.subtract(rhs([moved[n] for n in LAYOUTS[model]], *u),
                            (c * xd - si * yd, si * xd + c * yd, *rest))
        worst = max(worst, float(np.max(np.abs(error))))
    return worst


# ---------------------------------------------------------------------------
# structural suite (shared by cmd_check and the tests)


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.value <= self.bound


# Half-widths of the uniform draws of a random constrained state, in the
# order of ``LAYOUTS["full"]``: x, y, theta, alpha, phi1, phi2 and the rates.
_STATE_SPREAD = (1.0, 1.0, math.pi, 1.0, 2.0, 2.0, 1.0, 1.0, 1.0)


def run_structural_checks(p: Params, seed: int = 0) -> list[CheckResult]:
    """Fast structural suite: curvature (closed form, tilt slots), momentum
    pairing, equivariance, zero-torque energy drift and its order (RK4's 4 on
    a step-halving pair) and, on one forced run, the full vector field vs the
    reduced model, power balance, integrated power and yaw relation.

    Every line evaluates its formula once over all its states or samples, as
    numpy columns: the curvature over 50 headings, the pairing and the
    equivariance over 50 random constrained states, and the rate lines over
    the forced run's 501 samples.  Only three simulate runs step in time, 2,000
    steps: the drift runs (1 s at dt = 2e-3, 1e-3) and the forced run (0.5 s at 1e-3).

    The random inputs are uniform draws of ``random.Random(seed)``, in this
    order: 50 headings in [-pi, pi], one heading for the tilt slots, 50
    constrained states (``_STATE_SPREAD``, state after state) and 5 group
    shifts (gx, gy, gth, gphi) in [-2, 2].  The standard library's generator
    keeps ``numpy.random`` out of the process.
    """
    rng = random.Random(seed)
    results = []

    headings = np.array([rng.uniform(-math.pi, math.pi) for _ in range(50)])
    B, Bfd = curvature_at(headings, p), curvature_fd(headings, p)
    worst = np.max(np.max(np.abs(B - Bfd), axis=(1, 2, 3)) / np.max(np.abs(B), axis=(1, 2, 3)))
    results.append(CheckResult("curvature closed form vs defining formula", float(worst), 1e-13))
    B = curvature_at(rng.uniform(-math.pi, math.pi), p)
    worst = float(max(np.max(np.abs(B[:, 0, :])), np.max(np.abs(B[:, :, 0]))))
    results.append(CheckResult("curvature tilt slots exactly zero", worst, 0.0))

    draws = np.array([[rng.uniform(-s, s) for s in _STATE_SPREAD] for _ in range(50)])
    states = dict(zip(LAYOUTS["full"], draws.T))
    red = dred._to_reduced(states, p)
    p1, p2 = momentum_pairing(draws[:, :6], _lift(states, p), p)
    worst = max(np.max(np.abs(p1 - red["p1"])), np.max(np.abs(p2 - red["p2"])))
    results.append(CheckResult("momentum pairing vs closed form", float(worst), 1e-12))

    tau = (0.05, -0.02)
    shifts = [tuple(rng.uniform(-2.0, 2.0) for _ in range(4)) for _ in range(5)]
    err = max(equivariance_error(name, v, tau, p, shifts)
              for name, v in (("full", states), ("reduced", red)))
    results.append(CheckResult("SE(2) x S1 equivariance (full and reduced)", err, 1e-14))

    rest = FullState.constrained(0.0, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, p)
    coarse, fine = (energy_drift(simulate("full", rest, TorqueProfile.zero(), 1.0, dt, p))[1]
                    for dt in (2e-3, 1e-3))
    order = math.log2(coarse / fine) if coarse and fine else math.nan  # nan fails both lines
    results.append(CheckResult("energy drift (zero torque, extrapolated to dt = 1e-4)",
                               fine * 10.0 ** -order, 1e-8))
    results.append(CheckResult("energy drift order short of 4 (zero torque)", 4.0 - order, 0.5))

    initial = FullState.constrained(0.0, 0.0, 0.3, 0.12, 0.0, 0.0, 0.1, 0.8, 1.1, p)
    profile = TorqueProfile.constant(*tau)
    forced = simulate("full", initial, profile, 0.5, 1e-3, p)
    results.append(CheckResult("full vector field vs reduced model (8 shared rates)",
                               momentum_rate_error(forced, profile, p), 2e-11))
    results.append(CheckResult("power balance (forced)",
                               power_balance_error(forced, profile, p), 1e-9))
    # |E(T) - E(0) - W| / |W|, W the work by Simpson's rule over 500 steps of
    # 1e-3: unlike the rate lines, it fails a run integrated under other torques
    power = _power(forced, *_torque_rows(profile, forced.t).T)
    work = (power[0] + 4.0 * power[1::2].sum() + 2.0 * power[2:-1:2].sum() + power[-1]) * 1e-3 / 3
    error = abs(forced.energy[-1] - forced.energy[0] - work) / abs(work)
    results.append(CheckResult("integrated power (forced)", float(error), 1e-3))
    results.append(CheckResult("integrated yaw relation",
                               holonomic_residual(forced, p), 3e-13))
    return results


def render_check_lines(results: list[CheckResult]) -> list[str]:
    """One machine-readable pass/fail line per check."""
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name}: value={r.value:.3e} bound={r.bound:.3e}")
    return lines
