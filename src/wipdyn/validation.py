"""Cross-model comparison and structural checks.

Every check is a plain library predicate so the test suite and the CLI share
one implementation.  Model comparison happens in the shared observable set
(x, y, theta, phi, alpha, alpha_dot, p1, p2); wheel angles are compared only
through the mean angle and the integrated yaw relation.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .connection import curvature_at, curvature_fd, ehresmann_at
from .dynamics_full import momenta_from_full
from . import dynamics_reduced as dred
from .model import FullState, Params, ReducedState, lagrangian_full
from .sim import (REDUCED_VARIABLES, Trajectory, TorqueProfile, _force_lookup,
                  simulate, u_from_tau)

__all__ = [
    "momentum_pairing",
    "ErrorStats",
    "compare_trajectories",
    "energy_drift",
    "momentum_rate_error",
    "power_balance_error",
    "holonomic_residual",
    "shift_full_state",
    "equivariance_error",
    "CheckResult",
    "run_structural_checks",
    "render_check_lines",
]


def momentum_pairing(state: FullState, i: int, p: Params) -> float:
    """Numeric momentum <dL/dq_dot, xi_i> of ``lagrangian_full``.

    The velocity gradient in all six coordinates is taken by central
    differences with steps h_k = max(1, |q_dot_k|); L is quadratic in q_dot,
    so these have no truncation error and large steps keep the round-off
    small.  xi_1 (rolling) and xi_2 (yaw) generate the SE(2) x S1 symmetry:
    the horizontal lifts (-A(theta) r_dot, r_dot) of the wheel rates
    r_dot = (0, 1, 1) and (0, -d/2r, d/2r) by the kinematic connection
    :func:`~wipdyn.connection.ehresmann_at`.
    """
    if i not in (1, 2):
        raise ValueError("section index must be 1 or 2")
    qd = state.q_dot
    hs = np.maximum(1.0, np.abs(qd))
    steps = np.diag(hs)
    vals = lagrangian_full(state.q, np.concatenate([qd + steps, qd - steps]), p)
    grad = (vals[:6] - vals[6:]) / (2.0 * hs)
    half = 0.5 * p.d / p.r
    r_dot = np.array([0.0, 1.0, 1.0] if i == 1 else [0.0, -half, half])
    return float(grad @ np.concatenate([-ehresmann_at(state.theta, p) @ r_dot, r_dot]))


@dataclass(frozen=True)
class ErrorStats:
    max_abs: float
    rms: float


def compare_trajectories(a: Trajectory, b: Trajectory, p: Params,
                         variables: tuple[str, ...] = REDUCED_VARIABLES) -> dict[str, ErrorStats]:
    """Per-variable max-abs and RMS error between two runs on the same grid."""
    if len(a) != len(b) or not np.allclose(a.t, b.t, rtol=0.0, atol=1e-12):
        raise ValueError("trajectories are on different time grids")
    ra, rb = a.reduced_series(), b.reduced_series()
    out = {}
    for name in variables:
        i = REDUCED_VARIABLES.index(name)
        diff = ra[:, i] - rb[:, i]
        out[name] = ErrorStats(float(np.max(np.abs(diff))),
                               float(np.sqrt(np.mean(diff * diff))))
    return out


def energy_drift(traj: Trajectory) -> tuple[float, float]:
    """(max |E(t) - E(0)|, same relative to |E(0)|) for a zero-torque run."""
    drift = float(np.max(np.abs(traj.energy - traj.energy[0])))
    return drift, drift / abs(float(traj.energy[0]))


def _interior_mask(taus: list) -> np.ndarray:
    """Samples whose central-difference stencil stays inside one torque
    segment, from the torques sampled at every t."""
    mask = np.zeros(len(taus), dtype=bool)
    mask[1:-1] = [a == b for a, b in zip(taus, taus[2:])]
    return mask


def momentum_rate_error(traj: Trajectory, profile: TorqueProfile, p: Params) -> float:
    """Max |d/dt p_i (central difference) - closed-form momentum equation|.

    Samples whose stencil straddles a torque-segment boundary are excluded;
    the piecewise-constant forcing makes the derivative one-sided there.
    """
    t, dt = traj.t, traj.dt
    p1, p2 = traj.p1.tolist(), traj.p2.tolist()
    red = traj.reduced_series()
    taus = list(map(_force_lookup(profile, p), t.tolist()))
    ode = dred._kernel(p)
    worst = 0.0
    for k in np.nonzero(_interior_mask(taus))[0].tolist():
        fd1 = (p1[k + 1] - p1[k - 1]) / (2.0 * dt)
        fd2 = (p2[k + 1] - p2[k - 1]) / (2.0 * dt)
        u1, u2 = u_from_tau(*taus[k], p)
        cf1, cf2 = ode(red[k].tolist(), u1, u2)[6:]
        worst = max(worst, abs(fd1 - cf1), abs(fd2 - cf2))
    return float(worst)


def power_balance_error(traj: Trajectory, profile: TorqueProfile, p: Params) -> float:
    """Max |dE/dt - (tau1 phi1_dot + tau2 phi2_dot)| / max(1, |power|).

    dE/dt by central differences on interior samples of each torque segment;
    0.0 if no sample is interior (T < 2 dt), as for the momentum rate.
    """
    if traj.model not in ("full", "oracle"):
        raise ValueError("power balance check expects a full/oracle trajectory")
    t, dt = traj.t, traj.dt
    E = traj.energy
    Y = traj.states
    f1d = Y[:, 7] if traj.model == "full" else Y[:, 10]
    f2d = Y[:, 8] if traj.model == "full" else Y[:, 11]
    taus = list(map(_force_lookup(profile, p), t.tolist()))
    mask = _interior_mask(taus)
    if not mask.any():
        return 0.0
    tau = np.array(taus)
    power = tau[:, 0] * f1d + tau[:, 1] * f2d
    fd = np.empty_like(E)
    fd[1:-1] = (E[2:] - E[:-2]) / (2.0 * dt)
    resid = np.abs(fd[mask] - power[mask])
    return float(np.max(resid) / max(1.0, np.max(np.abs(power))))


def holonomic_residual(traj: Trajectory, p: Params) -> float:
    """Max |theta(t) - theta(0) - (r/d) [(phi2 - phi2(0)) - (phi1 - phi1(0))]|."""
    if traj.model == "reduced":
        raise ValueError("holonomic relation check expects a full/oracle trajectory")
    Y = traj.states
    dth = Y[:, 2] - Y[0, 2]
    dphi1 = Y[:, 4] - Y[0, 4]
    dphi2 = Y[:, 5] - Y[0, 5]
    return float(np.max(np.abs(dth - p.r / p.d * (dphi2 - dphi1))))


def shift_full_state(s: FullState, gx: float, gy: float, gth: float, gphi: float) -> FullState:
    """Left action of (gx, gy, gth, gphi) in SE(2) x S1 on a full state."""
    c, si = math.cos(gth), math.sin(gth)
    return FullState(
        x=c * s.x - si * s.y + gx, y=si * s.x + c * s.y + gy,
        theta=s.theta + gth, alpha=s.alpha,
        phi1=s.phi1 + gphi, phi2=s.phi2 + gphi,
        x_dot=c * s.x_dot - si * s.y_dot, y_dot=si * s.x_dot + c * s.y_dot,
        theta_dot=s.theta_dot, alpha_dot=s.alpha_dot,
        phi1_dot=s.phi1_dot, phi2_dot=s.phi2_dot)


def _shift_series(red: np.ndarray, gx, gy, gth, gphi) -> np.ndarray:
    c, si = math.cos(gth), math.sin(gth)
    out = red.copy()
    out[:, 0] = c * red[:, 0] - si * red[:, 1] + gx
    out[:, 1] = si * red[:, 0] + c * red[:, 1] + gy
    out[:, 2] = red[:, 2] + gth
    out[:, 3] = red[:, 3] + gphi
    return out


def equivariance_error(model: str, initial, profile: TorqueProfile,
                       T: float, dt: float, p: Params,
                       shifts) -> float:
    """Max pointwise error between shift-then-simulate and simulate-then-shift."""
    base = simulate(model, initial, profile, T, dt, p).reduced_series()
    worst = 0.0
    for gx, gy, gth, gphi in shifts:
        if model == "reduced":
            row = np.array([astuple(initial)])
            shifted0 = ReducedState(*_shift_series(row, gx, gy, gth, gphi)[0].tolist())
        else:
            shifted0 = shift_full_state(initial, gx, gy, gth, gphi)
        moved = simulate(model, shifted0, profile, T, dt, p).reduced_series()
        worst = max(worst, float(np.max(np.abs(moved - _shift_series(base, gx, gy, gth, gphi)))))
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


def _random_constrained_state(rng, p: Params) -> FullState:
    x, y = rng.uniform(-1.0, 1.0, 2)
    th = rng.uniform(-math.pi, math.pi)
    al = rng.uniform(-1.0, 1.0)
    f1, f2 = rng.uniform(-2.0, 2.0, 2)
    ald, f1d, f2d = rng.uniform(-1.0, 1.0, 3)
    return FullState.constrained(x, y, th, al, f1, f2, ald, f1d, f2d, p)


def run_structural_checks(p: Params, seed: int = 0) -> list[CheckResult]:
    """Fast structural suite: curvature, pairing, equivariance, energy,
    momentum rate and the integrated yaw relation."""
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for th in rng.uniform(-math.pi, math.pi, 50):
        B, Bfd = curvature_at(th, p), curvature_fd(th, p)
        worst = max(worst, float(np.max(np.abs(B - Bfd)) / np.max(np.abs(B))))
    results.append(CheckResult("curvature closed form vs defining formula", worst, 1e-13))
    B = curvature_at(rng.uniform(-math.pi, math.pi), p)
    worst = float(max(np.max(np.abs(B[:, 0, :])), np.max(np.abs(B[:, :, 0]))))
    results.append(CheckResult("curvature tilt slots exactly zero", worst, 0.0))

    worst = 0.0
    for _ in range(50):
        s = _random_constrained_state(rng, p)
        p1, p2 = momenta_from_full(s, p)
        worst = max(worst, abs(momentum_pairing(s, 1, p) - p1),
                    abs(momentum_pairing(s, 2, p) - p2))
    results.append(CheckResult("momentum pairing vs closed form", worst, 1e-12))

    initial = FullState.constrained(0.0, 0.0, 0.3, 0.12, 0.0, 0.0, 0.1, 0.8, 1.1, p)
    profile = TorqueProfile(((0.0, 0.05, -0.02),))
    shifts = [tuple(rng.uniform(-2.0, 2.0, 4)) for _ in range(5)]
    err_full = equivariance_error("full", initial, profile, 1.0, 1e-3, p, shifts)
    err_red = equivariance_error("reduced", dred.full_to_reduced(initial, p), profile,
                                 1.0, 1e-3, p, shifts)
    results.append(CheckResult("SE(2) x S1 equivariance (full and reduced)",
                               max(err_full, err_red), 1e-9))

    rest = FullState.constrained(0.0, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, p)
    traj = simulate("full", rest, TorqueProfile.zero(), 1.0, 1e-4, p)
    results.append(CheckResult("energy drift (zero torque)", energy_drift(traj)[1], 1e-8))

    forced = simulate("full", initial, profile, 0.5, 1e-4, p)
    results.append(CheckResult("momentum rate vs closed form",
                               momentum_rate_error(forced, profile, p), 1e-4))
    results.append(CheckResult("integrated yaw relation",
                               holonomic_residual(forced, p), 1e-12))
    return results


def render_check_lines(results: list[CheckResult]) -> list[str]:
    """One machine-readable pass/fail line per check."""
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name}: value={r.value:.3e} bound={r.bound:.3e}")
    return lines
