"""Cross-model comparison and structural checks.

Every check is a plain library predicate so the test suite and the CLI share
one implementation.  Model comparison happens in the shared observable set
(x, y, theta, phi, alpha, alpha_dot, p1, p2); wheel angles are compared only
through the mean angle and the integrated yaw relation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .connection import curvature_at, curvature_fd, ehresmann_at
from . import dynamics_reduced as dred
from .model import FullState, Params, lagrangian_full, rolling_rates
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
    "equivariance_error",
    "CheckResult",
    "run_structural_checks",
    "render_check_lines",
]


def momentum_pairing(state: FullState, i: int, p: Params) -> float:
    """Numeric momentum <dL/dq_dot, xi_i> of ``lagrangian_full``.

    L is quadratic in q_dot, so the directional difference
    (L(q, q_dot + xi) - L(q, q_dot - xi))/2 is the pairing exactly, up to
    round-off.  xi_1 (rolling) and xi_2 (yaw) generate the SE(2) x S1
    symmetry: the horizontal lifts (-A(theta) r_dot, r_dot) of the wheel
    rates r_dot = (0, 1, 1) and (0, -d/2r, d/2r) by the kinematic connection
    :func:`~wipdyn.connection.ehresmann_at`.
    """
    if i not in (1, 2):
        raise ValueError("section index must be 1 or 2")
    half = 0.5 * p.d / p.r
    r_dot = np.array([0.0, 1.0, 1.0] if i == 1 else [0.0, -half, half])
    xi = np.concatenate([-ehresmann_at(state.theta, p) @ r_dot, r_dot])
    plus, minus = lagrangian_full(state.q, state.q_dot + np.array([xi, -xi]), p)
    return float(0.5 * (plus - minus))


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


def _interior_mask(profile: TorqueProfile, t: np.ndarray) -> np.ndarray:
    """Samples whose central-difference stencil stays inside one torque
    segment: both ends bisect to one start time, as ``tau_at`` does.  Equal
    torques would not do, as a segment between them may hold no sample."""
    seg = np.searchsorted(profile._starts, t, side="right")
    mask = np.zeros(len(t), dtype=bool)
    mask[1:-1] = seg[:-2] == seg[2:]
    return mask


def momentum_rate_error(traj: Trajectory, profile: TorqueProfile, p: Params) -> float:
    """Max |d/dt p_i (central difference) - closed-form momentum equation|.

    Samples whose stencil straddles a torque-segment boundary are excluded;
    the piecewise-constant forcing makes the derivative one-sided there.
    """
    t, dt = traj.t, traj.dt
    p1, p2 = traj.column("p1").tolist(), traj.column("p2").tolist()
    red = traj.shared
    forces = list(map(_force_lookup(profile, p, u_from_tau), t.tolist()))
    ode = dred._kernel(p)
    worst = 0.0
    for k in np.nonzero(_interior_mask(profile, t))[0].tolist():
        fd1 = (p1[k + 1] - p1[k - 1]) / (2.0 * dt)
        fd2 = (p2[k + 1] - p2[k - 1]) / (2.0 * dt)
        cf1, cf2 = ode(red[k].tolist(), *forces[k])[6:]
        worst = max(worst, abs(fd1 - cf1), abs(fd2 - cf2))
    return float(worst)


def power_balance_error(traj: Trajectory, profile: TorqueProfile, p: Params) -> float:
    """Max |dE/dt - (tau1 phi1_dot + tau2 phi2_dot)| / max(1, |power|).

    dE/dt by central differences on interior samples of each torque segment;
    0.0 if no sample is interior (T < 2 dt), as for the momentum rate.
    Raises ValueError for a run that does not integrate the wheel rates.
    """
    t, dt = traj.t, traj.dt
    E = traj.energy
    f1d, f2d = traj.column("phi1_dot"), traj.column("phi2_dot")
    taus = list(map(_force_lookup(profile, p), t.tolist()))
    mask = _interior_mask(profile, t)
    if not mask.any():
        return 0.0
    tau = np.array(taus)
    power = tau[:, 0] * f1d + tau[:, 1] * f2d
    fd = np.empty_like(E)
    fd[1:-1] = (E[2:] - E[:-2]) / (2.0 * dt)
    resid = np.abs(fd[mask] - power[mask])
    return float(np.max(resid) / max(1.0, np.max(np.abs(power))))


def holonomic_residual(traj: Trajectory, p: Params) -> float:
    """Max |theta(t) - theta(0) - (r/d) [(phi2 - phi2(0)) - (phi1 - phi1(0))]|.

    Raises ValueError for a run that does not integrate the wheel angles.
    """
    th, phi1, phi2 = map(traj.column, ("theta", "phi1", "phi2"))
    yaw = rolling_rates(0.0, phi1 - phi1[0], phi2 - phi2[0], p)[2]  # the integrated yaw row
    return float(np.max(np.abs(th - th[0] - yaw)))


def _shift(v: dict, gx, gy, gth, gphi) -> dict:
    """Left action of (gx, gy, gth, gphi) in SE(2) x S1 on named values,
    floats or columns: the planar position rotates by gth and translates by
    (gx, gy), a planar velocity rotates, the heading shifts by gth and every
    wheel angle (phi, phi1, phi2) by gphi.  Other values stay."""
    c, si = math.cos(gth), math.sin(gth)
    out = dict(v)
    out["x"], out["y"] = c * v["x"] - si * v["y"] + gx, si * v["x"] + c * v["y"] + gy
    if "x_dot" in v:
        xd, yd = v["x_dot"], v["y_dot"]
        out["x_dot"], out["y_dot"] = c * xd - si * yd, si * xd + c * yd
    out["theta"] = v["theta"] + gth
    for name in v.keys() & {"phi", "phi1", "phi2"}:
        out[name] = v[name] + gphi
    return out


def equivariance_error(model: str, initial, profile: TorqueProfile,
                       T: float, dt: float, p: Params,
                       shifts) -> float:
    """Max pointwise error between shift-then-simulate and simulate-then-shift."""
    traj = simulate(model, initial, profile, T, dt, p)
    base = {name: traj.column(name) for name in REDUCED_VARIABLES}
    worst = 0.0
    for g in shifts:
        shifted0 = type(initial)(**_shift(asdict(initial), *g))
        moved = simulate(model, shifted0, profile, T, dt, p).shared
        expected = np.stack(list(_shift(base, *g).values()), axis=1)
        worst = max(worst, float(np.max(np.abs(moved - expected))))
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
    """Fast structural suite: curvature (closed form, tilt slots), momentum
    pairing, equivariance, zero-torque energy drift and, on one forced run,
    the momentum rate, power balance and integrated yaw relation."""
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
        red = dred.full_to_reduced(s, p)
        worst = max(worst, abs(momentum_pairing(s, 1, p) - red.p1),
                    abs(momentum_pairing(s, 2, p) - red.p2))
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
    drift = energy_drift(simulate("full", rest, TorqueProfile.zero(), 1.0, 1e-4, p))[1]
    results.append(CheckResult("energy drift (zero torque)", drift, 1e-8))

    forced = simulate("full", initial, profile, 0.5, 1e-4, p)
    results.append(CheckResult("momentum rate vs closed form",
                               momentum_rate_error(forced, profile, p), 1e-4))
    results.append(CheckResult("power balance (forced)",
                               power_balance_error(forced, profile, p), 2e-3))
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
