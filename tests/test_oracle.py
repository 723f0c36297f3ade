import math

import numpy as np
import pytest

from wipdyn import FullState, TorqueProfile, simulate
from wipdyn.model import lagrangian_full, velocity_gradient_full
from wipdyn.oracle import (CS_STEP, ConstraintViolationError,
                           constraint_matrix, constraint_rate_term,
                           generalized_force, lagrange_dalembert_full,
                           lagrange_dalembert_rhs, velocity_hessian)


def _admissible(p, rng):
    s = FullState.constrained(
        rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi),
        rng.uniform(-1, 1), rng.uniform(-2, 2), rng.uniform(-2, 2),
        rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), p)
    return s.q, s.q_dot


def test_fd_utilities_on_known_function(rng):
    # f = qd^T A qd / 2 + qd^T B q with fixed matrices: every derivative is
    # known, and Q = df/dq - (d2f/dqd dq) qd = B^T qd - B qd
    A = rng.uniform(-1, 1, (4, 4))
    A = A + A.T + 4 * np.eye(4)
    B = rng.uniform(-1, 1, (4, 4))

    def f(Q, QD):
        return 0.5 * np.einsum("...i,ij,...j->...", QD, A, QD) + \
            np.einsum("...i,ij,...j->...", QD, B, Q)

    for _ in range(5):
        q = rng.uniform(-2, 2, 4)
        qd = rng.uniform(-3, 3, 4)
        assert np.max(np.abs(velocity_hessian(f, q, qd) - A)) <= 1e-12
        assert np.max(np.abs(generalized_force(f, q, qd) - (B.T @ qd - B @ qd))) <= 1e-12


def test_one_stacked_lagrangian_call_per_rhs(p, rng, monkeypatch):
    import wipdyn.oracle as oracle_mod
    rows = []

    def counting(Q, QD, params):
        rows.append(np.shape(Q)[:-1])
        return lagrangian_full(Q, QD, params)

    monkeypatch.setattr(oracle_mod, "lagrangian_full", counting)
    q, qd = _admissible(p, rng)
    oracle_mod.lagrange_dalembert_rhs(q, qd, np.zeros(6), p)
    assert rows == [(46,)]


def test_one_constraint_matrix_call_per_rhs(p, rng, monkeypatch):
    # C(q) and the rate term both come from C(q + i h q_dot)
    import wipdyn.oracle as oracle_mod
    orig = oracle_mod.constraint_matrix
    calls = []

    def counting(q, params):
        calls.append(np.iscomplexobj(q))
        return orig(q, params)

    monkeypatch.setattr(oracle_mod, "constraint_matrix", counting)
    q, qd = _admissible(p, rng)
    oracle_mod.lagrange_dalembert_rhs(q, qd, np.zeros(6), p)
    assert calls == [True]


def test_lagrangian_complex_step_matches_velocity_gradient(p, rng):
    for _ in range(20):
        q = rng.uniform(-2.0, 2.0, 6)
        qd = rng.uniform(-2.0, 2.0, 6)
        QD = qd + (1j * CS_STEP) * np.eye(6)
        cs = lagrangian_full(np.broadcast_to(q, (6, 6)), QD, p).imag / CS_STEP
        grad = velocity_gradient_full(q, qd, p)
        assert np.max(np.abs(cs - grad)) <= 1e-13
        assert lagrangian_full(q, qd, p).dtype == np.float64


def test_upright_rest_gives_zero_accelerations(p):
    q = np.zeros(6)
    qd = np.zeros(6)
    qdd, lam = lagrange_dalembert_full(q, qd, np.zeros(6), p)
    assert np.max(np.abs(qdd)) < 1e-12
    assert np.max(np.abs(lam)) < 1e-12


def test_acceleration_level_constraints_hold(p, rng):
    for _ in range(10):
        q, qd = _admissible(p, rng)
        tau = np.zeros(6)
        tau[4:] = rng.uniform(-1, 1, 2)
        qdd = lagrange_dalembert_rhs(q, qd, tau, p)
        resid = constraint_matrix(q, p) @ qdd + constraint_rate_term(q, qd, p)
        assert np.max(np.abs(resid)) <= 1e-8


def test_constraint_rate_term_matches_closed_form(p, rng):
    # for the rolling rows C depends on q only through theta, which gives
    # C_dot q_dot = (hr sin th thd s, -hr cos th thd s, 0), s = phi1d + phi2d
    hr = 0.5 * p.r
    for _ in range(200):
        q = rng.uniform(-math.pi, math.pi, 6)
        qd = rng.uniform(-3.0, 3.0, 6)
        s_rate = qd[4] + qd[5]
        closed = np.array([hr * math.sin(q[2]) * qd[2] * s_rate,
                           -hr * math.cos(q[2]) * qd[2] * s_rate, 0.0])
        got = constraint_rate_term(q, qd, p)
        assert got.shape == (3,)
        assert np.max(np.abs(got - closed)) <= 1e-14


def test_constraint_precondition_enforced(p):
    q = np.zeros(6)
    qd = np.zeros(6)
    qd[0] = 0.5  # planar velocity without wheel motion
    with pytest.raises(ConstraintViolationError):
        lagrange_dalembert_rhs(q, qd, np.zeros(6), p)


def test_constraint_forces_are_workless(p, rng):
    for _ in range(10):
        q, qd = _admissible(p, rng)
        _, lam = lagrange_dalembert_full(q, qd, np.zeros(6), p)
        # lambda^T C qd vanishes because C qd does (admissible velocities)
        assert abs(lam @ (constraint_matrix(q, p) @ qd)) < 1e-12


def test_rank_deficient_saddle_raises(p, rng, monkeypatch):
    import wipdyn.oracle as oracle_mod
    orig = oracle_mod.constraint_matrix

    def degenerate(q, params):
        C = orig(q, params)
        return np.vstack([C, C[0]])  # duplicated row: rank-deficient saddle

    monkeypatch.setattr(oracle_mod, "constraint_matrix", degenerate)
    q, qd = _admissible(p, rng)
    with pytest.raises(np.linalg.LinAlgError):
        oracle_mod.lagrange_dalembert_rhs(q, qd, np.zeros(6), p)


def test_oracle_integration_conserves_energy_and_constraints(p):
    start = FullState.constrained(0, 0, 0.1, 0.2, 0, 0, 0.0, 0.4, 0.6, p)
    # dt=5e-4: RK4's O(dt^4) drift floor is ~7.5e-9 at 1e-3, ~4.8e-10 here
    traj = simulate("oracle", start, TorqueProfile.zero(), 0.5, 5e-4, p)
    drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
    assert drift < 1e-9
    assert np.max(traj.residuals) <= 1e-8
