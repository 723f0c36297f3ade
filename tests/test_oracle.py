import math

import numpy as np
import pytest

from wipdyn import Controls, FullState, TorqueProfile, accelerations_q6, simulate
from wipdyn.model import lagrangian_full
from wipdyn.oracle import (CS_STEP, ConstraintViolationError, _constraint_and_rate,
                           constraint_matrix, lagrange_dalembert_full,
                           lagrange_dalembert_rhs, lagrangian_derivatives)


def _admissible(p, rng):
    s = FullState.constrained(
        rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi),
        rng.uniform(-1, 1), rng.uniform(-2, 2), rng.uniform(-2, 2),
        rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), p)
    return s.q, s.q_dot


def test_fd_utilities_on_known_function(rng):
    # f = qd^T A(q) qd / 2 + b(q)^T qd + V(q), with A(q) = A0 + cos(c.q) B,
    # b(q) = G sin(q) and V(q) = v.cos(q): every derivative is known.  The
    # linear (gyroscopic) term cancels in the zero-velocity polarisation, so
    # M = A(q) at any speed, and enters Q as J^T qd - J qd with J = db/dq.
    # Rates of mixed magnitudes up to 1e3, where polarising at qd with steps
    # max(1, |qd_i|) would put M off by up to 2.6e-9.  The along-qd rows sit
    # at qd +- e_i, so Q loses digits in proportion to |qd|: past |qd| = 3
    # its bound is relative to |qd| |Q|.  Worst measured over 2000 draws per
    # speed: M 3.2e-15 absolute at any speed; Q 1.1e-14 absolute at
    # |qd| <= 3, and 8.3e-15 |qd| relative at |qd| <= 1e3.
    n = 4
    A0 = rng.uniform(-1, 1, (n, n))
    A0 = A0 + A0.T + 4 * np.eye(n)
    B = rng.uniform(-1, 1, (n, n))
    B = B + B.T
    G = rng.uniform(-1, 1, (n, n))
    c, v = rng.uniform(-1, 1, (2, n))

    def quad(x, S, y):
        return np.einsum("...i,ij,...j->...", x, S, y)

    def f(Q, QD):
        return (0.5 * quad(QD, A0, QD) + 0.5 * np.cos(Q @ c) * quad(QD, B, QD)
                + np.einsum("...i,...i->...", QD, np.sin(Q) @ G.T) + np.cos(Q) @ v)

    for speed, q_rel in ((3.0, 0.0), (1e3, 2e-13)):
        for _ in range(5):
            q = rng.uniform(-2, 2, n)
            qd = rng.uniform(-1, 1, n) * speed ** rng.uniform(0, 1, n)
            M, Q = lagrangian_derivatives(f, q, qd)
            s, J = math.sin(c @ q), G * np.cos(q)
            M_exact = A0 + math.cos(c @ q) * B
            Q_exact = (s * (c @ qd) * (B @ qd) - 0.5 * s * (qd @ B @ qd) * c
                       + J.T @ qd - J @ qd - v * np.sin(q))
            assert np.max(np.abs(M - M_exact)) <= 1e-12
            assert (np.max(np.abs(Q - Q_exact))
                    <= max(1e-12, q_rel * np.max(np.abs(qd)) * np.max(np.abs(Q_exact))))


def test_referee_at_high_rates(p, rng):
    # tilt and wheel rates up to 100 rad/s.  Worst measured 3.8e-13 over
    # 2000 states (relative to max(1, |q_dd|), as _oracle_error in
    # test_properties); the bound is about 100x that.
    for _ in range(100):
        s = FullState.constrained(
            rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi),
            rng.uniform(-1.5, 1.5), rng.uniform(-2, 2), rng.uniform(-2, 2),
            *rng.uniform(-100.0, 100.0, 3), p)
        t1, t2 = rng.uniform(-1, 1, 2)
        qdd = lagrange_dalembert_rhs(s.q, s.q_dot, np.array([0, 0, 0, 0, t1, t2]), p)
        ref = accelerations_q6(s, Controls(t1, t2), p)
        assert np.max(np.abs(qdd - ref)) <= 4e-11 * max(1.0, np.max(np.abs(ref)))


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


def test_lagrangian_complex_step_matches_velocity_gradient(p, rng, velocity_gradient):
    for _ in range(20):
        q = rng.uniform(-2.0, 2.0, 6)
        qd = rng.uniform(-2.0, 2.0, 6)
        QD = qd + (1j * CS_STEP) * np.eye(6)
        cs = lagrangian_full(np.broadcast_to(q, (6, 6)), QD, p).imag / CS_STEP
        grad = velocity_gradient(q, qd)
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
        C, rate = _constraint_and_rate(q, qd, p)
        resid = C @ qdd + rate
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
        C, got = _constraint_and_rate(q, qd, p)
        assert np.array_equal(C, constraint_matrix(q, p))
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
    # np.linalg.solve raises only on an exactly zero pivot: without the probe
    # column, 43 of these 300 states returned finite accelerations, up to 8e3 off
    import wipdyn.oracle as oracle_mod
    orig = oracle_mod.constraint_matrix

    def degenerate(q, params):
        C = orig(q, params)
        return np.vstack([C, C[0]])  # duplicated row: rank-deficient saddle

    monkeypatch.setattr(oracle_mod, "constraint_matrix", degenerate)
    for _ in range(300):
        q, qd = _admissible(p, rng)
        with pytest.raises(np.linalg.LinAlgError):
            oracle_mod.lagrange_dalembert_rhs(q, qd, np.zeros(6), p)


def test_rhs_writes_only_into_its_own_arrays(p, rng):
    from wipdyn.oracle import _rhs_template, _rows
    q, qd = _admissible(p, rng)
    tau = np.array([0.0, 0.0, 0.0, 0.0, 0.3, -0.2])
    args = [a.copy() for a in (q, qd, tau)]
    first = lagrange_dalembert_full(q, qd, tau, p)
    assert all(np.array_equal(a, b) for a, b in zip((q, qd, tau), args))
    second = lagrange_dalembert_full(q, qd, tau, p)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    for table in (*_rows(6), *_rows(4), _rhs_template(9)):
        assert not table.flags.writeable


def test_oracle_integration_conserves_energy_and_constraints(p):
    start = FullState.constrained(0, 0, 0.1, 0.2, 0, 0, 0.0, 0.4, 0.6, p)
    # dt=5e-4: RK4's O(dt^4) drift floor is ~7.5e-9 at 1e-3, ~4.8e-10 here
    traj = simulate("oracle", start, TorqueProfile.zero(), 0.5, 5e-4, p)
    drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
    assert drift < 1e-9
    assert np.max(traj.residuals) <= 1e-8
