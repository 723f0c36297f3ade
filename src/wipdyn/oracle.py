"""Independent ground truth: Lagrange-d'Alembert dynamics via multipliers.

Nothing in this module reuses the analytic mass matrix or force terms of the
dynamics modules.  The accelerations are obtained from the unconstrained
Lagrangian alone by solving the saddle system

    [ M(q)  C(q)^T ] [ q_dd ]   [ Q(q, q_dot) + tau ]
    [ C(q)  0      ] [ -lam ] = [ -C_dot q_dot      ]

with M = d2L/dq_dot2 and Q = dL/dq - (d2L/dq_dot dq) q_dot.  C(q) holds the
three rolling constraint rows (two planar rows plus the yaw row); the yaw row
is part of the rolling constraint set and must be imposed -- with only the
two planar rows the wheel-difference momentum is conserved on its own and the
yaw relation is not preserved, which describes a different mechanical system.

Derivative policy: every derivative is exact to rounding, so there is no
step size to tune.

* M by polarisation of the velocity quadratic form.  L is exactly quadratic
  in q_dot, so with v = q_dot and steps h_i = max(1, |v_i|)

      M_ii = (L(v + h_i e_i) + L(v - h_i e_i) - 2 L(v)) / h_i^2
      M_ij = (L(v + h_i e_i + h_j e_j) - L(v + h_i e_i) - L(v + h_j e_j)
              + L(v)) / (h_i h_j)

  have no truncation error: 1 + 2n + n(n-1)/2 rows, 28 for n = 6.
* dL/dq by complex step (Squire & Trapp 1998, SIAM Rev. 40:110; Martins,
  Sturdza & Alonso 2003, ACM TOMS 29:245), Im L(q + i h e_j, q_dot) / h with
  h = CS_STEP: no subtractive cancellation, so h can be tiny.  n rows.
* (d2L/dq_dot dq) q_dot as the central difference in q_dot, exact for the
  same reason as M, of the complex-step derivative along q_dot,
  Im L(q + i h q_dot, q_dot +- h_i e_i) / h.  2n rows.
* C_dot q_dot from C(q) itself by complex step along q_dot.  C(q) is the
  real part of the same matrix C(q + i h q_dot), bit for bit: it carries
  cos(theta) cosh(h theta_dot), and the cosh rounds to exactly 1.

Each Lagrangian derivative has a half that builds its rows of arguments and
a half that reduces the values at those rows; the unit offsets of the rows
are built once per dimension.  :func:`velocity_hessian` and
:func:`generalized_force` compose the halves for any f, and
:func:`lagrange_dalembert_full` stacks the rows of both into one call of
``lagrangian_full`` (46 rows).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .model import Params, lagrangian_full

__all__ = [
    "ConstraintViolationError",
    "constraint_matrix",
    "constraint_rate_term",
    "velocity_hessian",
    "generalized_force",
    "lagrange_dalembert_rhs",
    "lagrange_dalembert_full",
]

CS_STEP = 1e-30


class ConstraintViolationError(ValueError):
    """Input velocities do not satisfy the rolling constraints."""


def constraint_matrix(q: np.ndarray, p: Params) -> np.ndarray:
    """C(q) with admissible velocities C(q) q_dot = 0; shape (3, 6).

    Rows: the two planar rolling rows and the yaw row
    theta_dot - (r/d)(phi2_dot - phi1_dot) = 0.  q may be complex: the
    oracle evaluates C once per call, at q + i h q_dot.
    """
    th = q[2]
    c, s = np.cos(th), np.sin(th)
    hr = 0.5 * p.r
    return np.array([
        [1.0, 0.0, 0.0, 0.0, -hr * c, -hr * c],
        [0.0, 1.0, 0.0, 0.0, -hr * s, -hr * s],
        [0.0, 0.0, 1.0, 0.0, p.r / p.d, -p.r / p.d],
    ])


def _constraint_and_rate(q: np.ndarray, qd: np.ndarray, p: Params):
    """(C(q), C_dot q_dot) from one complex call C(q + i h q_dot)."""
    C = constraint_matrix(q + (1j * CS_STEP) * qd, p)
    return C.real, (C @ qd).imag / CS_STEP


def constraint_rate_term(q: np.ndarray, q_dot: np.ndarray, p: Params) -> np.ndarray:
    """C_dot q_dot, one entry per row of :func:`constraint_matrix`.

    Taken from ``constraint_matrix`` itself by a complex-step directional
    derivative along q_dot, Im(C(q + i h q_dot) q_dot) / h.  There is no
    subtractive cancellation, so h can be tiny and the result is exact to
    rounding, whatever rows the constraint set has.
    """
    return _constraint_and_rate(np.asarray(q, float), np.asarray(q_dot, float), p)[1]


def _vel_steps(qd: np.ndarray) -> np.ndarray:
    return np.maximum(1.0, np.abs(qd))


class _Pattern(NamedTuple):
    """Unit offsets of the derivative rows for one dimension n, and the
    polarisation weights; read-only, shared by every call."""

    hess_vel: np.ndarray      # 0, +e_i, -e_i, then e_i + e_j for i < j
    hess_weights: np.ndarray  # (n, n, rows): h_i h_j M_ij = weights_ij . L
    force_pos: np.ndarray     # e_j, then 2n zero rows
    force_along: np.ndarray   # n zeros, then 2n ones (column)
    force_vel: np.ndarray     # n zero rows, then +e_i, -e_i


@functools.cache
def _pattern(n: int) -> _Pattern:
    eye, zero = np.eye(n), np.zeros((n, n))
    i, j = np.triu_indices(n, 1)
    k = np.arange(n)
    pair = np.arange(1 + 2 * n, 1 + 2 * n + i.size)
    # the polarisation formulas of the module docstring, as weights on
    # (L(v), L(v + h_i e_i), L(v - h_i e_i), L(v + h_i e_i + h_j e_j))
    w = np.zeros((n, n, 1 + 2 * n + i.size))
    w[k, k, 0] = -2.0
    w[k, k, 1 + k] = w[k, k, 1 + n + k] = 1.0
    for a, b in ((i, j), (j, i)):
        w[a, b, 0] = w[a, b, pair] = 1.0
        w[a, b, 1 + a] = w[a, b, 1 + b] = -1.0
    pat = _Pattern(
        hess_vel=np.concatenate([np.zeros((1, n)), eye, -eye, eye[i] + eye[j]]),
        hess_weights=w,
        force_pos=np.concatenate([eye, zero, zero]),
        force_along=np.repeat([[0.0], [1.0], [1.0]], n, axis=0),
        force_vel=np.concatenate([zero, eye, -eye]))
    for a in pat:
        a.setflags(write=False)
    return pat


def _hessian_rows(q, qd, h):
    offs = _pattern(qd.size).hess_vel
    return q[None].repeat(len(offs), 0), qd + offs * h


def _hessian_reduce(vals, h):
    return (_pattern(h.size).hess_weights @ vals) / np.outer(h, h)


def _force_rows(q, qd, h):
    pat = _pattern(qd.size)
    return (q + (1j * CS_STEP) * (pat.force_pos + pat.force_along * qd),
            qd + pat.force_vel * h)


def _force_reduce(vals, h):
    n = h.size
    g = vals.imag / CS_STEP
    return g[:n] - (g[n:2 * n] - g[2 * n:]) / (2.0 * h)


def velocity_hessian(f, q, q_dot) -> np.ndarray:
    """Symmetric d2f/dq_dot2 by polarisation, exact for f quadratic in q_dot.

    f(Q, QD) must accept stacked (N, n) arrays and return (N,).
    """
    q = np.asarray(q, float)
    qd = np.asarray(q_dot, float)
    h = _vel_steps(qd)
    return _hessian_reduce(f(*_hessian_rows(q, qd, h)), h)


def generalized_force(f, q, q_dot) -> np.ndarray:
    """df/dq - (d2f/dq_dot dq) q_dot, exact to rounding for f analytic in q
    and quadratic in q_dot.

    f(Q, QD) must accept stacked (N, n) arrays, Q complex, and return (N,).
    """
    q = np.asarray(q, float)
    qd = np.asarray(q_dot, float)
    h = _vel_steps(qd)
    return _force_reduce(f(*_force_rows(q, qd, h)), h)


def lagrange_dalembert_full(q, q_dot, tau, p: Params,
                            check_constraints: bool = True):
    """Accelerations and multipliers of the constrained system.

    tau is the 6-vector of generalized forces (wheel torques sit in the last
    two slots).  With check_constraints, inputs with |C q_dot| > 1e-10 are
    rejected; integrators disable the check because Runge-Kutta stage states
    sit O(dt^2) off the constraint manifold (C q_dot is a first integral of
    the returned field, so the drift stays at truncation level).

    M and Q come from one call of ``lagrangian_full`` on the stacked rows of
    both derivative helpers, C and C_dot q_dot from one complex call of
    :func:`constraint_matrix`.  Returns (q_dd, lam).  Raises
    numpy.linalg.LinAlgError if the saddle matrix is rank deficient; the rate
    term has one entry per row of :func:`constraint_matrix`, so this holds
    for any constraint set.
    """
    q = np.asarray(q, float)
    qd = np.asarray(q_dot, float)
    tau = np.asarray(tau, float)
    C, rate = _constraint_and_rate(q, qd, p)
    if check_constraints:
        viol = np.max(np.abs(C @ qd))
        if viol > 1e-10:
            raise ConstraintViolationError(
                f"velocities violate the rolling constraints by {viol:.3e}")

    h = _vel_steps(qd)
    Qh, QDh = _hessian_rows(q, qd, h)
    Qf, QDf = _force_rows(q, qd, h)
    vals = lagrangian_full(np.concatenate([Qh, Qf]), np.concatenate([QDh, QDf]), p)
    k = len(Qh)
    M = _hessian_reduce(vals[:k].real, h)
    Q_vec = _force_reduce(vals[k:], h)

    m = C.shape[0]
    saddle = np.zeros((6 + m, 6 + m))
    saddle[:6, :6] = M
    saddle[:6, 6:] = C.T
    saddle[6:, :6] = C
    rhs = np.concatenate([Q_vec + tau, -rate])
    sol = np.linalg.solve(saddle, rhs)
    return sol[:6], -sol[6:]


def lagrange_dalembert_rhs(q, q_dot, tau, p: Params,
                           check_constraints: bool = True) -> np.ndarray:
    """Accelerations q_dd of the constrained system (see the sibling above)."""
    qdd, _ = lagrange_dalembert_full(q, q_dot, tau, p, check_constraints)
    return qdd
