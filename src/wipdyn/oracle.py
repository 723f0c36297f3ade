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

* M by polarisation of the velocity quadratic form at zero velocity.  L is
  exactly quadratic in q_dot, so M does not depend on it, and at q

      M_ii = L(e_i) + L(-e_i) - 2 L(0)
      M_ij = L(e_i + e_j) - L(e_i) - L(e_j) + L(0)

  have no truncation error, and the terms linear in q_dot cancel:
  1 + 2n + n(n-1)/2 rows, 28 for n = 6.
* dL/dq by complex step (Squire & Trapp 1998, SIAM Rev. 40:110; Martins,
  Sturdza & Alonso 2003, ACM TOMS 29:245), Im L(q + i h e_j, q_dot) / h with
  h = CS_STEP: no subtractive cancellation, so h can be tiny.  n rows.
* (d2L/dq_dot dq) q_dot as the central difference in q_dot, exact for the
  same reason as M, of the complex-step derivative along q_dot,
  Im L(q + i h q_dot, q_dot +- e_i) / h.  2n rows; they are of order
  |q_dot|^3 against a difference of order |q_dot|^2, so Q keeps a relative
  rounding error of about eps |q_dot|.
* C_dot q_dot from C(q) itself by complex step along q_dot.  C(q) is the
  real part of the same matrix C(q + i h q_dot), bit for bit: it carries
  cos(theta) cosh(h theta_dot), and the cosh rounds to exactly 1.

No step depends on q_dot: unit steps are exact, and at zero velocity the
polarisation rows stay the size of L at unit rates however fast the state
moves.  So the row table is constant, built once per dimension and stored
ready to use (at 46 rows a numpy call costs more than its arithmetic):
offsets coordinate-major, (n, rows), and one (n^2 + n, 2 rows) reduction
matrix.  :func:`lagrangian_derivatives` evaluates f once on every row and
reduces (M.ravel(), Q) in one product of that matrix with the values viewed
as (re, im) float pairs; :func:`lagrange_dalembert_full` calls it on
``lagrangian_full`` (46 rows).
"""

from __future__ import annotations

import functools

import numpy as np

from .model import Params, lagrangian_full

__all__ = [
    "ConstraintViolationError",
    "constraint_matrix",
    "lagrangian_derivatives",
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
    c, s = -0.5 * p.r * np.cos(th), -0.5 * p.r * np.sin(th)
    return np.array([1.0, 0.0, 0.0, 0.0, c, c,
                     0.0, 1.0, 0.0, 0.0, s, s,
                     0.0, 0.0, 1.0, 0.0, p.r / p.d, -p.r / p.d],
                    dtype=q.dtype).reshape(3, 6)


def _constraint_and_rate(q: np.ndarray, qd: np.ndarray, p: Params):
    """(C(q), C_dot q_dot) from one complex call C(q + i h q_dot)."""
    C = constraint_matrix(q + (1j * CS_STEP) * qd, p)
    return C.real, C.imag @ qd / CS_STEP


@functools.cache
def _rows(n: int):
    """Row table for dimension n: (R, vel, moving, pos, along), read-only, shared.

    Row r is evaluated at (q + pos_r + along_r q_dot, vel_r + moving_r q_dot);
    pos and along carry the factor i h.  The first m = 1 + 2n + n(n-1)/2 rows
    are the polarisation rows at zero velocity (offsets 0, e_i, -e_i, then
    e_i + e_j for i < j); then n rows along e_j at q_dot, and 2n rows along
    q_dot at q_dot + e_i and q_dot - e_i.  (M.ravel(), Q) = R @ values, with
    the values viewed as (re, im) float pairs.
    """
    eye, zero = np.eye(n), np.zeros((n, n))
    i, j = np.triu_indices(n, 1)
    k = np.arange(n)
    m = 1 + 2 * n + i.size
    pair = np.arange(1 + 2 * n, m)
    R = np.zeros((n + 1, n, m + 3 * n, 2))  # rows (i, j) of M, then Q's
    # the polarisation formulas of the module docstring, as weights on the
    # real parts of (L(0), L(e_i), L(-e_i), L(e_i + e_j))
    w = R[:n, :, :m, 0]
    w[k, k, 0] = -2.0
    w[k, k, 1 + k] = w[k, k, 1 + n + k] = 1.0
    for a, b in ((i, j), (j, i)):
        w[a, b, 0] = w[a, b, pair] = 1.0
        w[a, b, 1 + a] = w[a, b, 1 + b] = -1.0
    # Q_k = (Im_k - (Im_k+ - Im_k-) / 2) / h on the imaginary parts of the rest
    for offset, weight in ((m, 1.0), (m + n, -0.5), (m + 2 * n, 0.5)):
        R[n, k, offset + k, 1] = weight / CS_STEP
    vel = np.concatenate([np.zeros((1, n)), eye, -eye, eye[i] + eye[j], zero, eye, -eye])
    moving = np.concatenate([np.zeros(m), np.ones(3 * n)])
    pos = np.concatenate([np.zeros((m, n)), eye, zero, zero])
    along = np.concatenate([np.zeros(m + n), np.ones(2 * n)])
    table = (R.reshape(n * n + n, -1), vel.T.copy(), moving,
             (1j * CS_STEP) * pos.T.copy(), (1j * CS_STEP) * along)
    for a in table:
        a.setflags(write=False)
    return table


def lagrangian_derivatives(f, q, q_dot):
    """(M, Q): M = d2f/dq_dot2 and Q = df/dq - (d2f/dq_dot dq) q_dot.

    Exact to rounding for f analytic in q and quadratic in q_dot, linear
    terms included.  f(Q, QD) must accept stacked (N, n) arrays (transposed
    views), Q complex, and return a complex (N,) array; it is called once,
    on all 1 + 2n + n(n-1)/2 + 3n rows of ``_rows(n)``.
    """
    q = np.asarray(q, float)
    qd = np.asarray(q_dot, float)
    n = qd.size
    R, vel, moving, pos, along = _rows(n)
    Q = q[:, None] + pos
    Q += qd[:, None] * along
    QD = qd[:, None] * moving
    QD += vel
    out = R @ f(Q.T, QD.T).view(float)
    return out[:n * n].reshape(n, n), out[n * n:]


# Column 1 of the saddle's right-hand sides is a fixed probe: golden-ratio
# fractions, all distinct (all ones lies in the range of a saddle with a
# duplicated row).  Its solution passes _SINGULAR only on a numerically
# singular saddle: >= 7e15 with a duplicated row, <= 133 for the rolling one.
_SINGULAR = 1e8


@functools.cache
def _rhs_template(k: int) -> np.ndarray:
    """(k, 2) saddle right-hand sides: column 0 is filled per call, column 1 is the probe."""
    b = np.zeros((k, 2))
    b[:, 1] = np.arange(1, k + 1) * 0.6180339887498949 % 1.0 - 0.5
    b.setflags(write=False)
    return b


def lagrange_dalembert_full(q, q_dot, tau, p: Params,
                            check_constraints: bool = True):
    """Accelerations and multipliers of the constrained system.

    tau is the 6-vector of generalized forces (wheel torques sit in the last
    two slots).  With check_constraints, inputs with |C q_dot| > 1e-10 are
    rejected; integrators disable the check because Runge-Kutta stage states
    sit O(dt^2) off the constraint manifold (C q_dot is a first integral of
    the returned field, so the drift stays at truncation level).

    M and Q come from one call of ``lagrangian_full`` through
    :func:`lagrangian_derivatives`, C and C_dot q_dot from one complex call of
    :func:`constraint_matrix`.  Returns (q_dd, lam).  Raises
    numpy.linalg.LinAlgError if the saddle matrix is numerically singular,
    for any constraint set: the solve also takes a fixed probe right-hand
    side, whose solution a rank-deficient saddle blows up past 1e8
    (``np.linalg.solve`` itself raises only on an exactly zero pivot).
    """
    q = np.asarray(q, float)
    qd = np.asarray(q_dot, float)
    C, rate = _constraint_and_rate(q, qd, p)
    if check_constraints:
        viol = np.max(np.abs(C @ qd))
        if viol > 1e-10:
            raise ConstraintViolationError(
                f"velocities violate the rolling constraints by {viol:.3e}")

    M, Q_vec = lagrangian_derivatives(lambda Q, QD: lagrangian_full(Q, QD, p), q, qd)

    n, k = qd.size, qd.size + C.shape[0]
    saddle = np.zeros((k, k))
    saddle[:n, :n] = M
    saddle[:n, n:] = C.T
    saddle[n:, :n] = C
    rhs = _rhs_template(k).copy()
    np.add(Q_vec, tau, out=rhs[:n, 0])
    np.negative(rate, out=rhs[n:, 0])
    sol = np.linalg.solve(saddle, rhs)
    if np.dot(sol[:, 1], sol[:, 1]) > _SINGULAR ** 2:
        raise np.linalg.LinAlgError("saddle matrix is numerically singular")
    return sol[:n, 0], -sol[n:, 0]


def lagrange_dalembert_rhs(q, q_dot, tau, p: Params,
                           check_constraints: bool = True) -> np.ndarray:
    """Accelerations q_dd of the constrained system (see the sibling above)."""
    qdd, _ = lagrange_dalembert_full(q, q_dot, tau, p, check_constraints)
    return qdd
