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

All of these rows form one table, built once per dimension and stored ready
to use (at 46 rows a numpy call costs more than its arithmetic): velocity
offsets and complex-step directions, scaled by i h, coordinate-major,
(n, rows), so each coordinate f reads is contiguous, and the polarisation
weights as one (n^2, m) matrix.  :func:`lagrangian_derivatives` evaluates f
once on every row and reduces M (one product) from the real part of the
polarisation block and Q from the imaginary part of the rest;
:func:`lagrange_dalembert_full` calls it on ``lagrangian_full`` (46 rows).
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
                     0.0, 0.0, 1.0, 0.0, p.r / p.d, -p.r / p.d]).reshape(3, 6)


def _constraint_and_rate(q: np.ndarray, qd: np.ndarray, p: Params):
    """(C(q), C_dot q_dot) from one complex call C(q + i h q_dot)."""
    C = constraint_matrix(q + (1j * CS_STEP) * qd, p)
    return C.real, C.imag @ qd / CS_STEP


@functools.cache
def _rows(n: int):
    """Row table for dimension n: (W, vel, pos, along), read-only, shared.

    Row r is evaluated at (q + pos_r + along_r q_dot, q_dot + vel_r h_v), with
    h_v = max(1, |q_dot|); pos and along carry the factor i h.  The first
    m = 1 + 2n + n(n-1)/2 rows are the polarisation rows (velocity offsets 0,
    +e_i, -e_i, then e_i + e_j for i < j), reduced by h_i h_j M_ij =
    W[n i + j] . values; then n rows along e_j, and 2n rows along q_dot at
    velocity offsets +e_i, -e_i.
    """
    eye, zero = np.eye(n), np.zeros((n, n))
    i, j = np.triu_indices(n, 1)
    k = np.arange(n)
    m = 1 + 2 * n + i.size
    pair = np.arange(1 + 2 * n, m)
    # the polarisation formulas of the module docstring, as weights on
    # (L(v), L(v + h_i e_i), L(v - h_i e_i), L(v + h_i e_i + h_j e_j))
    w = np.zeros((n, n, m))
    w[k, k, 0] = -2.0
    w[k, k, 1 + k] = w[k, k, 1 + n + k] = 1.0
    for a, b in ((i, j), (j, i)):
        w[a, b, 0] = w[a, b, pair] = 1.0
        w[a, b, 1 + a] = w[a, b, 1 + b] = -1.0
    vel = np.concatenate([np.zeros((1, n)), eye, -eye, eye[i] + eye[j], zero, eye, -eye])
    pos = np.concatenate([np.zeros((m, n)), eye, zero, zero])
    along = np.concatenate([np.zeros(m + n), np.ones(2 * n)])
    table = (w.reshape(n * n, m), vel.T.copy(), (1j * CS_STEP) * pos.T.copy(),
             (1j * CS_STEP) * along)
    for a in table:
        a.setflags(write=False)
    return table


def lagrangian_derivatives(f, q, q_dot):
    """(M, Q): M = d2f/dq_dot2 and Q = df/dq - (d2f/dq_dot dq) q_dot.

    Exact to rounding for f analytic in q and quadratic in q_dot.  f(Q, QD)
    must accept stacked (N, n) arrays (transposed views), Q complex, and
    return (N,); it is called once, on all 1 + 2n + n(n-1)/2 + 3n rows.
    """
    q = np.asarray(q, float)
    qd = np.asarray(q_dot, float)
    n = qd.size
    W, vel, pos, along = _rows(n)
    h = np.maximum(1.0, np.abs(qd))
    Q = q[:, None] + pos
    Q += qd[:, None] * along
    QD = vel * h[:, None]
    QD += qd[:, None]
    vals = f(Q.T, QD.T)
    m = W.shape[-1]
    M = (W @ vals[:m].real).reshape(n, n) / (h[:, None] * h)
    g = vals[m:].imag / CS_STEP
    return M, g[:n] - (g[n:2 * n] - g[2 * n:]) / (2.0 * h)


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
