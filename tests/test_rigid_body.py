"""``lagrangian_full`` against an independent derivation of L from the rigid
bodies' geometry (``conftest.rigid_body_lagrangian``).

Every formulation reads its inertia scalars from ``model``, so a term they
share (such as the wheels' yaw inertia) is invisible to cross-model checks;
this comparison sees it.
"""

import cmath

import numpy as np
from hypothesis import given

from wipdyn import lagrangian_full
from wipdyn.oracle import CS_STEP

from conftest import rigid_body_lagrangian
from test_properties import case, property_settings

# |L - L_ref| <= REL (T + |V|), T and V from the assembly: relative to the
# size of the terms L sums, since L itself passes through zero.  Worst over
# 20000 random states and parameter sets: 6.3e-16, and 1.8e-15 for the
# complex-step part (scaled by h max|q_dot| as well)
REL = 1e-13


def _scale(q, qd, p, sin=np.sin, cos=np.cos):
    """T + |V| of the assembly at (q, q_dot)."""
    V = -rigid_body_lagrangian(q, np.zeros(6), p, sin, cos)
    return abs(rigid_body_lagrangian(q, qd, p, sin, cos) + V) + abs(V)


def _random_rows(rng, n=200):
    return rng.uniform(-3.0, 3.0, (n, 6)), rng.uniform(-2.0, 2.0, (n, 6))


def _assert_matches(q, qd, p):
    err = abs(lagrangian_full(q, qd, p) - rigid_body_lagrangian(q, qd, p))
    assert err <= REL * _scale(q, qd, p)


def test_matches_lagrangian_full_on_real_states(p, rng):
    for q, qd in zip(*_random_rows(rng)):
        _assert_matches(q, qd, p)


def test_matches_lagrangian_full_on_complex_step_rows(p, rng):
    # the oracle evaluates L at q + i h q_dot; the imaginary part is
    # h dL/dq . q_dot
    for q, qd in zip(*_random_rows(rng)):
        qc = q + 1j * CS_STEP * qd
        err = lagrangian_full(qc, qd, p) - rigid_body_lagrangian(qc, qd, p, cmath.sin, cmath.cos)
        scale = REL * _scale(q, qd, p)
        assert abs(err.real) <= scale
        assert abs(err.imag) <= scale * CS_STEP * np.max(np.abs(qd))


@property_settings
@given(case())
def test_matches_lagrangian_full_on_random_parameter_sets(c):
    # the case's constrained state and an unconstrained velocity
    p, s, _ = c
    for qd in (s.q_dot, np.array([0.7, -1.3, 1.1, -0.4, 1.9, -0.6])):
        _assert_matches(s.q, qd, p)
