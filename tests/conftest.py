import math

import numpy as np
import pytest

from wipdyn import FullState, Params, lagrangian_full


@pytest.fixture(scope="session")
def p():
    return Params.default()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def random_constrained(p, rng):
    """Factory for constrained full states with unit-order velocities."""

    def make():
        return FullState.constrained(
            rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
            rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 1.0),
            rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
            rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
            p)

    return make


@pytest.fixture()
def velocity_gradient(p):
    """dL/dq_dot of lagrangian_full by central differences with steps
    h_i = max(1, |q_dot_i|): L is quadratic in q_dot, so they are exact up to
    round-off."""

    def grad(q, qd):
        hs = np.maximum(1.0, np.abs(qd))
        steps = np.diag(hs)
        return (lagrangian_full(q, qd + steps, p)
                - lagrangian_full(q, qd - steps, p)) / (2.0 * hs)

    return grad


@pytest.fixture()
def kernel_fetches(monkeypatch):
    """watch(module) records every fetch of the module's per-Params rhs kernel."""

    def watch(module):
        calls = []
        kernel = module._kernel

        def counting(params):
            calls.append(params)
            return kernel(params)

        monkeypatch.setattr(module, "_kernel", counting)
        return calls

    return watch
