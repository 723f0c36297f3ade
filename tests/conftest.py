import math

import numpy as np
import pytest

from wipdyn import FullState, Params


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
