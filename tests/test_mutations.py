"""Kill table of ``wipdyn check``: text edits of a model's ``_BODY`` or of
``sim._RK4_STAGES``, each applied alone through ``fresh_kernels``, and the
lines that each must fail, with their values at seed 0 on the default set.
A body edit reaches ``ode_rhs``, the column lines and the fused step alike,
and an edit reaches them after a warm run with no cache cleared.
Run alone: ``python -m pytest tests/test_mutations.py``."""

import numpy as np
import pytest

from wipdyn import (FullState, Params, TorqueProfile, rk4_step, run_structural_checks,
                    simulate)
from wipdyn import dynamics_full as full, dynamics_reduced as reduced, model, sim

PUSH = "full vector field vs reduced model (8 shared rates)"
EQUI = "SE(2) x S1 equivariance (full and reduced)"
DRIFT = "energy drift (zero torque, extrapolated to dt = 1e-4)"
ORDER = "energy drift order short of 4 (zero torque)"
POWER = "power balance (forced)"
WORK = "integrated power (forced)"
YAW = "integrated yaw relation"

# id: (owner, name, old, new, {failing line: value}); every other line passes
KILLS = {
    "reduced-yaw-forcing-dropped": (reduced, "_BODY", "u2 - kxi", "-kxi", {PUSH: 0.14}),
    "reduced-u1-reaction-dropped": (reduced, "_BODY", " - kappa / h * u1", "",
                                    {PUSH: 3.9e-2}),
    "reduced-gravity-scaled": (reduced, "_BODY", "mgb * sa", "1.01 * mgb * sa", {PUSH: 1.49e-2}),
    "reduced-reads-y": (reduced, "_BODY", "xi1 * sin(th)", "xi1 * sin(th) + 1e-6 * y[1]",
                        {EQUI: 2.91e-6, PUSH: 2.38e-8}),
    "reduced-gravity-reads-heading": (reduced, "_BODY", "mgb * sa",
                                      "mgb * sa * (1 + 1e-6 * sin(th))",
                                      {EQUI: 5.92e-5, PUSH: 4.0e-7}),
    "reduced-tilt-rate-squared-sign": (reduced, "_BODY", "a_1 * ald", "-a_1 * ald",
                                       {PUSH: 73.5}),
    # A(alpha) without its factor r: x and y move at the wheel-angle rate
    "reduced-connection-drops-r": (reduced, "_BODY", "xi1 = r * xi4", "xi1 = xi4", {PUSH: 0.9}),
    # phi1 and phi2 swapped in the yaw row
    "full-yaw-wheels-swapped": (full, "_BODY", "r_d * dphi", "-r_d * dphi",
                                {PUSH: 0.674, YAW: 0.135}),
    "full-heading-shifted": (full, "_BODY", "v * sin(th)", "v * sin(th + 1e-6)",
                             {EQUI: 8.61e-8, PUSH: 2.03e-6}),
    "full-gravity-reads-heading": (full, "_BODY", "mgb * sa", "mgb * sa * (1 + 1e-6 * cos(th))",
                                   {EQUI: 6.77e-5, DRIFT: 1.71e-6, ORDER: 3.92, PUSH: 1.46e-6,
                                    POWER: 9.28e-5, WORK: 2.04e-3}),
    "full-tilt-rate-squared-sign": (full, "_BODY", "quad = k_0", "quad = -k_0",
                                    {DRIFT: 10.6, ORDER: 4.00, PUSH: 27.6, POWER: 794,
                                     WORK: 556}),
    "full-gravity-scaled": (full, "_BODY", "+ mgb * sa", "+ 1.01 * mgb * sa",
                            {DRIFT: 2.02e-2, ORDER: 4.00, PUSH: 1.52e-2, POWER: 0.961,
                             WORK: 18.1}),
    "full-torques-scaled": (full, "_BODY", "tau1 + curv * f2d + cor + quad\n    f_2 = tau2",
                            "0.998 * tau1 + curv * f2d + cor + quad\n    f_2 = 0.998 * tau2",
                            {PUSH: 2.8e-4, POWER: 1.35e-3, WORK: 2.0e-3}),
    "full-coriolis-dropped": (full, "_BODY", "cor = rithp * ald * dphi", "cor = 0.0",
                              {PUSH: 1.32, POWER: 0.485, WORK: 0.183}),
    "full-tau1-scaled": (full, "_BODY", "f_1 = tau1", "f_1 = 0.998 * tau1",
                         {PUSH: 2.0e-4, POWER: 2.15e-3, WORK: 1.23e-3}),
    "full-mass-matrix-k-sin": (full, "_BODY", "k = k_0 * ca", "k = k_0 * sa",
                               {DRIFT: 1.54, ORDER: 4.00, PUSH: 1.35, POWER: 32.4, WORK: 38.4}),
    # k4 at y + dt k2: third order, with a drift the drift bound passes
    "stages-k4-at-k2": (sim, "_RK4_STAGES", "[<y{i} + dt * k3_{i}>]", "[<y{i} + dt * k2_{i}>]",
                        {ORDER: 1.00}),
    "stages-k3-at-k2": (sim, "_RK4_STAGES", "[<y{i} + half * k2_{i}>]", "[<y{i} + dt * k2_{i}>]",
                        {DRIFT: 9.73e-4, ORDER: 3.00, WORK: 2.51}),
    "stages-weights-1-3-1-1": (sim, "_RK4_STAGES", "((k1_{i} + 2.0 * k2_{i}) + 2.0 * k3_{i})",
                               "((k1_{i} + 3.0 * k2_{i}) + 1.0 * k3_{i})",
                               {DRIFT: 5.31e-8, ORDER: 1.90, WORK: 5.25e-3}),
}


@pytest.mark.parametrize("edit", KILLS)
def test_check_fails_the_lines_that_read_the_edit(fresh_kernels, edit):
    *text, failed = KILLS[edit]
    fresh_kernels(*text)
    values = {r.name: r.value for r in run_structural_checks(Params.default()) if not r.passed}
    assert values == pytest.approx(failed, rel=0.05)


def test_a_body_edit_reaches_ode_rhs_the_columns_and_the_fused_step(p, fresh_kernels):
    # every cache is warm on the unedited text before the edit
    s = FullState.constrained(0.0, 0.0, 0.3, 0.2, 0.0, 0.0, 0.1, 0.5, -0.4, p)
    y, tau = [getattr(s, n) for n in model.LAYOUTS["full"]], (0.01, -0.02)
    simulate("full", s, TorqueProfile.constant(*tau), 0.01, 1e-3, p)
    before = full.ode_rhs(y, *tau, p)
    fresh_kernels(*KILLS["full-tilt-rate-squared-sign"][:4])
    after = full.ode_rhs(y, *tau, p)
    assert after[6:] != before[6:]
    columns = model._on_columns(full._kernel(p))(np.array(y)[:, None], *tau)
    assert [float(c[0]) for c in columns] == list(after)
    stages, forces = sim._stepper("full", p, len(y))
    f, ode = forces(*tau, p), full._kernel(p)
    ref = rk4_step(sim._rk4_stages(len(y)), lambda t, yy: ode(yy, *f), y, 0.0, 1e-3)
    assert np.array(rk4_step(stages, f, y, 0.0, 1e-3)).tobytes() == np.array(ref).tobytes()


def test_edits_after_a_warm_run_reach_simulate_and_ode_rhs(p, fresh_kernels):
    # no cache is cleared between the warm run and each edit
    s = FullState.constrained(0.0, 0.0, 0.3, 0.2, 0.0, 0.0, 0.1, 0.5, -0.4, p)
    y, tau = [getattr(s, n) for n in model.LAYOUTS["full"]], (0.01, -0.02)

    def run():
        traj = simulate("full", s, TorqueProfile.constant(*tau), 0.01, 1e-3, p)
        return traj.states[-1].tolist(), full.ode_rhs(y, *tau, p)

    warm = run()
    fresh_kernels(*KILLS["full-tilt-rate-squared-sign"][:4])
    body = run()
    assert body[0] != warm[0] and body[1] != warm[1]
    fresh_kernels(*KILLS["stages-k4-at-k2"][:4])
    stages = run()
    assert stages[0] != body[0] and stages[1] == body[1]
