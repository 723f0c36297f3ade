"""Per-layer measurement: spans around calls into wipdyn, and replays.

The traced run wraps public wipdyn attributes from here, without touching the
package: each wrapper records one span (id, layer, parent span, start, end,
tag) into an in-memory array, and every wrapper is removed again when the
run ends.  A function is wrapped under every name the ``wipdyn`` modules bind
it to (``cli.simulate`` is ``sim.simulate``), so calls are caught whichever
module makes them.  Hot code that is private, such as the acceleration core
captured inside ``sim._full_ode``, is timed by replaying seeded states through
the module's public right-hand side instead.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import random
import statistics
import sys
import time
from array import array

import numpy as np

from wipdyn import cli, connection, model, oracle, sim, validation
from wipdyn import dynamics_full, dynamics_reduced

SPAN_FIELDS = ("id", "layer", "parent", "start_ns", "end_ns", "tag")
_ID, _LAYER, _PARENT, _START, _END, _TAG = range(len(SPAN_FIELDS))

# Per-layer metrics and units, in the order BENCHMARK.json lists them (see
# summarise).  Times of layers that only some workloads' passes call are
# shares of the pass, so an absent layer reads as a zero share rather than as
# a constant time.
PER_LAYER = {
    "cli.load_config.s": "s",
    "cli.write_trajectory_csv.share": "ratio",
    "cli.write_trajectory_csv.bytes": "bytes",
    "sim.simulate.full.share": "ratio",
    "sim.simulate.reduced.share": "ratio",
    "sim.simulate.oracle.share": "ratio",
    "sim.rk4_step.calls": "count",
    "sim.rk4_step.share": "ratio",
    "sim.rk4_step.full.us.p50": "us",
    "sim.rk4_step.full.us.p99": "us",
    "sim.rk4_step.reduced.us.p50": "us",
    "sim.rk4_step.reduced.us.p99": "us",
    "sim.rk4_step.oracle.us.p50": "us",
    "sim.rk4_step.oracle.us.p99": "us",
    "sim.overhead.s": "s",
    "sim.overhead.share": "ratio",
    "sim.tau_at.calls": "count",
    "sim.tau_at.us": "us",
    "sim.tau_at.share": "ratio",
    "dynamics_full.full_rhs.us": "us",
    "dynamics_reduced.reduced_rhs.us": "us",
    "oracle.lagrange_dalembert_rhs.calls": "count",
    "oracle.lagrange_dalembert_rhs.us": "us",
    "oracle.lagrange_dalembert_rhs.share": "ratio",
    "oracle.lagrangian_rows": "rows/call",
    "oracle.referee_err": "abs",
    "validation.compare_trajectories.share": "ratio",
    "validation.equivariance_error.share": "ratio",
    "validation.momentum_rate_error.share": "ratio",
    "validation.momentum_pairing.share": "ratio",
    "connection.curvature_fd.share": "ratio",
    "model.Params.s": "s",
    "model.total_energy.s": "s",
    "tracing_overhead": "ratio",
}


def _rows(q) -> int:
    shape = np.shape(q)
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


# (layer, owner, attribute, tag of a returned call); a tag sees the call's
# positional arguments: rows for lagrangian_full, the model for simulate and
# the bytes written for the CSV writer.
TARGETS = (
    ("cli.load_config", cli, "load_config", None),
    ("cli.write_trajectory_csv", cli, "write_trajectory_csv",
     lambda a: os.path.getsize(a[2])),
    ("sim.simulate", sim, "simulate", lambda a: sim.MODELS.index(a[0])),
    ("sim.rk4_step", sim, "rk4_step", None),
    ("sim.tau_at", sim.TorqueProfile, "tau_at", None),
    ("oracle.lagrange_dalembert_rhs", oracle, "lagrange_dalembert_rhs", None),
    ("oracle.lagrangian_full", oracle, "lagrangian_full", lambda a: _rows(a[0])),
    ("validation.compare_trajectories", validation, "compare_trajectories", None),
    ("validation.equivariance_error", validation, "equivariance_error", None),
    ("validation.momentum_rate_error", validation, "momentum_rate_error", None),
    ("validation.momentum_pairing", validation, "momentum_pairing", None),
    ("connection.curvature_fd", connection, "curvature_fd", None),
    ("model.Params", model.Params, "from_dict", None),
    ("model.total_energy", model, "total_energy", None),
)
LAYERS = tuple(t[0] for t in TARGETS)


def _bindings(owner, attr):
    """Every (namespace, name) that must be swapped to catch calls to owner.attr."""
    if isinstance(owner, type):
        return [(owner, attr)]
    fn = getattr(owner, attr)
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "wipdyn" or name.startswith("wipdyn.")]
    return [(m, name) for m in mods for name, v in list(vars(m).items()) if v is fn]


class Tracer:
    """Span recorder for the traced run.  Spans stay in memory until the end."""

    def __init__(self):
        self.spans = array("q")
        self._stack: list[int] = []
        self._ids = itertools.count()

    def _wrap(self, fn, layer: int, tag):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.extend((sid, layer, parent, t0, t1, tag(args) if tag else 0))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for layer, (_, owner, attr, tag) in enumerate(TARGETS):
                for ns, name in _bindings(owner, attr):
                    raw = vars(ns)[name]
                    saved.append((ns, name, raw))
                    if isinstance(raw, classmethod):
                        setattr(ns, name, classmethod(self._wrap(raw.__func__, layer, tag)))
                    else:
                        setattr(ns, name, self._wrap(raw, layer, tag))
            yield self
        finally:
            for ns, name, raw in reversed(saved):
                setattr(ns, name, raw)

    def table(self) -> np.ndarray:
        """Spans as rows of SPAN_FIELDS; a view, so call it once tracing ended."""
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(SPAN_FIELDS))


def summarise(tracer: Tracer, windows: list[tuple[int, int]]) -> tuple[dict, set]:
    """Per-layer metrics of the traced run, and the per-pass counts that must
    repeat exactly (rk4_step, tau_at and oracle rhs calls, lagrangian rows,
    CSV bytes).

    ``windows`` are the (start, end) perf_counter_ns of each traced pass.
    Shares, calls and seconds are per pass, from the spans inside its window,
    as the median over passes.  Per-call microseconds pool every span, the
    step probes' included, so each workload reports them for every model.
    """
    spans = tracer.table()
    layer = spans[:, _LAYER]
    dur = (spans[:, _END] - spans[:, _START]) * 1e-9
    lid = {name: i for i, name in enumerate(LAYERS)}
    of = {name: layer == i for name, i in lid.items()}

    is_sim = of["sim.simulate"]
    model_of = dict(zip(spans[is_sim, _ID].tolist(), spans[is_sim, _TAG].tolist()))
    rk4_model = np.array([model_of[s] for s in spans[of["sim.rk4_step"], _PARENT].tolist()])
    rk4_us = dur[of["sim.rk4_step"]] * 1e6
    rhs = of["oracle.lagrange_dalembert_rhs"]
    lag = of["oracle.lagrangian_full"] & np.isin(spans[:, _PARENT], spans[rhs, _ID])
    out = {"sim.tau_at.us": float(np.median(dur[of["sim.tau_at"]])) * 1e6,
           "oracle.lagrange_dalembert_rhs.us": float(np.median(dur[rhs])) * 1e6,
           "oracle.lagrangian_rows": int(spans[lag, _TAG].sum()) / int(rhs.sum())}
    for k, m in enumerate(sim.MODELS):
        p50, p99 = np.percentile(rk4_us[rk4_model == k], [50, 99])
        out[f"sim.rk4_step.{m}.us.p50"], out[f"sim.rk4_step.{m}.us.p99"] = float(p50), float(p99)

    per_pass, counts = [], set()
    for start, end in windows:
        inside = (spans[:, _START] >= start) & (spans[:, _END] <= end)
        wall = (end - start) * 1e-9
        t = dict(zip(LAYERS, np.bincount(layer[inside], weights=dur[inside],
                                         minlength=len(LAYERS)).tolist()))
        n = dict(zip(LAYERS, np.bincount(layer[inside], minlength=len(LAYERS)).tolist()))
        rows = int(spans[inside & lag, _TAG].sum())
        csv_bytes = int(spans[inside & of["cli.write_trajectory_csv"], _TAG].sum())
        counts.add((n["sim.rk4_step"], n["sim.tau_at"],
                    n["oracle.lagrange_dalembert_rhs"], rows, csv_bytes))
        overhead = t["sim.simulate"] - t["sim.rk4_step"]
        row = {f"sim.simulate.{m}.share": float(dur[inside & is_sim & (spans[:, _TAG] == k)].sum()) / wall
               for k, m in enumerate(sim.MODELS)}
        row.update({
            "cli.load_config.s": t["cli.load_config"],
            "cli.write_trajectory_csv.share": t["cli.write_trajectory_csv"] / wall,
            "cli.write_trajectory_csv.bytes": csv_bytes,
            "sim.rk4_step.calls": n["sim.rk4_step"],
            "sim.rk4_step.share": t["sim.rk4_step"] / wall,
            "sim.overhead.s": overhead,
            "sim.overhead.share": overhead / t["sim.simulate"],
            "sim.tau_at.calls": n["sim.tau_at"],
            "sim.tau_at.share": t["sim.tau_at"] / wall,
            "oracle.lagrange_dalembert_rhs.calls": n["oracle.lagrange_dalembert_rhs"],
            "oracle.lagrange_dalembert_rhs.share": t["oracle.lagrange_dalembert_rhs"] / wall,
            "validation.compare_trajectories.share": t["validation.compare_trajectories"] / wall,
            "validation.equivariance_error.share": t["validation.equivariance_error"] / wall,
            "validation.momentum_rate_error.share": t["validation.momentum_rate_error"] / wall,
            "validation.momentum_pairing.share": t["validation.momentum_pairing"] / wall,
            "connection.curvature_fd.share": t["connection.curvature_fd"] / wall,
            "model.Params.s": t["model.Params"],
            "model.total_energy.s": t["model.total_energy"],
        })
        per_pass.append(row)
    out.update({k: float(statistics.median(r[k] for r in per_pass)) for k in per_pass[0]})
    return out, counts


REPLAY_STATES = 200
REPLAY_REPEATS = 5


def replay_rhs(traj, profile, p, seed: int) -> tuple[float, float]:
    """Median microseconds per call of the full and reduced public rhs, over
    seeded states taken from a full-model trajectory."""
    rng = random.Random(f"replay/{seed}")
    picks = sorted(rng.sample(range(len(traj)), min(REPLAY_STATES, len(traj))))
    cases = []
    for k in picks:
        state = model.FullState.constrained(*traj.states[k].tolist(), p)
        tau = profile.tau_at(float(traj.t[k]))
        cases.append((state, model.Controls(*tau),
                      dynamics_reduced.full_to_reduced(state, p), sim.u_from_tau(*tau, p)))
    clock = time.perf_counter_ns
    full_ns, red_ns = [], []
    for _ in range(REPLAY_REPEATS):
        for state, controls, red, (u1, u2) in cases:
            t0 = clock()
            dynamics_full.full_rhs(state, controls, p)
            t1 = clock()
            dynamics_reduced.reduced_rhs(red, u1, u2, p)
            t2 = clock()
            full_ns.append(t1 - t0)
            red_ns.append(t2 - t1)
    return statistics.median(full_ns) * 1e-3, statistics.median(red_ns) * 1e-3


def referee_error(p, seed: int, n: int = 50) -> float:
    """max |q_dd(oracle) - accelerations_q6| over seeded constrained states."""
    rng = random.Random(f"referee/{seed}")
    u = rng.uniform
    worst = 0.0
    for _ in range(n):
        s = model.FullState.constrained(u(-1, 1), u(-1, 1), u(-math.pi, math.pi),
                                        u(-1, 1), u(-2, 2), u(-2, 2),
                                        u(-1, 1), u(-1, 1), u(-1, 1), p)
        tau1, tau2 = u(-0.1, 0.1), u(-0.1, 0.1)
        qdd = oracle.lagrange_dalembert_rhs(s.q, s.q_dot,
                                            np.array([0.0, 0.0, 0.0, 0.0, tau1, tau2]), p)
        ref = dynamics_full.accelerations_q6(s, model.Controls(tau1, tau2), p)
        worst = max(worst, float(np.max(np.abs(qdd - ref))))
    return worst
