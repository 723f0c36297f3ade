"""Workload inputs drawn from a seed, one pass of each workload, and its checks.

Every workload is a closed loop: one caller in one thread issues the next call
only after the previous one returned.

* ``scenario``: ``wipdyn simulate`` through ``cli.main``, full model then
  reduced model, on a 10 s forced, turning-and-falling run at dt = 1e-3.  The
  torques replay a 50 Hz controller (500 piecewise-constant segments), so
  torque lookup and CSV output carry real weight.
* ``compare``: ``wipdyn compare`` on a 0.5 s run with one torque segment; the
  oracle right-hand side dominates.
* ``check``: the structural suite behind ``wipdyn check``
  (``run_structural_checks``) with its seed drawn from the benchmark seed:
  14 short constant-torque ``simulate`` calls at dt = 1e-4, dominated by
  ``rk4_step``.  It is the control for ``scenario``: a torque-lookup or CSV
  gain shows only there, an accel-core gain in both.

Passes time only the calls into wipdyn; checking their outputs is untimed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wipdyn import cli, sim, validation
from wipdyn.dynamics_reduced import full_to_reduced
from wipdyn.model import FullState, Params

from speed import Gauge

WORKLOADS = ("scenario", "compare", "check")

# The compare tolerance; scenario's full and reduced runs must agree within
# it too (they differ by about 1e-8 at this size).
MAX_ABS = 1e-6
# The oracle costs ~2.5 ms per step, so its step probe stops after this many.
ORACLE_PROBE_STEPS = 300
# CSV columns shared by every model: x, y, theta, alpha, phi, alpha_dot, p1, p2.
SHARED_COLUMNS = slice(1, 9)


@dataclass(frozen=True)
class Inputs:
    """Everything a workload consumes, generated from (workload, seed) alone."""

    workload: str
    seed: int
    config: dict
    check_seed: int


def _initial(rng: random.Random) -> dict:
    """Tilted start, turning: the body falls and swings through, well below
    the upright separatrix so the models stay comparable for 10 s."""
    phi1_dot = rng.uniform(-1.0, 1.0)
    return {"x": 0.0, "y": 0.0, "theta": rng.uniform(-math.pi, math.pi),
            "alpha": rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.6),
            "phi1": 0.0, "phi2": 0.0, "alpha_dot": rng.uniform(-0.1, 0.1),
            "phi1_dot": phi1_dot,
            "phi2_dot": phi1_dot + rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)}


def _controller_replay(rng: random.Random, segments: int, rate_hz: float) -> list:
    """Piecewise-constant torques as a bounded random walk per wheel."""
    tau1 = tau2 = 0.0
    out = []
    for k in range(segments):
        tau1 = max(-0.05, min(0.05, tau1 + rng.gauss(0.0, 0.01)))
        tau2 = max(-0.05, min(0.05, tau2 + rng.gauss(0.0, 0.01)))
        out.append({"t_start": k / rate_hz, "tau1": tau1, "tau2": tau2})
    return out


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    config = {"params": Params.default().to_dict(), "initial": _initial(rng),
              "tolerances": {"max_abs": MAX_ABS}}
    if workload == "scenario":
        config["torques"] = _controller_replay(rng, 500, 50.0)
        config["sim"] = {"T": 10.0, "dt": 1e-3, "model": "full"}
    else:
        config["torques"] = _controller_replay(rng, 1, 1.0)
        # check's own runs use dt = 1e-4; its step probes run the same way
        config["sim"] = {"T": 0.5, "dt": 1e-3 if workload == "compare" else 1e-4,
                         "model": "full"}
    return Inputs(workload, seed, config, rng.randrange(2 ** 32))


@dataclass(frozen=True)
class Scenario:
    """Library objects built from a config, as the CLI builds them."""

    p: Params
    full0: FullState
    red0: object
    profile: sim.TorqueProfile
    T: float
    dt: float


def build(config: dict) -> Scenario:
    p = Params.from_dict(config["params"])
    full0 = FullState.constrained(**config["initial"], p=p)
    profile = sim.TorqueProfile(tuple((s["t_start"], s["tau1"], s["tau2"])
                                      for s in config["torques"]))
    return Scenario(p, full0, full_to_reduced(full0, p), profile,
                    config["sim"]["T"], config["sim"]["dt"])


class Runner:
    """Runs and verifies passes of one workload inside a work directory.

    The first pass is checked in full (exit codes, row counts, agreement,
    tolerances); every later pass must repeat its outputs byte for byte.
    ``reference`` maps output names to their SHA-256; a runner can adopt the
    reference of another process's first pass.
    """

    def __init__(self, inputs: Inputs, work: Path):
        self.inputs = inputs
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(inputs.config, indent=1))
        self.scenario = build(inputs.config)
        self.reference: dict[str, str] | None = None
        self.last_full = None
        self.last_window = (0, 0)
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: check failed: {self.inputs.workload}: {what}", file=sys.stderr)

    # -- passes -------------------------------------------------------------

    def _cli(self, what: str, argv: list[str]) -> float:
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
        self.check(f"wipdyn {what} exits 0 (got {code})", code == 0)
        return seconds

    def _scenario(self):
        seconds, outputs = 0.0, {}
        for model in ("full", "reduced"):
            out = self.work / f"{model}.csv"
            seconds += self._cli(f"simulate --model {model}",
                                 ["simulate", "--config", str(self.config_path),
                                  "--model", model, "--out", str(out), "--quiet"])
            outputs[out.name] = out.read_bytes()
        return seconds, outputs

    def _compare(self):
        out = self.work / "compare.csv"
        seconds = self._cli("compare", ["compare", "--config", str(self.config_path),
                                        "--out", str(out), "--quiet"])
        return seconds, {out.name: out.read_bytes()}

    def _check(self):
        t0 = time.perf_counter()
        p = Params.from_dict(cli.load_config(str(self.config_path))["params"])
        lines = validation.render_check_lines(
            validation.run_structural_checks(p, seed=self.inputs.check_seed))
        seconds = time.perf_counter() - t0
        return seconds, {"check.txt": "\n".join(lines).encode()}

    def run_pass(self) -> float:
        """One pass of the workload; returns the seconds spent inside wipdyn.
        ``last_window`` keeps the pass's perf_counter_ns start and end."""
        start = time.perf_counter_ns()
        seconds, outputs = getattr(self, "_" + self.inputs.workload)()
        self.last_window = (start, time.perf_counter_ns())
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
        if self.reference is None:
            self.reference = digests
            self._verify_content(outputs)
        else:
            for name, digest in digests.items():
                self.check(f"{name} repeats byte for byte", digest == self.reference.get(name))
        return seconds

    def _verify_content(self, outputs: dict[str, bytes]) -> None:
        s = self.scenario
        if self.inputs.workload == "scenario":
            tables = {}
            for name, data in outputs.items():
                rows = data.decode().splitlines()[1:]
                self.check(f"{name} has n_samples rows",
                           len(rows) == sim.n_samples(s.T, s.dt))
                tables[name] = np.array([[float(v) for v in r.split(",")] for r in rows])
            full, red = tables["full.csv"], tables["reduced.csv"]
            worst = (float(np.max(np.abs(full[:, SHARED_COLUMNS] - red[:, SHARED_COLUMNS])))
                     if full.shape == red.shape else math.inf)
            self.check(f"full and reduced agree within {MAX_ABS:g} (max {worst:.3e})",
                       worst <= MAX_ABS)
        elif self.inputs.workload == "compare":
            rows = outputs["compare.csv"].decode().splitlines()[1:]
            errors = [float(r.split(",")[2]) for r in rows]
            self.check("compare reports 16 pairs within max_abs",
                       len(errors) == 16 and max(errors) <= MAX_ABS)
        else:
            for line in outputs["check.txt"].decode().splitlines():
                self.check(line, line.startswith("PASS "))

    # -- step probes --------------------------------------------------------

    def probe(self, model: str) -> float:
        """Microseconds per RK4 step of the model's simulate on this
        workload's own inputs (the oracle over its first steps only)."""
        s = self.scenario
        T = min(s.T, ORACLE_PROBE_STEPS * s.dt) if model == "oracle" else s.T
        steps = sim.n_samples(T, s.dt) - 1
        t0 = time.perf_counter()
        traj = sim.simulate(model, s.red0 if model == "reduced" else s.full0,
                            s.profile, T, s.dt, s.p)
        us = (time.perf_counter() - t0) / steps * 1e6
        self.check(f"{model} probe gives {steps + 1} finite samples",
                   len(traj) == steps + 1 and bool(np.isfinite(traj.states).all()))
        if model == "full":
            self.last_full = traj
        return us


def rounds(runner: Runner, seconds: float, min_rounds: int, gauge: Gauge):
    """Yield (pass seconds, probe us per model) until the time is up and at
    least ``min_rounds`` rounds ran.

    Pass and probes alternate, so slow drift of the machine reaches both
    alike; both are scaled to nominal machine speed by ``gauge``.
    """
    end = time.perf_counter() + seconds
    n = 0
    while n < min_rounds or time.perf_counter() < end:
        seconds_raw, factor = gauge.scale(runner.run_pass)
        steps = {}
        for model in sim.MODELS:
            us, f = gauge.scale(functools.partial(runner.probe, model))
            steps[model] = us * f
        yield seconds_raw * factor, steps
        n += 1
