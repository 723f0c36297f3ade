"""Scenario runner: simulate, compare and check from a JSON config.

Config layout (all blocks are strict: unknown keys are rejected)::

    {
      "params":  { ... all Params fields ... },
      "initial": { reduced form: x, y, theta, phi, alpha, alpha_dot, p1, p2
                   or full form: x, y, theta, alpha, phi1, phi2,
                                 alpha_dot, phi1_dot, phi2_dot },
      "torques": [ {"t_start": 1.0, "tau1": 0.0875, "tau2": 0.1125}, ... ],
      "sim":     { "T": 5.0, "dt": 0.001, "model": "full" },
      "tolerances": { "max_abs": 1e-4 }
    }

The initial block is auto-converted to whatever representation the chosen
model needs.  :func:`_scenario` checks each block's shape and keys and reads
the initial and sim values as finite numbers; ``Params``, the states,
``TorqueProfile`` (the one check of the torque values) and ``n_samples`` check
the values they hold; a tolerances block, which only ``compare`` requires, is
read whenever present.  A bad value exits 2 and names its block.  ``check``
runs its fixed suite on the params block alone (exit 2 before any line).  Exit
codes: 0 success, 2 config error, 3 simulation failure, 4 tolerance exceeded /
structural check failure, 5 output cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from .model import LAYOUTS, FullState, Params, ReducedState, _finite, _strict_keys
from .dynamics_reduced import full_to_reduced, reduced_to_full
from .sim import MODELS, SimulationError, TorqueProfile, n_samples, simulate
from .validation import (compare_trajectories, render_check_lines,
                         run_structural_checks)

__all__ = ["main", "entry", "ConfigError", "load_config", "write_trajectory_csv"]

CSV_HEADER = "t,x,y,theta,alpha,phi,alpha_dot,p1,p2,E,res_x,res_y,res_theta"
_CSV_ROW = ",".join(["%.17g"] * len(CSV_HEADER.split(","))) + "\n"
_CSV_SHARED = CSV_HEADER.split(",")[1:9]  # the shared observables, in CSV order
_CSV_BLOCK = 512  # rows per % formatting: one per row cost 11% more time


class ConfigError(ValueError):
    """Invalid scenario configuration."""


def load_config(path: str) -> dict:
    """The config at path: its blocks known and the required ones present, values unchecked."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # too deep, or an int past str's digit limit
        raise ConfigError(f"config {path!r}: cannot parse: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r}: top level must be an object")
    allowed = {"params", "initial", "torques", "sim", "tolerances"}
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown config blocks: {', '.join(unknown)}")
    for block in ("params", "initial", "sim"):
        if block not in cfg:
            raise ConfigError(f"missing config block {block!r}")
    return cfg


def _object(data, name: str) -> dict:
    """data if it is a JSON object, else ConfigError '<name> must be an object'."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be an object")
    return data


class _Block(contextlib.AbstractContextManager):
    """The error context of a config block: a ValueError, TypeError or
    OverflowError raised inside leaves as a ConfigError '<name> block: ...'."""

    def __init__(self, name: str):
        self.name = name

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (ValueError, TypeError, OverflowError)) and kind is not ConfigError:
            raise ConfigError(f"{self.name} block: {exc}") from exc


def _floats(data: dict, keys) -> dict:
    """data's values at exactly keys (``model._strict_keys``), each a finite float."""
    _strict_keys(data, keys)
    return {k: _finite(data[k], k) for k in keys}


def write_trajectory_csv(traj, p: Params, path: str) -> None:
    """Fixed-header CSV, one row per sample, 17 significant digits, LF endings."""
    cols = (traj.t, *map(traj.column, _CSV_SHARED), traj.energy, traj.residuals)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for i in range(0, len(traj), _CSV_BLOCK):  # not one (N, 13) copy: 1 MB at 10,001 rows
            block = np.column_stack([c[i:i + _CSV_BLOCK] for c in cols])
            fh.write((_CSV_ROW * len(block)) % tuple(block.ravel().tolist()))


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"cannot write output {path}: {exc}", file=sys.stderr)
    return 5


def _scenario(cfg: dict) -> tuple:
    """(p, full and reduced initial states, profile, T, dt, model, max_abs or None)."""
    with _Block("params"):
        p = Params.from_dict(_object(cfg["params"], "params block"))
    initial = _object(cfg["initial"], "initial block")
    form = "reduced" if "p1" in initial or "phi" in initial else "full"
    with _Block(f"initial ({form} form)"):
        vals = _floats(initial, LAYOUTS[form])
        if form == "reduced":
            red = ReducedState(**vals)
            full = reduced_to_full(red, p)
        else:
            full = FullState.constrained(**vals, p=p)
            red = full_to_reduced(full, p)
    segs = cfg.get("torques", [])
    if not isinstance(segs, list):
        raise ConfigError("torques block must be a list of segments")
    for i, seg in enumerate(segs):  # shapes and keys: TorqueProfile checks the values
        with _Block(f"torques[{i}]"):
            _strict_keys(_object(seg, f"torques[{i}]: each segment"), ("t_start", "tau1", "tau2"))
    with _Block("torques"):
        profile = TorqueProfile(tuple((s["t_start"], s["tau1"], s["tau2"]) for s in segs))
    sim = _object(cfg["sim"], "sim block")
    with _Block("sim"):
        T, dt = _floats({k: v for k, v in sim.items() if k != "model"}, ("T", "dt")).values()
        model = sim.get("model", "full")
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        n_samples(T, dt)
    tol = None
    if "tolerances" in cfg:
        with _Block("tolerances"):
            tol = _floats(_object(cfg["tolerances"], "tolerances block"), ("max_abs",))["max_abs"]
            if tol < 0.0:
                raise ValueError(f"max_abs must be >= 0, got {tol!r}")
    return p, full, red, profile, T, dt, model, tol


def cmd_simulate(args) -> int:
    p, full0, red0, profile, T, dt, model, _ = _scenario(load_config(args.config))
    model = args.model or model
    initial = red0 if model == "reduced" else full0
    traj = simulate(model, initial, profile, T, dt, p)
    try:
        write_trajectory_csv(traj, p, args.out)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    _say(args, f"wrote {len(traj)} samples of the {model} model to {args.out}")
    return 0


def cmd_compare(args) -> int:
    p, full0, red0, profile, T, dt, _, tol = _scenario(load_config(args.config))
    if tol is None:
        raise ConfigError("compare needs a tolerances block with a max_abs entry")

    runs = {model: simulate(model, red0 if model == "reduced" else full0, profile, T, dt, p)
            for model in ("full", "reduced", "oracle")}

    lines = ["pair,variable,max_abs,rms"]
    ok = True
    for other in ("reduced", "oracle"):
        stats = compare_trajectories(runs["full"], runs[other])
        for name, st in stats.items():
            lines.append(f"full-{other},{name},{st.max_abs:.17g},{st.rms:.17g}")
            if st.max_abs > tol:
                ok = False
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        return _cannot_write(args.out, exc)
    _say(args, "\n".join(lines))
    _say(args, f"tolerance max_abs = {tol:g}: {'OK' if ok else 'EXCEEDED'}")
    return 0 if ok else 4


def cmd_check(args) -> int:
    p = _scenario(load_config(args.config))[0]  # every block checked before any line
    results = run_structural_checks(p)
    for line in render_check_lines(results):
        _say(args, line)
    return 0 if all(r.passed for r in results) else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wipdyn",
        description="Wheeled inverted pendulum scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    sim_p = sub.add_parser("simulate", help="integrate one model, write a CSV trajectory")
    sim_p.add_argument("--config", required=True)
    sim_p.add_argument("--model", choices=MODELS, help="override the sim.model config entry")
    sim_p.add_argument("--out", required=True)
    sim_p.add_argument("--quiet", action="store_true")
    sim_p.set_defaults(func=cmd_simulate)

    cmp_p = sub.add_parser("compare", help="run full, reduced and oracle; report errors")
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--out", required=True)
    cmp_p.add_argument("--quiet", action="store_true")
    cmp_p.set_defaults(func=cmd_compare)

    chk_p = sub.add_parser("check", help="run the structural validation suite")
    chk_p.add_argument("--config", required=True)
    chk_p.add_argument("--quiet", action="store_true")
    chk_p.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a grid that n_samples passes but no allocation can hold
        print(f"config error: T/dt gives more samples than memory holds: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
