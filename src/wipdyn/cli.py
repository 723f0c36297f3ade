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
model needs.  Exit codes: 0 success, 2 config error, 3 simulation failure,
4 tolerance exceeded / structural check failure, 5 output cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .model import FullState, Params, ReducedState
from .dynamics_reduced import full_to_reduced, reduced_to_full
from .sim import MODELS, SimulationError, TorqueProfile, simulate
from .validation import (compare_trajectories, render_check_lines,
                         run_structural_checks)

__all__ = ["main", "entry", "ConfigError", "load_config", "write_trajectory_csv"]

CSV_HEADER = "t,x,y,theta,alpha,phi,alpha_dot,p1,p2,E,res_x,res_y,res_theta"

_REDUCED_KEYS = ("x", "y", "theta", "phi", "alpha", "alpha_dot", "p1", "p2")
_FULL_KEYS = ("x", "y", "theta", "alpha", "phi1", "phi2",
              "alpha_dot", "phi1_dot", "phi2_dot")


class ConfigError(ValueError):
    """Invalid scenario configuration."""


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
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


def _build_params(cfg: dict) -> Params:
    try:
        return Params.from_dict(cfg["params"])
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"params block: {exc}") from exc


def _strict_floats(block: dict, keys: tuple[str, ...], name: str) -> dict:
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ConfigError(f"{name} block: unknown keys: {', '.join(unknown)}")
    missing = sorted(set(keys) - set(block))
    if missing:
        raise ConfigError(f"{name} block: missing keys: {', '.join(missing)}")
    for k in keys:
        if isinstance(block[k], bool) or not isinstance(block[k], (int, float)):
            raise ConfigError(f"{name} block: {k} must be a number, got {block[k]!r}")
    try:
        return {k: float(block[k]) for k in keys}
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{name} block: {exc}") from exc


def _build_initial(cfg: dict, p: Params) -> tuple[FullState, ReducedState]:
    block = cfg["initial"]
    if not isinstance(block, dict):
        raise ConfigError("initial block must be an object")
    reduced_form = "p1" in block or "phi" in block
    keys, form = (_REDUCED_KEYS, "reduced") if reduced_form else (_FULL_KEYS, "full")
    vals = _strict_floats(block, keys, f"initial ({form} form)")
    try:
        if reduced_form:
            red = ReducedState(**vals)
            full = reduced_to_full(red, p, theta_0=red.theta)
        else:
            full = FullState.constrained(**vals, p=p)
            red = full_to_reduced(full, p)
    except ValueError as exc:
        raise ConfigError(f"initial block: {exc}") from exc
    return full, red


def _build_profile(cfg: dict) -> TorqueProfile:
    segs = cfg.get("torques", [])
    if not isinstance(segs, list):
        raise ConfigError("torques block must be a list of segments")
    triples = []
    for i, seg in enumerate(segs):
        if not isinstance(seg, dict):
            raise ConfigError(f"torques[{i}]: each segment must be an object")
        vals = _strict_floats(seg, ("t_start", "tau1", "tau2"), f"torques[{i}]")
        triples.append((vals["t_start"], vals["tau1"], vals["tau2"]))
    try:
        return TorqueProfile(tuple(triples))
    except ValueError as exc:
        raise ConfigError(f"torques block: {exc}") from exc


def _build_sim(cfg: dict) -> tuple[float, float, str]:
    block = cfg["sim"]
    if not isinstance(block, dict):
        raise ConfigError("sim block must be an object")
    times = _strict_floats({k: v for k, v in block.items() if k != "model"},
                           ("T", "dt"), "sim")
    T, dt = times["T"], times["dt"]
    model = block.get("model", "full")
    if model not in MODELS:
        raise ConfigError(f"sim block: unknown model {model!r}")
    if not (math.isfinite(T) and math.isfinite(dt)) or dt <= 0.0 or T < 0.0:
        raise ConfigError("sim block: need finite dt > 0 and T >= 0")
    return T, dt, model


def _build_tolerance(cfg: dict) -> float:
    block = cfg.get("tolerances")
    if not isinstance(block, dict):
        raise ConfigError("compare needs a tolerances block with a max_abs entry")
    tol = _strict_floats(block, ("max_abs",), "tolerances")["max_abs"]
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"tolerances block: max_abs must be finite and >= 0, got {tol!r}")
    return tol


def write_trajectory_csv(traj, p: Params, path: str) -> None:
    """Fixed-header CSV, one row per sample, 17 significant digits, LF endings."""
    red = traj.reduced_series(p)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for k in range(len(traj)):
            row = (traj.t[k], red[k, 0], red[k, 1], red[k, 2], red[k, 4],
                   red[k, 3], red[k, 5], traj.p1[k], traj.p2[k],
                   traj.energy[k], traj.residuals[k, 0], traj.residuals[k, 1],
                   traj.residuals[k, 2])
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"cannot write output {path}: {exc}", file=sys.stderr)
    return 5


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    p = _build_params(cfg)
    full0, red0 = _build_initial(cfg, p)
    profile = _build_profile(cfg)
    T, dt, model = _build_sim(cfg)
    if args.model:
        model = args.model
    initial = red0 if model == "reduced" else full0
    try:
        traj = simulate(model, initial, profile, T, dt, p)
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 3
    try:
        write_trajectory_csv(traj, p, args.out)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    _say(args, f"wrote {len(traj)} samples of the {model} model to {args.out}")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    p = _build_params(cfg)
    full0, red0 = _build_initial(cfg, p)
    profile = _build_profile(cfg)
    T, dt, _ = _build_sim(cfg)
    tol = _build_tolerance(cfg)

    try:
        runs = {model: simulate(model, red0 if model == "reduced" else full0,
                                profile, T, dt, p)
                for model in ("full", "reduced", "oracle")}
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 3

    lines = ["pair,variable,max_abs,rms"]
    ok = True
    for other in ("reduced", "oracle"):
        stats = compare_trajectories(runs["full"], runs[other], p)
        for name, st in stats.items():
            lines.append(f"full-{other},{name},{_fmt(st.max_abs)},{_fmt(st.rms)}")
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
    cfg = load_config(args.config)
    p = _build_params(cfg)
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
    sim_p.add_argument("--model", choices=MODELS, default=None,
                       help="override the sim.model config entry")
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


def entry() -> None:
    sys.exit(main())
