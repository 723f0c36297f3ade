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
import functools
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
_CSV_SHARED = CSV_HEADER.split(",")[1:9]  # the shared observables, in CSV order
# Rows a block: a 10,001-row CSV took 17.1 ms at 512, 18.4 at 256 and 23.5 at 1024,
# whose (24, 13 x 1024) byte grids outgrow the cache; 1.3 MB of temporaries at 512.
_CSV_BLOCK = 512


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


# The CSV formatter.  '%.17g' % v takes CPython's bignum dtoa path, about
# 0.45 us a value; _format_block gives the same bytes from numpy arithmetic.
_TENS = range(-240, 271)  # the k of 10**k that _scaled reads: 16 - E, E within _FAST
_FAST = (1e-250, 1e250)  # the |x| it formats, and zero; others take '%'
_TIE = 2.0 ** -20  # |frac - 1/2| below which '%' rounds: the double-double errs by < 1e-14
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter


@functools.cache
def _tables() -> tuple:
    """Built on first use: 10**k for k in _TENS as hi, correctly rounded, hi's
    Dekker halves and lo, the rounded rest 10**k - hi, all from Python ints; the
    4-digit groups as (4, 10**4) bytes; and the exponent bytes "e+XX" of E + 400,
    none for -4 <= E <= 16."""
    his, los = [], []
    for k in _TENS:
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        his.append(num / den)  # int / int rounds correctly
        a, b = his[-1].as_integer_ratio()
        los.append((num * b - a * den) / (den * b))  # 10**k - hi, rounded
    hi = np.array(his)
    hh = _SPLIT * hi - (_SPLIT * hi - hi)
    places = np.array([[1000], [100], [10], [1]], np.uint16)
    quads = (np.arange(10 ** 4, dtype=np.uint16) // places % 10 + ord("0")).astype(np.uint8)
    exps = np.zeros((5, 801), np.uint8)
    for e in [*range(-400, -4), *range(17, 401)]:
        exps[:len(b"e%+03d" % e), e + 400] = list(b"e%+03d" % e)
    return hi, hh, hi - hh, np.array(los), quads, exps


def _scaled(a, E):
    """a 10**(16 - E) as a double-double (r, e): r = fl(a hi) and e its Dekker
    two-product error (numpy has no fma) plus a lo, where 10**(16 - E) = hi + lo."""
    hi, hh, hl, lo = (t[16 - E - _TENS.start] for t in _tables()[:4])
    ah = _SPLIT * a - (_SPLIT * a - a)
    al = a - ah
    r = a * hi
    return r, (((ah * hh - r) + ah * hl + al * hh) + al * hl) + a * lo


def _decimal(x) -> tuple:
    """(N, E, exact) of float64 x: |x| rounded to 17 digits is N 10**(E - 16),
    10**16 <= N < 10**17 (N = E = 0 at zero).  exact is False where the digits
    are not certain: |x| outside _FAST (non-finite too), or a fraction of
    |x| 10**(16 - E) within _TIE of 1/2, where '%' rounds ties to even."""
    ax = np.abs(x)
    exact = (ax >= _FAST[0]) & (ax <= _FAST[1])
    a = np.where(exact, ax, 1.0)
    E = np.floor(np.log10(a)).astype(np.int64)
    r, e = _scaled(a, E)
    high = (r - 1e17) + e >= 0.0  # log10 may miss by one next to a power of ten
    off = high | ((r - 1e16) + e < 0.0)
    if off.any():
        E[off] += np.where(high[off], 1, -1)
        r[off], e[off] = _scaled(a[off], E[off])
    whole = np.floor(e)
    frac = e - whole
    N = r.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    # N = 10**17, rounded up to the next power of ten, is rare enough to leave to '%'
    exact &= (np.abs(frac - 0.5) > _TIE) & (N >= 10 ** 16) & (N < 10 ** 17)
    zero = ax == 0.0
    N[zero], E[zero] = 0, 0
    return N, E, exact | zero


def _format_block(block) -> bytes:
    """The CSV rows of block, a (rows, columns) float64 array: each cell
    '%.17g' % v, then ',' or, closing a row, LF.

    Each cell is laid out in a 29-byte column, one byte a row, as '%g' does:
    17 digits after five pad '0's, a '.' after the E + 1 integer digits
    (fixed, -4 <= E <= 16; else after the first, with "e+XX" at rows 23-27),
    a '-' on the pad '0' before the first kept byte, and NUL outside the bytes
    kept, from the integer part's first digit to the last non-zero fraction
    digit; the cells are joined by dropping every NUL."""
    quads, exps = _tables()[4:]
    x = block.ravel()
    n = len(x)
    N, E, exact = _decimal(x)
    grid = np.zeros((24, n), np.uint8)  # rows 1-22: the digits after five '0's
    grid[1:6] = ord("0")
    rest = N
    for row in (19, 15, 11, 7):  # four digits at a time, last first
        top = rest // 10 ** 4  # floor_divide by a constant: 2.5x np.divmod's speed
        grid[row:row + 4] = quads.take(rest - top * 10 ** 4, axis=1)
        rest = top
    grid[6] = rest + ord("0")
    digits, before = grid[1:], grid[:-1]  # before[j] = digits[j - 1]
    places = np.arange(1, 17, dtype=np.uint8)[:, None]  # of digits 2-17, at rows 6-21
    last = 5 + ((digits[6:22] != ord("0")).view(np.uint8) * places).max(axis=0)  # 5 at 0
    fixed = (E >= -4) & (E <= 16)
    point = (6 + np.where(fixed, E, 0)).astype(np.int8)
    neg = np.signbit(x)
    first = (5 + np.minimum(point - 6, 0) - neg).astype(np.int8)
    end = np.maximum(last + 1 + (last >= point), point).astype(np.int8)
    rows = np.arange(23, dtype=np.int8)[:, None]
    out = np.empty((29, n), np.uint8)
    body = out[:23]
    np.subtract(digits, before, out=body)
    body *= (rows < point).view(np.uint8)  # a digit moves one row on past the point
    body += before
    at = (rows == point).view(np.uint8)
    body -= at * (body - ord("."))
    body *= ((rows >= first) & (rows < end)).view(np.uint8)
    body -= ((rows == first) & neg).view(np.uint8) * (ord("0") - ord("-"))
    out[23:28] = exps.take(E + 400, axis=1)
    sep = np.full(block.shape, ord(","), np.uint8)
    sep[:, -1] = ord("\n")
    out[28] = sep.ravel()
    cells = np.ascontiguousarray(out.T)
    slow = np.flatnonzero(~exact)
    if len(slow):
        cells[slow, :28] = np.array([b"%.17g" % v for v in x[slow].tolist()], "S28").view(
            np.uint8).reshape(-1, 28)
    return cells[cells != 0].tobytes()


def write_trajectory_csv(traj, p: Params, path: str) -> None:
    """Fixed-header CSV, one row per sample, LF endings, every cell exactly
    ``'%.17g' % v``: ``_format_block`` writes _CSV_BLOCK rows at a time, its
    arithmetic for the values whose 17 digits it can guarantee and ``%`` itself
    for the rest."""
    cols = (traj.t, *map(traj.column, _CSV_SHARED), traj.energy, traj.residuals)
    with open(path, "wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        for i in range(0, len(traj), _CSV_BLOCK):  # not one (N, 13) copy: 1 MB at 10,001 rows
            fh.write(_format_block(np.column_stack([c[i:i + _CSV_BLOCK] for c in cols])))


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
