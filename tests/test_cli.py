import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wipdyn
from wipdyn import Params
from wipdyn.cli import CSV_HEADER, main


def write_config(path, *, params=None, initial=None, torques=(), sim=None,
                 tolerances=None):
    cfg = {
        "params": params if params is not None else Params.default().to_dict(),
        "initial": initial if initial is not None else {
            "x": 0.0, "y": 0.0, "theta": 0.0, "phi": 0.0,
            "alpha": 0.0, "alpha_dot": 0.0, "p1": 0.0, "p2": 0.0},
        "torques": list(torques),
        "sim": sim if sim is not None else {"T": 0.1, "dt": 1e-3, "model": "full"},
    }
    if tolerances is not None:
        cfg["tolerances"] = tolerances
    path.write_text(json.dumps(cfg, indent=1))
    return path


def read_csv(path):
    lines = path.read_text().split("\n")
    header, rows = lines[0], [ln for ln in lines[1:] if ln]
    data = np.array([[float(v) for v in row.split(",")] for row in rows])
    return header, data


def test_simulate_equilibrium_constant_columns(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "t.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    header, data = read_csv(out)
    assert header == CSV_HEADER
    state_cols = data[:, 1:10]
    assert np.max(np.abs(state_cols - state_cols[0])) == 0.0


def test_simulate_csv_format(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "t.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF endings only
    first_rows = raw.decode().split("\n")
    assert first_rows[0] == CSV_HEADER
    # 17 significant digits survive a round-trip
    val = first_rows[2].split(",")[9]
    assert float(val) == float(f"{float(val):.17g}")
    # byte-identical on rerun
    out2 = tmp_path / "t2.csv"
    main(["simulate", "--config", str(cfg), "--out", str(out2), "--quiet"])
    assert out2.read_bytes() == raw


@pytest.mark.parametrize("model", ["full", "reduced", "oracle"])
def test_csv_cells_are_the_trajectory_values(tmp_path, p, model):
    # every cell parses back to exactly the Trajectory value its header names
    from wipdyn import FullState, TorqueProfile, full_to_reduced, simulate
    from wipdyn.cli import write_trajectory_csv
    from wipdyn.sim import REDUCED_VARIABLES
    s = FullState.constrained(0.1, -0.2, 0.3, 0.25, 0.4, -0.6, 0.3, 1.1, -0.7, p)
    initial = full_to_reduced(s, p) if model == "reduced" else s
    traj = simulate(model, initial, TorqueProfile.constant(0.02, -0.01), 0.02, 1e-3, p)
    out = tmp_path / "t.csv"
    write_trajectory_csv(traj, p, str(out))
    header, data = read_csv(out)
    expected = dict(zip(REDUCED_VARIABLES, traj.shared.T))
    expected.update(t=traj.t, p1=traj.column("p1"), p2=traj.column("p2"), E=traj.energy,
                    res_x=traj.residuals[:, 0], res_y=traj.residuals[:, 1],
                    res_theta=traj.residuals[:, 2])
    names = header.split(",")
    assert sorted(names) == sorted(expected)
    assert data.shape == (len(traj), len(names))
    for j, name in enumerate(names):
        assert data[:, j].tolist() == expected[name].tolist(), name
    # and byte for byte what formatting each cell on its own gives
    rows = [",".join(f"{expected[n][k]:.17g}" for n in names) for k in range(len(traj))]
    assert out.read_text() == "\n".join([CSV_HEADER, *rows, ""])


def _value_classes(rng):
    """About 320,000 float64 values by class, the formatter's hard cases among them."""
    powers = 10.0 ** np.arange(-323, 309)
    return {
        "log-normal": np.exp(rng.uniform(np.log(1e-25), np.log(1e25), 100_000))
        * rng.choice([-1.0, 1.0], 100_000),
        "time grid": np.arange(50_000) * 1e-3,
        "integers": rng.integers(0, 2 ** 62, 30_000).astype(np.float64),
        "powers of ten, 1 ulp either side": np.concatenate(
            [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]),
        "dyadic ties": np.concatenate(
            [rng.integers(1, 2 ** 20, 1000) / 2.0 ** s for s in range(10, 51)]),
        "any bit pattern": rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64),
        "special": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308,
                             1.7976931348623157e308, 1e16, 1e17, 99999999999999999.0]),
    }


def test_format_block_is_percent_17g_on_every_value_class():
    from wipdyn import cli
    x = np.concatenate(list(_value_classes(np.random.default_rng(35)).values()))
    for i in range(0, len(x), 13 * 1024):
        chunk = x[i:i + 13 * 1024]
        block = np.concatenate([chunk, np.zeros(-len(chunk) % 13)]).reshape(-1, 13)
        cells = cli._format_block(block).replace(b"\n", b",").split(b",")[:-1]
        assert cells == [b"%.17g" % v for v in block.ravel().tolist()]
    # each class of value whose digits only '%' can guarantee took it at least once
    exact = cli._decimal(x)[2]
    finite, ax = np.isfinite(x), np.abs(x)
    in_range = (ax >= cli._FAST[0]) & (ax <= cli._FAST[1])
    assert (~exact & in_range).any()  # within _TIE of a tie, exact ties included
    assert (~exact & finite & ~in_range & (ax > 0.0)).any()  # subnormals among them
    assert (~exact & ~finite).any()
    assert exact.mean() > 0.9


@pytest.mark.parametrize("model, T", [("full", 1.5), ("reduced", 1.5), ("oracle", 0.02)])
def test_csv_is_the_same_with_every_nonzero_cell_through_percent(tmp_path, p, monkeypatch,
                                                                  model, T):
    from wipdyn import FullState, TorqueProfile, cli, full_to_reduced, simulate
    s = FullState.constrained(0.1, -0.2, 0.3, 0.25, 0.4, -0.6, 0.3, 1.1, -0.7, p)
    initial = full_to_reduced(s, p) if model == "reduced" else s
    traj = simulate(model, initial, TorqueProfile.constant(0.02, -0.01), T, 1e-3, p)
    fast, forced = tmp_path / "fast.csv", tmp_path / "forced.csv"
    cli.write_trajectory_csv(traj, p, str(fast))
    monkeypatch.setattr(cli, "_FAST", (1.0, 0.0))  # no |x| in range: only zeros stay
    cli.write_trajectory_csv(traj, p, str(forced))
    assert forced.read_bytes() == fast.read_bytes()


def test_simulate_steady_roll_travels_r_times_T(tmp_path, p):
    from wipdyn import h_const
    cfg = write_config(
        tmp_path / "c.json",
        initial={"x": 0.0, "y": 0.0, "theta": 0.0, "phi": 0.0, "alpha": 0.0,
                 "alpha_dot": 0.0, "p1": h_const(p), "p2": 0.0},
        sim={"T": 2.0, "dt": 1e-3, "model": "reduced"})
    out = tmp_path / "t.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    _, data = read_csv(out)
    assert data[-1, 1] == pytest.approx(p.r * 2.0, abs=1e-6)


def test_simulate_full_form_initial_and_model_override(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        initial={"x": 0.0, "y": 0.0, "theta": 0.2, "alpha": 0.1,
                 "phi1": 0.0, "phi2": 0.0, "alpha_dot": 0.0,
                 "phi1_dot": 0.4, "phi2_dot": 0.6},
        sim={"T": 0.05, "dt": 1e-3, "model": "full"})
    out = tmp_path / "t.csv"
    assert main(["simulate", "--config", str(cfg), "--model", "reduced",
                 "--out", str(out), "--quiet"]) == 0


def test_missing_param_key_exits_2_naming_key(tmp_path, capsys):
    params = Params.default().to_dict()
    del params["I_Wyy"]
    cfg = write_config(tmp_path / "c.json", params=params)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "I_Wyy" in capsys.readouterr().err


def test_invalid_params_exit_2(tmp_path, capsys):
    params = Params.default().to_dict()
    params["I_Wyy"] = 0.0
    cfg = write_config(tmp_path / "c.json", params=params)
    assert main(["check", "--config", str(cfg)]) == 2
    assert "I_Wyy" in capsys.readouterr().err


@pytest.mark.parametrize("params", [[1, 2], "abc", 5, None],
                         ids=["list", "string", "number", "null"])
def test_params_block_must_be_an_object(tmp_path, capsys, params):
    cfg = write_config(tmp_path / "c.json")
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "params": params}))
    assert main(["check", "--config", str(cfg)]) == 2
    assert "config error: params block must be an object" in capsys.readouterr().err


def test_corrupt_config_exits_2_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"params": {,}')
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert "line" in err


@pytest.mark.parametrize("text, message", [
    (b"\xff\xfe{}", "cannot read config"),  # not UTF-8
    (b"[" * 200_000, "cannot parse"),        # past the recursion limit
    (b'{"params": ' + b"1" * 5000 + b"}", "cannot parse"),  # past int's digit limit
], ids=["not-utf8", "too-deep", "huge-int"])
def test_unparsable_config_exits_2_naming_path(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert message in err and str(bad) in err


def test_unknown_block_and_bad_torques_exit_2(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    data = json.loads(cfg.read_text())
    data["extras"] = {}
    cfg.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2

    cfg2 = write_config(tmp_path / "c2.json",
                        torques=[{"t_start": 1.0, "tau1": 0.1, "tau2": 0.1},
                                 {"t_start": 0.5, "tau1": 0.0, "tau2": 0.0}])
    assert main(["simulate", "--config", str(cfg2), "--out", str(tmp_path / "t.csv")]) == 2


def test_simulation_failure_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json",
                       torques=[{"t_start": 0.0, "tau1": 1e305, "tau2": 1e305}],
                       sim={"T": 0.5, "dt": 1e-2, "model": "full"})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 3
    err = capsys.readouterr().err
    assert "step 0 (t = 0 s) failed: ValueError" in err


def _compare_config(tmp_path, tol):
    from wipdyn import f_of_alpha, h_const
    p = Params.default()
    return write_config(
        tmp_path / "cmp.json",
        initial={"x": 0.0, "y": 0.0, "theta": 0.0, "phi": 0.0, "alpha": 0.12,
                 "alpha_dot": 0.0, "p1": 0.25 * h_const(p),
                 "p2": 0.1 * float(f_of_alpha(0.0, p))},
        torques=[{"t_start": 0.05, "tau1": 0.08, "tau2": 0.11}],
        sim={"T": 0.25, "dt": 2e-3, "model": "full"},
        tolerances={"max_abs": tol})


def test_compare_within_tolerance_exit_0(tmp_path):
    cfg = _compare_config(tmp_path, 1e-4)
    out = tmp_path / "report.csv"
    assert main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "pair,variable,max_abs,rms"
    assert any(ln.startswith("full-reduced,") for ln in lines)
    assert any(ln.startswith("full-oracle,") for ln in lines)


def test_compare_zero_tolerance_exit_4_report_written(tmp_path):
    cfg = _compare_config(tmp_path, 0.0)
    out = tmp_path / "report.csv"
    assert main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"]) == 4
    assert out.exists() and out.read_text().startswith("pair,variable")


def test_compare_requires_tolerances(tmp_path):
    cfg = write_config(tmp_path / "c.json", sim={"T": 0.1, "dt": 1e-3, "model": "full"})
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2


@pytest.mark.parametrize("tolerances", [
    {"max_abs": 1e-6, "rtol": 1},
    {"max_abs": float("nan")},
    {"max_abs": float("inf")},
    {"max_abs": -1e-6},
])
def test_compare_rejects_bad_tolerances_exit_2(tmp_path, capsys, tolerances):
    cfg = _compare_config(tmp_path, 1e-4)
    data = json.loads(cfg.read_text())
    data["tolerances"] = tolerances
    cfg.write_text(json.dumps(data))
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
    assert "tolerances block" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "compare", "check"])
def test_every_command_reads_the_tolerances_block(tmp_path, capsys, command):
    # the one reader checks a tolerances block whenever it is present; only
    # compare requires one
    cfg, out = tmp_path / "c.json", ["--out", str(tmp_path / "o.csv")]
    argv = [command, "--config", str(cfg), "--quiet", *(out if command != "check" else [])]
    write_config(cfg, tolerances={"max_abs": -1})
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "config error: tolerances block: max_abs must be >= 0, got -1.0")
    write_config(cfg)
    assert main(argv) == (2 if command == "compare" else 0)


@pytest.mark.parametrize("initial, sim", [
    ({"x": 0.0, "y": 0.0, "theta": 0.0, "phi": 0.0, "alpha": float("nan"),
      "alpha_dot": 0.0, "p1": 0.0, "p2": 0.0}, None),
    ({"x": 0.0, "y": 0.0, "theta": 0.0, "alpha": 0.1, "phi1": 0.0, "phi2": 0.0,
      "alpha_dot": 0.0, "phi1_dot": float("nan"), "phi2_dot": 0.0}, None),
    (None, {"T": float("nan"), "dt": 1e-3}),
    (None, {"T": 0.1, "dt": float("inf")}),
])
def test_non_finite_config_values_exit_2(tmp_path, capsys, initial, sim):
    cfg = write_config(tmp_path / "c.json", initial=initial, sim=sim)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
    assert "config error" in capsys.readouterr().err


def test_overflowing_step_count_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", sim={"T": 1e300, "dt": 1e-10})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
    assert "T/dt" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("T", [1e15, 1e20])
def test_step_count_beyond_2_pow_53_exits_2(tmp_path, capsys, T):
    # T/dt = 1e18 or 1e23: finite, but numpy cannot size the trajectory
    cfg = write_config(tmp_path / "c.json", sim={"T": T, "dt": 1e-3})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
    assert "T/dt" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def _with_params(**changes):
    return {**Params.default().to_dict(), **changes}


# JSON booleans and strings are not numbers, even where float() would take
# them; JSON integers are, but one beyond the float range is rejected too
@pytest.mark.parametrize("params, torques, sim", [
    (None, (), {"T": 0.01, "dt": True}),
    (None, (), {"T": "0.01", "dt": 1e-3}),
    (None, ({"t_start": 0, "tau1": True, "tau2": 0},), None),
    (_with_params(m_b=True), (), None),
    (_with_params(m_b=10 ** 400), (), None),
    (None, (), {"T": 10 ** 400, "dt": 1e-3}),
], ids=["dt-true", "T-string", "tau1-true", "m_b-true", "m_b-huge-int", "T-huge-int"])
def test_non_numeric_config_values_exit_2(tmp_path, capsys, params, torques, sim):
    cfg = write_config(tmp_path / "c.json", params=params, torques=torques, sim=sim)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_integer_config_values_are_numbers(tmp_path):
    cfg = write_config(tmp_path / "c.json", params=_with_params(m_b=5),
                       torques=({"t_start": 0, "tau1": 0, "tau2": 0},),
                       sim={"T": 1, "dt": 1e-3})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv"),
                 "--quiet"]) == 0


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_unwritable_output_exits_5(tmp_path, capsys, command):
    cfg = _compare_config(tmp_path, 1e-4)
    out = tmp_path / "missing" / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 5
    assert f"cannot write output {out}" in capsys.readouterr().err


def test_check_passes_on_defaults(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    assert main(["check", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "PASS power balance (forced)" in out


@pytest.mark.parametrize("initial, sim", [
    ({"x": "bad"}, {"T": "abc", "dt": -1}),
    (None, {"T": "abc", "dt": -1}),
], ids=["initial-and-sim", "sim"])
def test_check_rejects_a_bad_config_before_any_line(tmp_path, capsys, initial, sim):
    # check runs its own scenarios, but a config that simulate rejects is
    # rejected here too, with exit 2 and no check line
    cfg = write_config(tmp_path / "c.json", initial=initial, sim=sim)
    assert main(["check", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: ")


# (command, edit of a valid config's dict or None for no file, exit code, message)
_ERROR_PATHS = {
    "unreadable-file": ("simulate", None, 2, "cannot read config"),
    "top-level-list": ("simulate", lambda c: [c], 2, "top level must be an object"),
    "missing-block": ("simulate", lambda c: {k: v for k, v in c.items() if k != "sim"},
                      2, "missing config block 'sim'"),
    "missing-keys": ("simulate", lambda c: {**c, "initial": {"x": 0.0}}, 2,
                     "initial (full form) block: missing keys: alpha, "),
    "initial-list": ("simulate", lambda c: {**c, "initial": [0.0] * 8}, 2,
                     "initial block must be an object"),
    "torques-object": ("simulate", lambda c: {**c, "torques": {}}, 2,
                       "torques block must be a list of segments"),
    "segment-list": ("simulate", lambda c: {**c, "torques": [[0.0, 0.1, 0.1]]}, 2,
                     "torques[0]: each segment must be an object"),
    "segment-value": ("simulate", lambda c: {**c, "torques": [
        {"t_start": 0.0, "tau1": 0.0, "tau2": 0.0}, {"t_start": 0.05, "tau1": 0.1, "tau2": 0.1},
        {"t_start": 0.08, "tau1": "x", "tau2": 0.1}]}, 2,
                      "config error: torques block: segment 2 tau1 must be a finite number"),
    "sim-number": ("simulate", lambda c: {**c, "sim": 0.1}, 2, "sim block must be an object"),
    "unknown-model": ("simulate", lambda c: {**c, "sim": {"T": 0.1, "dt": 1e-3, "model": "euler"}},
                      2, "sim block: unknown model 'euler'"),
    "unknown-params-key": ("simulate", lambda c: {**c, "params": {**c["params"], "bogus": 1.0}},
                           2, "params block: unknown keys: bogus"),
    # T/dt = 1e13 passes n_samples, but its 655 TiB trajectory is more than
    # a 48-bit address space (128 TiB) and any machine's memory: numpy's
    # allocation is refused at once and touches no memory
    **{f"{command}-grid-beyond-memory": (command, lambda c: {**c, "sim": {"T": 1e10, "dt": 1e-3}},
                                         2, "config error: T/dt gives more samples than memory")
       for command in ("simulate", "compare")},
    "compare-diverges": ("compare", lambda c: {
        **c, "torques": [{"t_start": 0.0, "tau1": 1e305, "tau2": 1e305}],
        "sim": {"T": 0.5, "dt": 1e-2}}, 3, "simulation failed: step 0"),
}


@pytest.mark.parametrize("case", list(_ERROR_PATHS))
def test_error_paths_exit_code_and_message(tmp_path, capsys, case):
    command, edit, code, message = _ERROR_PATHS[case]
    cfg = tmp_path / "c.json"
    if edit is not None:
        data = json.loads(write_config(cfg, tolerances={"max_abs": 1e-6}).read_text())
        cfg.write_text(json.dumps(edit(data)))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_check_exits_3_when_a_run_diverges(tmp_path, capsys):
    # a valid set whose coarse drift run diverges first (at step 5): exit 3,
    # as simulate and compare, not a traceback
    params = {**Params.default().to_dict(), "g": 1e6}
    cfg = write_config(tmp_path / "c.json", params=params)
    assert main(["check", "--config", str(cfg)]) == 3
    assert "simulation failed: step" in capsys.readouterr().err


def _src_env():
    """The environment with the package's source tree first on PYTHONPATH."""
    src = str(Path(wipdyn.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_run_exits_2_on_unreadable_config(tmp_path):
    # python -m wipdyn.cli runs the CLI, so a script written that way fails
    proc = subprocess.run(
        [sys.executable, "-m", "wipdyn.cli", "check", "--config", str(tmp_path / "none.json")],
        capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 2
    assert "cannot read config" in proc.stderr


def test_check_runs_without_numpy_random(tmp_path):
    # the suite draws from random.Random, so a check process never loads
    # numpy.random; a fresh interpreter, as the test process loads it (the rng fixture)
    cfg = write_config(tmp_path / "c.json")
    script = ("import sys; from wipdyn.cli import main; code = main(['check', '--config', "
              "sys.argv[1]]); print('numpy.random' in sys.modules); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", script, str(cfg)],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 10
    assert lines[-1] == "False"


def test_console_entry_point_runs(tmp_path):
    # install-free console script: run the declared [project.scripts] target
    # in a fresh interpreter, as the script that an install generates would
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["wipdyn"]
    module, func = target.split(":")
    launcher = f"import sys; from {module} import {func}; sys.exit({func}())"
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "t.csv"
    proc = subprocess.run(
        [sys.executable, "-c", launcher,
         "simulate", "--config", str(cfg), "--out", str(out), "--quiet"],
        capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
