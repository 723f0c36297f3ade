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


def test_corrupt_config_exits_2_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"params": {,}')
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert "line" in err


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


def test_console_entry_point_runs(tmp_path):
    # install-free console script: run the declared [project.scripts] target
    # in a fresh interpreter, as the script that an install generates would
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["wipdyn"]
    module, func = target.split(":")
    launcher = f"import sys; from {module} import {func}; sys.exit({func}())"
    src = str(Path(wipdyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "t.csv"
    proc = subprocess.run(
        [sys.executable, "-c", launcher,
         "simulate", "--config", str(cfg), "--out", str(out), "--quiet"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
