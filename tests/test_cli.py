import os

import numpy as np
import pytest
import yaml

import dcasim.cli
import dcasim.runs
from dcasim.cli import EXIT_CONFIG, EXIT_INTEGRATOR, EXIT_OK, EXIT_VALIDATION, main
from dcasim.integrator import IntegrationError
from dcasim.output import body_of, snapshot_filename
from dcasim.state import AprioriBoundError

FAST_YAML = {
    "case": "case1",
    "epsilon": 0.2,
    "t_max": 1.0,
    "snapshot_times": [0.5, 1.0],
}


def _write_config(tmp_path, mapping, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping))
    return str(path)


def test_simulate_writes_snapshot_and_moment_files(tmp_path, capsys):
    cfg = _write_config(tmp_path, FAST_YAML)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
    for t in (0.5, 1.0):
        assert os.path.exists(os.path.join(out, snapshot_filename(t)))
    assert os.path.exists(os.path.join(out, "moments.csv"))


def test_snapshot_csv_schema(tmp_path):
    cfg = _write_config(tmp_path, FAST_YAML)
    out = str(tmp_path / "out")
    main(["simulate", "--config", cfg, "--out", out])
    path = os.path.join(out, snapshot_filename(1.0))
    lines = open(path).read().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert any(l.startswith("# epsilon = ") for l in meta)
    assert any(l.startswith("# case = ") for l in meta)
    assert body[0] == "x_center,c_i,f_eps"
    first = body[1].split(",")
    assert float(first[0]) == pytest.approx(0.2)    # first cell center
    assert float(first[1]) == float(first[2])       # density equals c_i


def test_moments_csv_schema(tmp_path):
    cfg = _write_config(tmp_path, FAST_YAML)
    out = str(tmp_path / "out")
    main(["simulate", "--config", cfg, "--out", out])
    body = body_of(os.path.join(out, "moments.csv")).splitlines()
    assert body[0] == "t,M0,M1,M2,Y1,N_count,mass_defect_integral"
    times = [float(r.split(",")[0]) for r in body[1:]]
    assert times == [0.0, 0.5, 1.0]


def test_flag_overrides_config(tmp_path):
    cfg = _write_config(tmp_path, {**FAST_YAML, "epsilon": 0.3})
    out = str(tmp_path / "out")
    main(["simulate", "--config", cfg, "--epsilon", "0.2", "--out", out])
    meta = [l for l in open(os.path.join(out, "moments.csv"))
            if l.startswith("# epsilon")]
    assert meta == ["# epsilon = 0.2\n"]


def test_simulate_without_epsilon_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, {"case": "case1"})
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG


def test_unknown_config_key_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, {**FAST_YAML, "epsilonn": 0.1})
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG


def test_lambda_list_is_unknown_config_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**FAST_YAML, "lambda_list": [0.0, 0.5]})
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
    assert "unknown config keys: lambda_list" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path):
    missing = str(tmp_path / "nope.yaml")
    assert main(["simulate", "--config", missing]) == EXIT_CONFIG


def test_bad_epsilon_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, FAST_YAML)
    assert main(["simulate", "--config", cfg, "--epsilon", "1.5"]) == EXIT_CONFIG


def test_simulate_custom_case_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "case": "custom", "epsilon": 0.2,
        "kernel": {"K": "product", "C": "product"}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "no initial profile" in capsys.readouterr().err


def test_apriori_bound_violation_is_validation_failure(tmp_path, monkeypatch, capsys):
    def violate(cfg):
        raise AprioriBoundError("a-priori density bounds violated at t=1.0")

    monkeypatch.setattr(dcasim.cli, "run_simulation", violate)
    cfg = _write_config(tmp_path, FAST_YAML)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert "a-priori density bounds violated" in capsys.readouterr().err


def _underflow(cfg, epsilon=None):
    raise IntegrationError("step size underflow at t=0.5")


def test_simulate_integrator_failure_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dcasim.cli, "run_simulation", _underflow)
    cfg = _write_config(tmp_path, FAST_YAML)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_INTEGRATOR
    err = capsys.readouterr().err
    assert "integrator failure: step size underflow at t=0.5" in err
    assert "Traceback" not in err


def test_sweep_all_epsilons_failing_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dcasim.runs, "run_simulation", _underflow)
    cfg = _write_config(tmp_path, {
        "case": "case1", "epsilon_list": [0.2, 0.1],
        "t_max": 1.0, "snapshot_times": [1.0]})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == EXIT_INTEGRATOR
    err = capsys.readouterr().err
    assert "epsilon=0.1 failed: IntegrationError: step size underflow" in err
    assert "integrator failure: all 2 epsilon values failed" in err
    assert "Traceback" not in err


def test_sweep_writes_error_tables(tmp_path):
    cfg = _write_config(tmp_path, {
        "case": "case1", "epsilon_list": [0.2, 0.1],
        "t_max": 1.0, "snapshot_times": [1.0]})
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_OK
    body = body_of(os.path.join(out, "errors_t1.csv")).splitlines()
    assert body[0] == "epsilon,t,E1,order_estimate_cumulative"
    rows = [r.split(",") for r in body[1:]]
    assert [float(r[0]) for r in rows] == [0.2, 0.1]
    assert float(rows[1][2]) < float(rows[0][2])
    assert rows[0][3] == ""                  # no order from a single row
    assert float(rows[1][3]) > 0.0


def test_sweep_single_epsilon_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, {"case": "case1", "epsilon_list": [0.2],
                                   "t_max": 1.0, "snapshot_times": [1.0]})
    assert main(["sweep", "--config", cfg]) == EXIT_CONFIG


def test_validate_constant_kernels_all_pass(tmp_path, capsys):
    cfg = _write_config(tmp_path, FAST_YAML)
    assert main(["validate", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "hypotheses-unverified" not in out


def test_validate_flags_product_kernel(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "case": "custom", "epsilon": 0.2,
        "kernel": {"K": "product", "C": "product"}})
    assert main(["validate", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL  sublinear growth of K (CH1)" in out
    assert "hypotheses-unverified" in out
    # the hard identities still hold for the product kernel
    assert "PASS  fast RHS matches direct summation" in out
    assert "PASS  weighted-sum boundary identity" in out


def test_validate_custom_case_without_kernel_is_config_error(capsys):
    assert main(["validate", "--case", "custom"]) == EXIT_CONFIG
    assert "custom case requires an explicit kernel block" in capsys.readouterr().err


def test_repeat_simulate_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, FAST_YAML)
    outs = [str(tmp_path / d) for d in ("a", "b")]
    for out in outs:
        main(["simulate", "--config", cfg, "--out", out])
    for name in (snapshot_filename(0.5), snapshot_filename(1.0), "moments.csv"):
        bodies = [body_of(os.path.join(out, name)) for out in outs]
        assert bodies[0] == bodies[1]
