import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

import dcasim.cli
import dcasim.integrator
import dcasim.runs
from dcasim.cli import EXIT_CONFIG, EXIT_INTEGRATOR, EXIT_OK, EXIT_VALIDATION, main
from dcasim.integrator import IntegrationError
from dcasim.kernels import KernelSpec
from dcasim.output import snapshot_filename, write_snapshot_csv
from dcasim.analysis import AprioriBoundError
from dcasim.state import DiscreteState

from oracle import body_of, small_grid

FAST_YAML = {
    "case": "case1",
    "epsilon": 0.2,
    "snapshot_times": [0.5, 1.0],
}
SWEEP_YAML = {"case": "case1", "epsilon_list": [0.2, 0.1], "snapshot_times": [1.0]}
# validate reads only case, lam and kernel, and rejects any other setting
VALIDATE_YAML = {"case": "case1"}
# what each subcommand runs from; a subcommand rejects a setting it does not read
BASES = {"simulate": FAST_YAML, "sweep": SWEEP_YAML, "validate": VALIDATE_YAML}


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
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert any(l.startswith("# epsilon = ") for l in meta)
    assert any(l.startswith("# case = ") for l in meta)
    assert body[0] == "x_center,c_i,f_eps"
    first = body[1].split(",")
    assert float(first[0]) == pytest.approx(0.2)    # first cell center
    assert float(first[1]) == float(first[2])       # density equals c_i


def test_snapshot_rows_are_float_reprs(tmp_path):
    values = [-0.0, 5e-324, 1e-310, 0.1, 1 / 3, 1.7976931348623157e308]
    grid = small_grid(0.1, len(values))
    state = DiscreteState(grid, np.array(values), 1.0)
    path = str(tmp_path / "snapshot.csv")
    write_snapshot_csv(path, state, {})
    assert body_of(path).splitlines()[1:] == [
        f"{float(x)!r},{float(v)!r},{float(v)!r}" for x, v in zip(grid.centers(), state.c)]


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
    with open(os.path.join(out, "moments.csv")) as fh:
        meta = [l for l in fh if l.startswith("# epsilon")]
    assert meta == ["# epsilon = 0.2\n"]


def test_simulate_without_epsilon_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, {"case": "case1"})
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG


def test_unknown_config_key_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, {**FAST_YAML, "epsilonn": 0.1})
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG


# the keys simulate reads, as its unknown-key message lists them
SIMULATE_KNOWN = ("known: M, atol, case, epsilon, kernel, lam, output_dir, rtol, "
                  "snapshot_times, x_max")


def test_lambda_list_is_unknown_config_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**FAST_YAML, "lambda_list": [0.0, 0.5]})
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"unknown simulate config keys lambda_list; {SIMULATE_KNOWN}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("t_max", 2.5), ("negativity_policy", "clamp_tiny"),
                                        ("threads", 2)])
def test_deleted_setting_is_unknown_config_key(tmp_path, capsys, key, value):
    # a config that still carries a deleted setting is rejected, not ignored
    cfg = _write_config(tmp_path, {**FAST_YAML, key: value})
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"unknown simulate config keys {key}; {SIMULATE_KNOWN}" in err
    assert "Traceback" not in err


def test_missing_config_file_is_config_error(tmp_path):
    missing = str(tmp_path / "nope.yaml")
    assert main(["simulate", "--config", missing]) == EXIT_CONFIG


def test_malformed_yaml_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("epsilon: [0.1\n")
    assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_non_mapping_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "list.yaml"
    cfg.write_text("- epsilon: 0.1\n")
    assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "simulate config must be a mapping, got [{'epsilon': 0.1}]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(BASES))
@pytest.mark.parametrize("top", ["[]", "false", "0", "''"])
def test_non_mapping_top_level_is_config_error(tmp_path, capsys, command, top):
    # a falsy top level is no empty config: it is refused like any other non-mapping
    cfg = tmp_path / "top.yaml"
    cfg.write_text(top + "\n")
    out = tmp_path / "out"
    flags = {"simulate": ["--epsilon", "0.5", "--out", str(out)],
             "sweep": ["--out", str(out)], "validate": []}[command]
    assert main([command, "--config", str(cfg), *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{command} config must be a mapping" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_empty_config_file_reads_as_no_keys(tmp_path):
    cfg = tmp_path / "empty.yaml"
    cfg.write_text("")
    assert main(["validate", "--config", str(cfg)]) == EXIT_OK


def test_cli_import_leaves_yaml_unloaded():
    # only --config reads YAML, so importing the CLI must not pay for the parser
    src = pathlib.Path(dcasim.cli.__file__).resolve().parent.parent
    code = "import sys, dcasim.cli; print('yaml' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test and benchmark dependency only: no subcommand imports it
    out = tmp_path / "out"
    sweep = _write_config(tmp_path, SWEEP_YAML, name="sweep.yaml")
    runs = [["validate", "--case", "case1"],
            ["simulate", "--config", _write_config(tmp_path, FAST_YAML), "--out", str(out / "sim")],
            ["sweep", "--config", sweep, "--out", str(out / "sweep")]]
    code = ("import sys\n"
            "sys.modules['scipy'] = None   # any import of scipy now raises ImportError\n"
            "from dcasim.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    assert main(argv) == 0, argv\n")
    src = pathlib.Path(dcasim.cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS"), proc.stdout
    assert sorted(os.listdir(out / "sim")) == ["moments.csv", "snapshot_t0.5.csv",
                                               "snapshot_t1.csv"]
    assert os.listdir(out / "sweep") == ["errors_t1.csv"]


def _loaded_kernel(tmp_path, block):
    cfg = _write_config(tmp_path, {**FAST_YAML, "kernel": block})
    args = dcasim.cli.build_parser().parse_args(["simulate", "--config", cfg])
    return dcasim.cli._load_config(args).kernel


# a run reads no declared bound, so a block's declared_bounds is null or empty
@pytest.mark.parametrize("block", [{}, {"declared_bounds": None}, {"declared_bounds": {}}],
                         ids=["empty", "bounds-null", "bounds-empty"])
def test_kernel_block_defaults_are_kernel_spec_defaults(tmp_path, block):
    assert _loaded_kernel(tmp_path, block) == KernelSpec()


@pytest.mark.parametrize("key, field, value", [
    ("K", "family_K", "product"), ("L", "K_value", 2.5), ("C", "family_C", "sum"),
    ("C_value", "C_value", 0.5)])
def test_kernel_block_key_sets_only_its_field(tmp_path, key, field, value):
    expected = dataclasses.replace(KernelSpec(), **{field: value})
    assert _loaded_kernel(tmp_path, {key: value}) == expected


@pytest.mark.parametrize("bounds", ["M_cal", [1, 2]], ids=["string", "list"])
def test_declared_bounds_not_a_mapping_is_config_error(tmp_path, capsys, bounds):
    cfg = _write_config(tmp_path, {**FAST_YAML, "kernel": {"declared_bounds": bounds}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"declared_bounds must be a mapping, got {bounds!r}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("block", ["product", ["K", "L"]], ids=["string", "list"])
def test_kernel_block_not_a_mapping_is_config_error(tmp_path, capsys, block):
    cfg = _write_config(tmp_path, {**FAST_YAML, "kernel": block})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"configuration error: config key 'kernel': kernel must be a mapping, got {block!r}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_bad_epsilon_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, FAST_YAML)
    assert main(["simulate", "--config", cfg, "--epsilon", "1.5"]) == EXIT_CONFIG


def test_simulate_custom_case_is_config_error(tmp_path, capsys):
    # there is no 'custom' case: a named case picks the profile, a kernel block the kernels
    cfg = _write_config(tmp_path, {
        "case": "custom", "epsilon": 0.2,
        "kernel": {"K": "product", "C": "product"}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "unknown case 'custom'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def _header(path):
    with open(path) as fh:
        return {key: value for key, _, value in
                (line[2:].rstrip("\n").partition(" = ") for line in fh
                 if line.startswith("# "))}


@pytest.mark.parametrize("case", ["case1", "case2", "case3"])
def test_kernel_block_overrides_case_kernels(tmp_path, capsys, case):
    # the case picks the initial profile, the block the kernels; product
    # kernels gel, so the truncated run loses most of its mass through x_max
    cfg = _write_config(tmp_path, {**FAST_YAML, "case": case,
                                   "kernel": {"K": "product", "C": "product"}})
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
    moments = os.path.join(out, "moments.csv")
    header = _header(moments)
    assert (header["kernel_K"], header["kernel_C"]) == ("product", "product")
    assert header["hypotheses"] == "hypotheses-unverified"
    assert "lam" not in header
    m1 = [float(row.split(",")[2]) for row in body_of(moments).splitlines()[1:]]
    assert m1[-1] < 0.1 * m1[0]
    cfg = _write_config(tmp_path, {"case": case, "kernel": {"K": "product", "C": "product"}},
                        name="validate.yaml")
    assert main(["validate", "--config", cfg]) == EXIT_OK
    assert "FAIL  sublinear growth of K (CH1)" in capsys.readouterr().out


@pytest.mark.parametrize("kernel, horizon", [
    ({"K": "product", "C": "product"}, True), ({"K": "product", "C": "constant"}, False),
    (None, False)], ids=["product-product", "product-constant", "case1"])
def test_riccati_horizon_header_only_with_both_growth_constants(tmp_path, kernel, horizon):
    # product K and C of value 1 read A1 = A2 = 1 off the registry, so every file
    # heads t* = ln(1 + M1/(2 M2)) / (2 M1) of the t = 0 row; a constant kernel has no A
    cfg = _write_config(tmp_path, {**FAST_YAML, **({"kernel": kernel} if kernel else {})})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    m1, m2 = (float(v) for v in body_of(out / "moments.csv").splitlines()[1].split(",")[2:4])
    for name in sorted(os.listdir(out)):
        header = _header(out / name)
        assert ("riccati_horizon" in header) == horizon, name
        if horizon:
            assert float(header["riccati_horizon"]) == math.log1p(m1 / (2.0 * m2)) / (2.0 * m1)


def test_headers_record_case_parameter(tmp_path):
    cfg = _write_config(tmp_path, {**FAST_YAML, "case": "case3", "M": 2.5})
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
    assert _header(os.path.join(out, "moments.csv"))["M"] == "2.5"
    cfg = _write_config(tmp_path, {**SWEEP_YAML, "case": "case2"})
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_OK
    header = _header(os.path.join(out, "errors_t1.csv"))
    assert header["lam"] == "1.0"
    assert "M" not in header


def test_header_records_whole_kernel(tmp_path):
    # every KernelSpec field has a header line, so two runs that differ only
    # in the kernel (here C_value) differ in their headers too; numbers read as floats
    headers = []
    for c_value in (1, 0.5):
        cfg = _write_config(tmp_path, {**FAST_YAML, "kernel": {"C_value": c_value}})
        out = str(tmp_path / f"C{c_value}")
        assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
        headers.append(_header(os.path.join(out, "moments.csv")))
    for f in dataclasses.fields(KernelSpec):
        assert "kernel_" + f.name.removeprefix("family_") in headers[0], f.name
    assert (headers[0]["kernel_C_value"], headers[1]["kernel_C_value"]) == ("1.0", "0.5")
    assert headers[0] != headers[1]


def test_kernel_value_scales_product_kernel(tmp_path):
    # L scales every family, the product kernel included
    bodies = []
    for L in (1.0, 2.0):
        cfg = _write_config(tmp_path, {**FAST_YAML, "kernel": {"K": "product", "L": L}})
        out = str(tmp_path / f"L{L}")
        assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
        bodies.append(body_of(os.path.join(out, "moments.csv")))
    assert bodies[0] != bodies[1]


def test_apriori_bound_violation_is_validation_failure(tmp_path, monkeypatch, capsys):
    def violate(cfg):
        raise AprioriBoundError("a-priori density bounds violated at t=1.0")

    monkeypatch.setattr(dcasim.cli, "run_simulation", violate)
    cfg = _write_config(tmp_path, FAST_YAML)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert "a-priori density bounds violated" in capsys.readouterr().err


def _doubling(at_epsilon):
    """``integrate`` whose snapshots hold twice the concentrations on the grid of
    each epsilon in ``at_epsilon``: the number count M0 rises."""
    def integrate(state0, dk, config, times):
        snapshots, stats = dcasim.integrator.integrate(state0, dk, config, times)
        if dk.grid.epsilon in at_epsilon:
            snapshots = [DiscreteState(st.grid, 2.0 * st.c, st.t) for st in snapshots]
        return snapshots, stats
    return integrate


def test_moment_verdict_failure_is_validation_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dcasim.runs, "integrate", _doubling({0.2, 0.1}))
    cfg = _write_config(tmp_path, FAST_YAML)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == ("validation failure: moment verdict failed: M0_increase at t=0.5, "
                   "mass_defect_mismatch at t=0.5, mass_defect_mismatch at t=1.0\n")
    assert not os.path.exists(tmp_path / "out" / "moments.csv")
    # sweep keeps the other epsilon and notes the one that failed
    monkeypatch.setattr(dcasim.runs, "integrate", _doubling({0.1}))
    cfg = _write_config(tmp_path, {**SWEEP_YAML, "snapshot_times": [0.5]})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == EXIT_OK
    failed = ("epsilon=0.1 failed: AprioriBoundError: moment verdict failed: "
              "M0_increase at t=0.5, mass_defect_mismatch at t=0.5")
    assert capsys.readouterr().err == failed + "\n"
    with open(tmp_path / "sweep" / "errors_t0.5.csv") as fh:
        notes = [line for line in fh if line.startswith("# failed")]
    assert notes == [f"# failed {failed.replace(' failed:', ':', 1)}\n"]


def _underflow(cfg):
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
    cfg = _write_config(tmp_path, SWEEP_YAML)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == EXIT_INTEGRATOR
    err = capsys.readouterr().err
    assert "epsilon=0.1 failed: IntegrationError: step size underflow" in err
    assert "integrator failure: all 2 epsilon values failed" in err
    assert "Traceback" not in err
    with open(tmp_path / "sweep" / "errors_t1.csv") as fh:
        assert fh.read().splitlines() == [
            "# t = 1.0", "# case = case1", "# epsilon_list = [0.2, 0.1]", "# x_max = 10.0",
            "# rtol = 1e-06", "# atol = 1e-10",
            "# failed epsilon=0.2: IntegrationError: step size underflow at t=0.5",
            "# failed epsilon=0.1: IntegrationError: step size underflow at t=0.5",
            "epsilon,t,E1,order_estimate_cumulative",
        ]


# tolerances RunConfig accepts but no step can meet: the state or the error
# estimate overflows, and the run fails on the estimate without a numpy warning
@pytest.mark.parametrize("settings, flags, tolerances", [
    ({"case": "case1", "epsilon": 0.002, "x_max": 5, "snapshot_times": [0.05], "atol": 1.0e300},
     [], "rtol=1e-06, atol=1e+300"),
    ({"case": "case3", "epsilon": 0.05}, ["--rtol", "5e-324", "--atol", "5e-324"],
     "rtol=5e-324, atol=5e-324"),
])
def test_extreme_tolerances_are_integrator_failure(tmp_path, capsys, settings, flags, tolerances):
    cfg = _write_config(tmp_path, settings)
    argv = ["simulate", "--config", cfg, *flags, "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_INTEGRATOR
    out, err = capsys.readouterr()
    assert re.fullmatch(rf"integrator failure: error estimate is not finite at t=\S+ "
                        rf"\({re.escape(tolerances)}\)\n", err)
    assert "Warning" not in out + err and "Traceback" not in out + err


def test_sweep_writes_error_tables(tmp_path):
    cfg = _write_config(tmp_path, SWEEP_YAML)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_OK
    body = body_of(os.path.join(out, "errors_t1.csv")).splitlines()
    assert body[0] == "epsilon,t,E1,order_estimate_cumulative"
    rows = [r.split(",") for r in body[1:]]
    assert [float(r[0]) for r in rows] == [0.2, 0.1]
    assert float(rows[1][2]) < float(rows[0][2])
    assert rows[0][3] == ""                  # no order from a single row
    assert float(rows[1][3]) > 0.0


def test_negative_zero_settings_read_as_zero(tmp_path):
    # -0.0 == 0.0, so no file name or header may tell them apart
    cfg = _write_config(tmp_path, {**FAST_YAML, "case": "case2", "lam": -0.0,
                                   "snapshot_times": [-0.0, 0.5]})
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert sorted(os.listdir(out)) == ["moments.csv", "snapshot_t0.5.csv", "snapshot_t0.csv"]
    header = _header(out / "snapshot_t0.csv")
    assert (header["t"], header["lam"], header["kernel_C_value"]) == ("0.0", "0.0", "0.0")
    cfg = _write_config(tmp_path, {**SWEEP_YAML, "snapshot_times": [-0.0, 1.0]})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert sorted(os.listdir(out)) == ["errors_t0.csv", "errors_t1.csv"]
    assert _header(out / "errors_t0.csv")["t"] == "0.0"


def test_simulate_checks_only_its_own_grid(tmp_path):
    # x_max = 0.1 holds 9 cells of width 0.01, and fewer than 3 of the default
    # ladder's 0.05, which simulate never reads
    cfg = _write_config(tmp_path, {"epsilon": 0.01, "x_max": 0.1, "snapshot_times": [0.01]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK


def test_sweep_single_epsilon_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, {**SWEEP_YAML, "epsilon_list": [0.2]})
    assert main(["sweep", "--config", cfg]) == EXIT_CONFIG


def test_validate_constant_kernels_all_pass(tmp_path, capsys):
    cfg = _write_config(tmp_path, VALIDATE_YAML)
    assert main(["validate", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "hypotheses-unverified" not in out


def test_validate_flags_product_kernel(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**VALIDATE_YAML, "kernel": {"K": "product", "C": "product"}})
    assert main(["validate", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL  sublinear growth of K (CH1)" in out
    assert "hypotheses-unverified" in out


def test_validate_custom_case_without_kernel_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"case": "custom"})
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert "unknown case 'custom'" in capsys.readouterr().err


def test_unbounded_C_is_unverified(tmp_path, capsys):
    # C = x*y is unbounded, so CH2 fails: the run is tagged and validate says so
    kernel = {"kernel": {"K": "constant", "C": "product"}}
    cfg = _write_config(tmp_path, {**FAST_YAML, **kernel})
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
    assert _header(os.path.join(out, "moments.csv"))["hypotheses"] == "hypotheses-unverified"
    cfg = _write_config(tmp_path, {**VALIDATE_YAML, **kernel}, name="validate.yaml")
    capsys.readouterr()
    assert main(["validate", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS  sublinear growth of K (CH1)" in out
    assert "FAIL  uniform bound on C (CH2)" in out
    assert "run would be tagged: hypotheses-unverified" in out


def test_validate_prints_only_exact_conditions(tmp_path, capsys):
    assert main(["validate", "--case", "case1"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "PASS  sublinear growth of K (CH1)", "PASS  uniform bound on C (CH2)"]


def test_simulate_without_snapshot_times_writes_initial_moments(tmp_path):
    # unlike a sweep, which has no table to write, simulate still has moments.csv's t = 0 row
    cfg = _write_config(tmp_path, {**FAST_YAML, "snapshot_times": []})
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
    assert os.listdir(out) == ["moments.csv"]
    assert len(body_of(os.path.join(out, "moments.csv")).splitlines()) == 2


def test_repeat_simulate_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, FAST_YAML)
    outs = [str(tmp_path / d) for d in ("a", "b")]
    for out in outs:
        main(["simulate", "--config", cfg, "--out", out])
    for name in (snapshot_filename(0.5), snapshot_filename(1.0), "moments.csv"):
        bodies = [body_of(os.path.join(out, name)) for out in outs]
        assert bodies[0] == bodies[1]


KERNEL_BLOCK = {"kernel": {"K": "product", "C": "product"}}
INVALID_SETTINGS = [
    ("simulate", {"rtol": -1}, "rtol=-1"),
    ("simulate", {"atol": 0}, "atol=0"),
    ("simulate", {"rtol": "abc"}, "rtol=abc"),
    ("simulate", {"negativity_policy": "bogus"}, "policy=bogus"),
    ("simulate", {"x_max": 0.2, "epsilon": 0.1}, "x_max=0.2"),
    ("simulate", {"case": "case3", "M": -1}, "case3-M=-1"),
    ("simulate", {"case": "case3", "M": 1e-310}, "case3-M=1e-310"),
    ("sweep", {"case": "case3", "M": 1e-310}, "case3-M=1e-310"),
    ("simulate", {"case": "case2", "lam": 3}, "case2-lam=3"),
    ("simulate", {"case": "foo"}, "case=foo"),
    ("sweep", {"rtol": "abc"}, "rtol=abc"),
    ("sweep", KERNEL_BLOCK, "case1-kernel"),
    ("simulate", {"case": "case2", "lam": 0.5, **KERNEL_BLOCK}, "case2-lam-kernel"),
    ("sweep", {"epsilon_list": [0.2, 0.2, 0.1]}, "repeated-epsilon"),
    ("simulate", {"lam": 0.3}, "case1-lam"),
    ("sweep", {"case": "case3", "lam": 0.3}, "case3-lam"),
    ("sweep", {"case": "case2", "lam": 0.5}, "case2-no-closed-form"),
    ("simulate", {"M": 5.0}, "case1-M"),
    ("simulate", {"x_max": float("inf")}, "x_max=inf"),
    ("simulate", {"x_max": 5.0, "epsilon": 1e-300}, "too-many-cells"),
    ("sweep", {"x_max": 5.0, "epsilon_list": [0.2, 1e-300]}, "too-many-cells"),
    ("simulate", {"snapshot_times": [float("inf")]}, "snapshot-inf"),
    ("sweep", {"snapshot_times": []}, "no-snapshot"),
    ("sweep", {"x_max": 3.0, "snapshot_times": [1.0, 2.5]}, "case1-no-reference-mass"),
    ("simulate", {}, "flag-rtol=nan", "--rtol", "nan"),
    ("simulate", {"kernel": {"L": float("nan")}}, "kernel-L=nan"),
    ("simulate", {"x_max": True}, "x_max=true"),
    ("simulate", {"kernel": {"lambda": 0.5}}, "kernel-lambda"),
    ("simulate", {"kernel": {"L": -1.0}}, "kernel-L<0"),
    ("simulate", {"output_dir": 5}, "output_dir=5"),
    ("sweep", {"output_dir": None}, "output_dir=null"),
    ("simulate", {"output_dir": ["out"]}, "output_dir-list"),
    ("simulate", {"snapshot_times": [1.0, 1.0000001]}, "snapshot-file-name-clash"),
    ("sweep", {"snapshot_times": [1.0, 1.0000001]}, "snapshot-file-name-clash"),
    *(("simulate", {"kernel": {"declared_bounds": {key: 1.0}}}, f"kernel-{key}")
      for key in ("A1", "A2", "K1")),
]
# (overrides of VALIDATE_YAML, id, the setting the message must name, *flags)
INVALID_VALIDATE_SETTINGS = [
    ({"negativity_policy": "bogus"}, "policy=bogus", "negativity_policy"),
    ({"kernel": {"K": "product", "Lambda": 0.5}}, "kernel-unknown-key", "Lambda"),
    ({"kernel": {"declared_bounds": {"alpha": 1.0}}}, "kernel-unknown-bound", "alpha"),
    ({"kernel": {"C_value": -0.5}}, "kernel-C_value<0", "C_value"),
    # CH2 reads C's bound off the registry, so M_cal is no bound at all
    ({"kernel": {"declared_bounds": {"M_cal": -1.0}}}, "kernel-M_cal<0",
     "unknown declared_bounds keys M_cal"),
    *(({"kernel": {"declared_bounds": {key: 1.0}}}, f"kernel-{key}", key)
      for key in ("A1", "A2", "K1")),
    ({"x_max": 20}, "x_max", "x_max"),
]
# (command, overrides, id, the setting the message must name): each subcommand
# rejects the resolution setting of the other
UNREAD_SETTINGS = [
    ("sweep", {"epsilon": 0.01}, "epsilon", "epsilon"),
    ("simulate", {"epsilon_list": [0.2, 0.1]}, "epsilon_list", "epsilon_list"),
]


def _setting_config(tmp_path, command, overrides):
    """The command's base config with ``overrides``; the output directory is a
    config key, so a row can override it."""
    out = {} if command == "validate" else {"output_dir": str(tmp_path / "out")}
    return _write_config(tmp_path, {**BASES[command], **out, **overrides})


@pytest.mark.parametrize("command", sorted(BASES))
def test_invalid_setting_base_runs(tmp_path, monkeypatch, command):
    # so each row below fails for its own setting, not for its base
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", _setting_config(tmp_path, command, {})]) == EXIT_OK


@pytest.mark.parametrize("command, overrides, named, flags", [
    *(pytest.param(command, overrides, None, flags, id=f"{command}-{name}")
      for command, overrides, name, *flags in INVALID_SETTINGS),
    *(pytest.param("validate", overrides, named, flags, id=f"validate-{name}")
      for overrides, name, named, *flags in INVALID_VALIDATE_SETTINGS),
    *(pytest.param(command, overrides, named, flags, id=f"{command}-{name}")
      for command, overrides, name, named, *flags in UNREAD_SETTINGS)])
def test_invalid_setting_is_config_error(tmp_path, capsys, command, overrides, named, flags):
    # every setting is checked when the config loads, before any run starts
    argv = [command, "--config", _setting_config(tmp_path, command, overrides), *flags]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err
    if named is not None:
        assert named in err
    assert not os.path.exists(tmp_path / "out")


# (command, flag, value): each subcommand's parser has a flag only for a setting
# it reads, so argparse refuses any other; simulate reads every flag's setting,
# so its row is a flag no parser has
UNREAD_FLAGS = [("validate", "--epsilon", "0.05"), ("validate", "--out", "out"),
                ("sweep", "--epsilon", "0.01"), ("simulate", "--threads", "2")]


@pytest.mark.parametrize("command, flag, value", [
    pytest.param(*row, id=f"{row[0]}-flag-{row[1][2:]}") for row in UNREAD_FLAGS])
def test_unread_flag_is_usage_error(tmp_path, capsys, monkeypatch, command, flag, value):
    monkeypatch.chdir(tmp_path)     # the "--out out" row names a relative path
    argv = [command, "--config", _setting_config(tmp_path, command, {}), flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"usage: dcasim {command} ")    # the subcommand's own usage
    assert f"unrecognized arguments: {flag} {value}" in err
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "out")


# the flags each subcommand's --help offers besides -h and --config
OFFERED = {"simulate": {"--epsilon", "--case", "--lambda", "--out", "--rtol", "--atol"},
           "sweep": {"--case", "--lambda", "--out", "--rtol", "--atol"},
           "validate": {"--case", "--lambda"}}


@pytest.mark.parametrize("command", sorted(BASES))
def test_help_lists_only_read_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == EXIT_OK
    offered = set(re.findall(r"(?<![\w-])--\w+", capsys.readouterr().out)) - {"--help", "--config"}
    reads = dcasim.cli._READS[command]
    assert offered == OFFERED[command] == {
        flag for flag, (field, _) in dcasim.cli._FLAGS.items() if field in reads}


def _no_run(cfg):
    raise AssertionError("integration started before the output directory was created")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_uncreatable_output_dir_is_config_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(dcasim.cli, "run_simulation", _no_run)
    monkeypatch.setattr(dcasim.runs, "run_simulation", _no_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = _write_config(tmp_path, BASES[command])
    assert main([command, "--config", cfg, "--out", str(blocker / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err


def test_sweep_value_error_while_running_is_not_config_error(tmp_path, monkeypatch):
    def broken(cfg):
        raise ValueError("raised while integrating")

    monkeypatch.setattr(dcasim.cli, "run_sweep", broken)
    cfg = _write_config(tmp_path, SWEEP_YAML)
    with pytest.raises(ValueError, match="raised while integrating"):
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])


def _readme_yaml_blocks():
    """(subcommand, block) for each YAML block: the text before it names its command."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks, start = [], 0
    for block in re.finditer(r"^```yaml\n(.*?)^```", readme, flags=re.S | re.M):
        commands = re.findall(r"`dcasim (\w+) --config ", readme[start:block.start()])
        assert commands, f"no `dcasim <command> --config` before {block.group(1)!r}"
        blocks.append((commands[-1], block.group(1)))
        start = block.end()
    return blocks


def test_readme_yaml_blocks_validate(tmp_path):
    # the documented configs must run as written, with the documented subcommand
    blocks = _readme_yaml_blocks()
    assert sorted(command for command, _ in blocks) == ["simulate", "sweep"]
    for k, (command, block) in enumerate(blocks):
        path = tmp_path / f"readme_{k}.yaml"
        path.write_text(block)
        argv = [command, "--config", str(path), "--out", str(tmp_path / f"out_{k}")]
        assert main(argv) == EXIT_OK, block
