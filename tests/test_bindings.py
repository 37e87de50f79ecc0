"""Module bindings that the benchmark (``perfbench/``) wraps or reads from outside.

Its tracer rebinds a function in every ``dcasim`` module namespace that holds
it, and its CLI workloads wrap ``dcasim.cli.run_sweep``/``run_simulation`` to
collect work counts.  A refactor that inlines, fuses or renames one of these
leaves the traced benchmark counting the wrong thing.  The lazy
``dcasim.analysis.brentq`` name is pinned in ``test_analysis.py``.
"""

import importlib
import pathlib
import sys

import numpy as np

import dcasim.cli
import dcasim.integrator
import dcasim.rhs
import dcasim.runs
from dcasim.integrator import IntegratorConfig, integrate
from dcasim.kernels import KernelSpec, discretize
from dcasim.state import DiscreteState

from oracle import small_grid


def test_benchmark_bindings(monkeypatch):
    assert dcasim.integrator.rhs_vector is dcasim.rhs.rhs_vector
    # traced rhs_vector calls must equal the integrator's own rhs_evals, and the
    # integrator reads each stage's defect rate off that call, not mass_defect_rate
    calls, defect_calls = [], []
    original_defect = dcasim.rhs.mass_defect_rate

    def counted(c, dk, **kw):
        calls.append(None)
        return dcasim.rhs.rhs_vector(c, dk, **kw)

    def counted_defect(c, dk):
        defect_calls.append(None)
        return original_defect(c, dk)

    monkeypatch.setattr(dcasim.integrator, "rhs_vector", counted)
    for name, module in list(sys.modules.items()):   # every dcasim binding, as the tracer
        if name.split(".")[0] == "dcasim":
            for attr, value in list(vars(module).items()):
                if value is original_defect:
                    monkeypatch.setattr(module, attr, counted_defect)
    grid = small_grid(0.1, 6)
    dk = discretize(KernelSpec(C_value=1.0), grid)
    _, stats = integrate(DiscreteState(grid, np.linspace(1.0, 0.1, 6)), dk,
                         IntegratorConfig(), [0.5])
    assert len(calls) == stats.rhs_evals > 0
    assert defect_calls == [] and stats.accepted > 0
    # kernels.dense_bytes is read as Kd.nbytes + Cd.nbytes
    assert dk.Kd.shape == dk.Cd.shape == (6, 6)
    assert dcasim.cli.run_sweep is dcasim.runs.run_sweep
    assert dcasim.cli.run_simulation is dcasim.runs.run_simulation


def test_benchmark_tracer_installs(monkeypatch):
    # the traced benchmark patches each of its names in the dcasim modules that
    # bind it; it raises (LookupError, or AttributeError for a renamed one) when
    # one is no longer bound in a dcasim module
    perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    original, mass_defect_rate = dcasim.rhs.rhs_vector, dcasim.rhs.mass_defect_rate
    try:
        tracer, _ = importlib.import_module("worker").install_tracer()
        assert dcasim.integrator.rhs_vector is not original
        # mass_defect_rate is traced where it is defined, though no run calls it
        assert dcasim.rhs.mass_defect_rate is not mass_defect_rate
        tracer.unpatch()
        assert dcasim.integrator.rhs_vector is dcasim.rhs.rhs_vector is original
        assert dcasim.rhs.mass_defect_rate is mass_defect_rate
    finally:
        for name in ("worker", "tracer", "workloads"):
            sys.modules.pop(name, None)


def test_traced_rhs_counts_match_integrator_stats(monkeypatch):
    # perfbench/run.py rejects a run whose traced rhs_vector calls differ from
    # integrator.rhs_evals, or whose rhs.cell_evals differ from rhs_evals * m;
    # checked on K = C, on an untied pair and on case 3's C = 0, which plans no C term
    perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    grid = small_grid(0.1, 7)
    try:
        for spec in (KernelSpec(), KernelSpec(family_K="product", C_value=0.5),
                     KernelSpec(C_value=0.0)):
            dk = discretize(spec, grid)
            tracer, counts = importlib.import_module("worker").install_tracer()
            try:
                _, stats = integrate(DiscreteState(grid, np.linspace(1.0, 0.1, 7)), dk,
                                     IntegratorConfig(), [0.5])
            finally:
                tracer.unpatch()
            assert tracer.calls["rhs.rhs_vector"] == stats.rhs_evals > 0, spec
            assert counts["rhs.cell_evals"] == stats.rhs_evals * grid.m, spec
    finally:
        for name in ("worker", "tracer", "workloads"):
            sys.modules.pop(name, None)
    assert dcasim.integrator.rhs_vector is dcasim.rhs.rhs_vector


def test_benchmark_cli_capture_counts_every_sweep_run(tmp_path, monkeypatch):
    # the sweep workload reads its work counts by wrapping dcasim.cli.run_sweep with
    # perfbench's _CliCapture; however cmd_sweep calls it, each run of the ladder counts
    perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    config = tmp_path / "sweep.yaml"
    config.write_text("case: case1\nepsilon_list: [0.2, 0.1]\nsnapshot_times: [1.0]\n")
    try:
        workloads = importlib.import_module("workloads")
        with workloads._CliCapture("run_sweep", lambda res: res.runs.values()) as cap:
            argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "out")]
            assert dcasim.cli.main(argv) == 0
    finally:
        sys.modules.pop("workloads", None)
    assert dcasim.cli.run_sweep is dcasim.runs.run_sweep
    runs = dcasim.runs.run_sweep(dcasim.runs.RunConfig(
        case="case1", epsilon_list=(0.2, 0.1), snapshot_times=(1.0,))).runs.values()
    assert len(runs) == 2
    assert cap.work["integrator.accepted"] == sum(run.stats.accepted for run in runs) > 0
    assert cap.work["integrator.rhs_evals"] == sum(run.stats.rhs_evals for run in runs)
    assert cap.work["kernels.dense_bytes"] == sum(2 * 8 * run.dk.grid.m ** 2 for run in runs)
