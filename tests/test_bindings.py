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
    assert dcasim.integrator.mass_defect_rate is dcasim.rhs.mass_defect_rate
    # traced rhs_vector calls must equal the integrator's own rhs_evals
    calls = []

    def counted(c, dk):
        calls.append(None)
        return dcasim.rhs.rhs_vector(c, dk)

    monkeypatch.setattr(dcasim.integrator, "rhs_vector", counted)
    grid = small_grid(0.1, 6)
    dk = discretize(KernelSpec(C_value=1.0), grid)
    _, stats = integrate(DiscreteState(grid, np.linspace(1.0, 0.1, 6)), dk,
                         IntegratorConfig(), [0.5])
    assert len(calls) == stats.rhs_evals > 0
    # traced mass_defect_rate calls must be six per accepted step
    defect_calls = []

    def counted_defect(c, dk):
        defect_calls.append(None)
        return dcasim.rhs.mass_defect_rate(c, dk)

    monkeypatch.setattr(dcasim.integrator, "mass_defect_rate", counted_defect)
    _, stats = integrate(DiscreteState(grid, np.linspace(1.0, 0.1, 6)), dk,
                         IntegratorConfig(), [0.5])
    assert len(defect_calls) == 6 * stats.accepted > 0
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
    original = dcasim.rhs.rhs_vector
    try:
        tracer, _ = importlib.import_module("worker").install_tracer()
        assert dcasim.integrator.rhs_vector is not original
        tracer.unpatch()
        assert dcasim.integrator.rhs_vector is dcasim.rhs.rhs_vector is original
    finally:
        for name in ("worker", "tracer", "workloads"):
            sys.modules.pop(name, None)
