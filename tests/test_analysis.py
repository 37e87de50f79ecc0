import os
import subprocess
import sys

import numpy as np
import pytest

import dcasim.analysis
from dcasim.analysis import (ConvergenceTable, estimate_order,
                             moment_diagnostics, rel_l1_error)
from dcasim.exact import ExactCase, exact_solution
from dcasim.grid import build_grid
from dcasim.kernels import KernelSpec
from dcasim.runs import RunConfig, run_simulation
from dcasim.state import (DiscreteState, MomentSeries, StepFunction,
                          project_initial, reconstruct)

from oracle import scalar_rel_l1_error


def test_zero_step_function_error_is_one():
    # numerator equals denominator when the candidate vanishes
    g = build_grid(0.05, 10.0)
    sf = StepFunction(g, np.zeros(g.m))
    rep = rel_l1_error(sf, ExactCase("case1"), 1.0)
    assert rep.E1 == pytest.approx(1.0, abs=1e-9)
    assert rep.numerator == pytest.approx(rep.denominator, rel=1e-9)


def test_projection_error_small_at_time_zero():
    case = ExactCase("case1")
    g = build_grid(0.05, 10.0)
    st, _ = project_initial(lambda x: np.asarray(x, float) * np.exp(-np.asarray(x, float)), g)
    rep = rel_l1_error(reconstruct(st), case, 0.0)
    assert 0.0 < rep.E1 < g.epsilon


def test_error_requires_closed_form():
    g = build_grid(0.05, 10.0)
    sf = StepFunction(g, np.zeros(g.m))
    with pytest.raises(ValueError):
        rel_l1_error(sf, ExactCase("case2", lam=0.5), 1.0)


def test_error_handles_discontinuous_reference():
    # case3 at t=0: the projection nails the uniform part, so the only error
    # comes from the dust cell and the jump cell at x = 3
    case = ExactCase("case3")
    g = build_grid(0.05, 10.0)
    st, _ = project_initial(lambda x: np.where(
        (np.asarray(x, float) >= 0) & (np.asarray(x, float) <= 3.0), 2/3, 0.0), g)
    rep = rel_l1_error(reconstruct(st), case, 0.0)
    # one quadrature node lands exactly on the jump, worth O(eps/panels)
    assert rep.denominator == pytest.approx(2.0, rel=1e-3)
    assert rep.E1 < 2.0 * g.epsilon


def _assert_matches_oracle(sf, case, t):
    rep = rel_l1_error(sf, case, t)
    ref = scalar_rel_l1_error(sf, case, t)
    for name in ("E1", "numerator", "denominator"):
        assert getattr(rep, name) == pytest.approx(getattr(ref, name), rel=1e-10, abs=0.0), name


@pytest.mark.parametrize("x_max", [10.0, 20.0])
@pytest.mark.parametrize("epsilon", [0.05, 0.01])
@pytest.mark.parametrize("case_id", ["case1", "case3"])
def test_error_matches_scalar_oracle_on_runs(case_id, epsilon, x_max):
    run = run_simulation(RunConfig(case=case_id, x_max=x_max), epsilon=epsilon)
    for st in run.snapshots:
        _assert_matches_oracle(reconstruct(st), ExactCase(case_id), st.t)


def test_error_root_at_jump_on_breakpoint_matches_oracle():
    # the case3 jump at M(1+t) = 6 is a breakpoint and the centre of a cell
    # holding a value between the two sides, so the difference changes sign
    # right at the piece's left end; the root must be that end, exactly
    case = ExactCase("case3")
    g = build_grid(0.05, 10.0)
    st, _ = project_initial(lambda x: exact_solution(case, 1.0, x), g)
    sf = reconstruct(st)
    assert 0.0 < sf(6.0) < exact_solution(case, 1.0, 6.0)
    _assert_matches_oracle(sf, case, 1.0)


@pytest.mark.parametrize("epsilon", [0.05, 0.005])
def test_error_makes_few_exact_solution_calls(epsilon, monkeypatch):
    # the work is a handful of array passes, not one call per cell or probe
    calls = []

    def counted(case, t, x):
        calls.append(np.shape(x))
        return exact_solution(case, t, x)

    monkeypatch.setattr(dcasim.analysis, "exact_solution", counted)
    case = ExactCase("case1")
    g = build_grid(epsilon, 10.0)
    st, _ = project_initial(lambda x: exact_solution(case, 1.0, x) * (1.0 + 0.1 * np.sin(x)), g)
    rep = rel_l1_error(reconstruct(st), case, 1.0)
    assert 0.0 < rep.E1 < 1.0
    assert 0 < len(calls) <= 64
    assert () not in calls   # no scalar evaluation


def test_estimate_order_exact_power_laws():
    t1 = ConvergenceTable(t=1.0, rows=[(0.1, 0.1), (0.01, 0.01)])
    assert estimate_order(t1) == pytest.approx(1.0)
    t2 = ConvergenceTable(t=1.0, rows=[(0.1, 0.01), (0.01, 0.0001)])
    assert estimate_order(t2) == pytest.approx(2.0)


def test_estimate_order_needs_two_rows():
    with pytest.raises(ValueError):
        estimate_order(ConvergenceTable(t=1.0, rows=[(0.1, 0.1)]))
    with pytest.raises(ValueError):
        estimate_order(ConvergenceTable(t=1.0, rows=[(0.1, 0.0), (0.01, 0.0)]))


def _series_from(states, defects):
    ms = MomentSeries()
    for st, d in zip(states, defects):
        ms.append(st, d)
    return ms


def test_diagnostics_zero_state_trivial():
    g = build_grid(0.1, 5.0)
    states = [DiscreteState(g, np.zeros(g.m), t) for t in (0.0, 1.0)]
    rep = moment_diagnostics(_series_from(states, [0.0, 0.0]),
                             KernelSpec(), g.epsilon)
    assert rep.number_nonincreasing and rep.mass_conserved
    assert rep.violations == []


def test_diagnostics_flags_number_increase():
    g = build_grid(0.1, 5.0)
    states = [DiscreteState(g, np.full(g.m, v), t)
              for v, t in ((1.0, 0.0), (2.0, 1.0))]
    rep = moment_diagnostics(_series_from(states, [0.0, 0.0]),
                             KernelSpec(), g.epsilon)
    assert not rep.number_nonincreasing
    assert ("M0_increase", 1.0) in rep.violations


def test_diagnostics_flags_unexplained_mass_drift():
    g = build_grid(0.1, 5.0)
    states = [DiscreteState(g, np.full(g.m, v), t)
              for v, t in ((1.0, 0.0), (0.5, 1.0))]
    rep = moment_diagnostics(_series_from(states, [0.0, 0.0]),
                             KernelSpec(), g.epsilon)
    assert not rep.mass_conserved


def test_diagnostics_riccati_denominator_mask():
    # beyond the zero crossing the bound is not checked
    g = build_grid(0.1, 5.0)
    c = np.full(g.m, 0.5)
    states = [DiscreteState(g, c, t) for t in (0.0, 1.0)]
    spec = KernelSpec(family_K="product", family_C="product",
                      declared_bounds={"A1": 1.0, "A2": 1.0})
    rep = moment_diagnostics(_series_from(states, [0.0, 0.0]), spec, g.epsilon)
    assert rep.riccati_checked_mask is not None
    assert bool(rep.riccati_checked_mask[0])
    assert not bool(rep.riccati_checked_mask[1])


def test_diagnostics_empty_series_rejected():
    with pytest.raises(ValueError):
        moment_diagnostics(MomentSeries(), KernelSpec(), 0.1)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize loads only when dcasim.analysis.brentq is first read,
    # and the name is then bound in the module namespace
    code = ("import sys, dcasim.cli\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "import dcasim.analysis, scipy.optimize\n"
            "assert dcasim.analysis.brentq is scipy.optimize.brentq\n"
            "assert vars(dcasim.analysis)['brentq'] is scipy.optimize.brentq\n")
    src = os.path.dirname(os.path.dirname(dcasim.analysis.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)
