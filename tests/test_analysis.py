import os
import subprocess
import sys

import numpy as np
import pytest

import dcasim.analysis
from dcasim.analysis import estimate_order, moment_diagnostics, rel_l1_error
from dcasim.exact import ExactCase, exact_solution
from dcasim.grid import Grid, build_grid
from dcasim.kernels import KernelSpec
from dcasim.runs import RunConfig, run_simulation
from dcasim.state import DiscreteState, MomentSeries, project_initial

from oracle import scalar_rel_l1_error, step_value


def test_zero_step_function_error_is_one():
    # numerator equals denominator when the candidate vanishes
    g = build_grid(0.05, 10.0)
    rep = rel_l1_error(DiscreteState(g, np.zeros(g.m), 1.0), ExactCase("case1"))
    assert rep.E1 == pytest.approx(1.0, abs=1e-9)
    assert rep.numerator == pytest.approx(rep.denominator, rel=1e-9)


def test_error_on_a_tall_reference_raises_no_warning():
    # case 3 at M = 1e-300 is 2e300 high on [0, 1e-300]: all of it in the dust
    # cell, and the product of two probe differences would overflow
    g = build_grid(0.05, 5.0)
    rep = rel_l1_error(DiscreteState(g, np.zeros(g.m), 0.01), ExactCase("case3", M=1e-300))
    assert rep.E1 == 1.0


def test_projection_error_small_at_time_zero():
    case = ExactCase("case1")
    g = build_grid(0.05, 10.0)
    st, _ = project_initial(lambda x: np.asarray(x, float) * np.exp(-np.asarray(x, float)), g)
    rep = rel_l1_error(st, case)
    assert 0.0 < rep.E1 < g.epsilon


def test_error_requires_closed_form():
    g = build_grid(0.05, 10.0)
    with pytest.raises(ValueError):
        rel_l1_error(DiscreteState(g, np.zeros(g.m), 1.0), ExactCase("case2", lam=0.5))


def test_error_handles_discontinuous_reference():
    # case3 at t=0: the projection nails the uniform part, so the only error
    # comes from the dust cell and the jump cell at x = 3
    case = ExactCase("case3")
    g = build_grid(0.05, 10.0)
    st, _ = project_initial(lambda x: np.where(
        (np.asarray(x, float) >= 0) & (np.asarray(x, float) <= 3.0), 2/3, 0.0), g)
    rep = rel_l1_error(st, case)
    # one quadrature node lands exactly on the jump, worth O(eps/panels)
    assert rep.denominator == pytest.approx(2.0, rel=1e-3)
    assert rep.E1 < 2.0 * g.epsilon


def test_error_root_far_out_ends_at_one_float_step():
    # case 3 with the jump at x = 6e5, the centre of the half-full last cell:
    # the bisection's bracket closes on the jump, where one float step (1.2e-10)
    # is wider than _ROOT_TOL, so it must stop when no bracket can be halved.
    # The same state scaled down by 1e5 has the same E1.
    def error(M, grid):
        h = 2.0 / M
        state = DiscreteState(grid, np.array([h] * 5 + [h / 2]), 0.0)
        return rel_l1_error(state, ExactCase("case3", M=M)).E1

    assert error(6e5, Grid(1e5, 7e5, 6)) == pytest.approx(error(6.0, Grid(1.0, 7.0, 6)),
                                                          rel=1e-12)


def _assert_matches_oracle(state, case):
    rep = rel_l1_error(state, case)
    ref = scalar_rel_l1_error(state, case)
    for name in ("E1", "numerator", "denominator"):
        assert getattr(rep, name) == pytest.approx(getattr(ref, name), rel=1e-10, abs=0.0), name


# at x_max = 10.025 the last cell's right edge is x_max (no tail piece); at
# 9.975 it lies one ulp beyond x_max, and the last cell ends there
@pytest.mark.parametrize("epsilon, x_max", [(0.05, 10.0), (0.05, 20.0), (0.01, 10.0),
                                            (0.01, 20.0), (0.05, 10.025), (0.05, 9.975)])
@pytest.mark.parametrize("case_id", ["case1", "case3"])
def test_error_matches_scalar_oracle_on_runs(case_id, epsilon, x_max):
    # at t = 0 the case-1 breakpoint is 0; at t = 1.0125 it is 2.025, a cell
    # edge at both epsilons; at t = 2.5 the case-3 jump 10.5 lies beyond x_max
    # unless x_max = 20
    run = run_simulation(RunConfig(case=case_id, epsilon=epsilon, x_max=x_max,
                                   snapshot_times=(1.0, 1.0125, 2.5)))
    for st in (run.initial, *run.snapshots):
        _assert_matches_oracle(st, ExactCase(case_id))


def test_error_root_at_jump_on_breakpoint_matches_oracle():
    # the case3 jump at M(1+t) = 6 is a breakpoint and the centre of a cell
    # holding a value between the two sides, so the difference changes sign
    # right at the piece's left end; the root must be that end, exactly
    case = ExactCase("case3")
    g = build_grid(0.05, 10.0)
    st, _ = project_initial(lambda x: exact_solution(case, 1.0, x), g)
    st.t = 1.0
    assert 0.0 < step_value(st, 6.0) < exact_solution(case, 1.0, 6.0)
    _assert_matches_oracle(st, case)


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
    st.t = 1.0
    rep = rel_l1_error(st, case)
    assert 0.0 < rep.E1 < 1.0
    assert 0 < len(calls) <= 64
    assert () not in calls   # no scalar evaluation


def test_estimate_order_exact_power_laws():
    assert estimate_order([(0.1, 0.1), (0.01, 0.01)]) == pytest.approx(1.0)
    assert estimate_order([(0.1, 0.01), (0.01, 0.0001)]) == pytest.approx(2.0)


def test_estimate_order_needs_two_rows():
    with pytest.raises(ValueError):
        estimate_order([(0.1, 0.1)])
    with pytest.raises(ValueError):
        estimate_order([(0.1, 0.0), (0.01, 0.0)])
    # two rows at one epsilon fix no slope
    with pytest.raises(ValueError, match="2 or more distinct epsilon"):
        estimate_order([(0.1, 0.2), (0.1, 0.3)])
    # a row that is not two finite numbers, or whose epsilon is not above 0, is
    # rejected, not left out of the fit nor passed to the log
    for row, name, rule in [((0.1, np.nan), "E1", "a finite number"),
                            ((np.inf, 0.3), "epsilon", "a finite number"),
                            ((True, 0.3), "epsilon", "a finite number"),
                            ((0.0, 0.3), "epsilon", "positive"),
                            ((-0.1, 0.3), "epsilon", "positive")]:
        with pytest.raises(ValueError, match=f"{name} must be {rule}"):
            estimate_order([row, (0.05, 0.2), (0.02, 0.1)])


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
    assert rep.violations == []


def test_diagnostics_flags_number_increase():
    g = build_grid(0.1, 5.0)
    states = [DiscreteState(g, np.full(g.m, v), t)
              for v, t in ((1.0, 0.0), (2.0, 1.0))]
    rep = moment_diagnostics(_series_from(states, [0.0, 0.0]),
                             KernelSpec(), g.epsilon)
    assert ("M0_increase", 1.0) in rep.violations


def test_diagnostics_flags_unexplained_mass_drift():
    g = build_grid(0.1, 5.0)
    states = [DiscreteState(g, np.full(g.m, v), t)
              for v, t in ((1.0, 0.0), (0.5, 1.0))]
    rep = moment_diagnostics(_series_from(states, [0.0, 0.0]),
                             KernelSpec(), g.epsilon)
    assert any(kind == "mass_defect_mismatch" for kind, _ in rep.violations)


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


@pytest.mark.parametrize("growth, breach", [(1.0, False), (2.0, True), (np.nan, True)])
def test_diagnostics_flags_second_moment_above_riccati_bound(growth, breach):
    # the bound rises about 10% by t = 1e-3, before the denominator's zero near
    # t = 0.0115, so an M2 that doubles by then breaches it, and so does a NaN
    g = build_grid(0.1, 5.0)
    c = np.full(g.m, 0.5)
    states = [DiscreteState(g, c, 0.0), DiscreteState(g, growth * c, 1e-3)]
    spec = KernelSpec(family_K="product", family_C="product",
                      declared_bounds={"A1": 1.0, "A2": 1.0})
    rep = moment_diagnostics(_series_from(states, [0.0, 0.0]), spec, g.epsilon)
    assert bool(np.all(rep.riccati_checked_mask))
    assert (("second_moment_bound", 1e-3) in rep.violations) == breach


def _nan_at(name, k):
    g = build_grid(0.1, 5.0)
    ms = _series_from([DiscreteState(g, np.full(g.m, 1.0), t) for t in (0.0, 1.0, 2.0)],
                      [0.0, 0.0, 0.0])
    getattr(ms, name)[k] = np.nan
    return ms


@pytest.mark.parametrize("name, k, kinds", [
    ("M0", 1, {"M0_increase"}),
    ("M0", 0, {"M0_increase"}),
    ("M1", 2, {"mass_defect_mismatch"}),
    ("M1", 0, {"mass_defect_mismatch"}),
    ("defect_integral", 1, {"mass_defect_mismatch"}),
    ("M2", 1, set()),
])
def test_diagnostics_nan_moment_is_a_violation(name, k, kinds):
    # a check that a NaN cannot pass fails at that NaN
    rep = moment_diagnostics(_nan_at(name, k), KernelSpec(), 0.1)
    listed = {kind for kind, _ in rep.violations}
    assert listed == kinds


def test_diagnostics_empty_series_rejected():
    with pytest.raises(ValueError):
        moment_diagnostics(MomentSeries(), KernelSpec(), 0.1)
    # and a non-finite epsilon or rtol, which would flag every time, a negative
    # rtol, which flags a constant series, or an epsilon not above 0
    g = build_grid(0.1, 5.0)
    series = _series_from([DiscreteState(g, np.ones(g.m), t) for t in (0.0, 1.0)], [0.0, 0.0])
    for name, rule, kwargs in [("epsilon", "a finite number", {"epsilon": np.nan}),
                               ("rtol", "a finite number", {"epsilon": 0.1, "rtol": np.nan}),
                               ("rtol", "nonnegative", {"epsilon": 0.1, "rtol": -1.0}),
                               ("epsilon", "positive", {"epsilon": 0.0}),
                               ("epsilon", "positive", {"epsilon": -0.1})]:
        with pytest.raises(ValueError, match=f"{name} must be {rule}"):
            moment_diagnostics(series, KernelSpec(), **kwargs)


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
