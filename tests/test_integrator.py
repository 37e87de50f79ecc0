import math
from dataclasses import astuple

import numpy as np
import pytest

import dcasim.integrator
from dcasim.exact import ExactCase, initial_profile
from dcasim.grid import build_grid
from dcasim.integrator import IntegrationError, IntegratorConfig, _clamp_negative, integrate
from dcasim.kernels import FAMILIES, KernelSpec, discretize
from dcasim.runs import RunConfig, run_simulation
from dcasim.state import DiscreteState, moment, project_initial

from oracle import reference_integrate, rk4_reference, small_grid

CONST = KernelSpec(family_K="constant", K_value=1.0, C_value=1.0)


def _setup(epsilon=0.1, m=None, x_max=10.0):
    grid = build_grid(epsilon, x_max) if m is None else small_grid(epsilon, m)
    return grid, discretize(CONST, grid)


def test_config_validation():
    for name, value in [("rtol", 0.0), ("atol", -1.0)]:
        with pytest.raises(ValueError, match=f"{name} must be positive, got {value}"):
            IntegratorConfig(**{name: value})
    # held as Python floats, which a run's header prints
    assert [type(v) for v in astuple(IntegratorConfig(rtol=1, atol=1))] == [float, float]


@pytest.mark.parametrize("name", ["rtol", "atol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "1e-6"],
                         ids=["nan", "inf", "bool", "str"])
def test_config_rejects_non_finite_tolerance(name, value):
    # as RunConfig does, before a run would fail on its error estimate
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        IntegratorConfig(**{name: value})


@pytest.mark.parametrize("t0, times", [(0.0, [float("nan")]), (0.0, [float("inf")]),
                                       (0.0, [0.5, float("nan")]), (float("nan"), [1.0]),
                                       (-float("inf"), [1.0])],
                         ids=["nan", "inf", "second-nan", "t0-nan", "t0-minus-inf"])
def test_non_finite_time_rejected(t0, times):
    grid, dk = _setup(m=4)
    with pytest.raises(ValueError, match="must be a finite number"):
        integrate(DiscreteState(grid, np.ones(4), t0), dk, IntegratorConfig(), times)


def test_clamp_negative_writes_positive_zero_in_place():
    y = np.array([0.5, -1e-3, -0.0, 2.0, -5e-324])
    before = y.copy()
    expected = math.fsum(i * -v for i, v in enumerate(before, 1) if v < 0)
    assert _clamp_negative(y, np.arange(1.0, 6.0)) == expected
    assert [math.copysign(1.0, v) for v in y[[1, 2, 4]]] == [1.0, -1.0, 1.0]
    assert y[1] == y[4] == 0.0
    assert y[[0, 2, 3]].tobytes() == before[[0, 2, 3]].tobytes()


def test_clamp_negative_leaves_nonnegative_state():
    y = np.array([0.0, -0.0, 1e-300, 3.0])
    before = y.tobytes()
    assert _clamp_negative(y, np.arange(1.0, 5.0)) == 0.0
    assert y.tobytes() == before


def test_zero_state_stays_zero():
    grid, dk = _setup()
    st0 = DiscreteState(grid, np.zeros(grid.m))
    snaps, stats = integrate(st0, dk, IntegratorConfig(), [0.5, 1.0])
    assert [s.t for s in snaps] == [0.5, 1.0]
    for s in snaps:
        assert np.all(s.c == 0.0)
    assert stats.rejected == 0


def test_snapshot_times_must_increase():
    grid, dk = _setup()
    st0 = DiscreteState(grid, np.zeros(grid.m))
    with pytest.raises(ValueError):
        integrate(st0, dk, IntegratorConfig(), [1.0, 0.5])
    with pytest.raises(ValueError):
        integrate(DiscreteState(grid, np.zeros(grid.m), t=2.0), dk,
                  IntegratorConfig(), [1.0])


@pytest.mark.parametrize("kernel_grid", [(0.05, 0.5), (0.1, 5.0)], ids=["same-m", "other-m"])
def test_state_and_kernel_on_different_grids_rejected(kernel_grid):
    # same-m: both grids hold 9 cells, so the arrays alone cannot tell them apart
    grid = build_grid(0.1, 1.0)
    dk = discretize(CONST, build_grid(*kernel_grid))
    with pytest.raises(ValueError, match="state and discrete kernel live on different grids"):
        integrate(DiscreteState(grid, np.ones(grid.m)), dk, IntegratorConfig(), [0.1])


def test_empty_snapshot_list():
    grid, dk = _setup()
    st0 = DiscreteState(grid, np.zeros(grid.m))
    snaps, stats = integrate(st0, dk, IntegratorConfig(), [])
    assert snaps == [] and stats.accepted == 0


def test_first_step_euler_consistent():
    # c(h) = c0 + h*(-0.7, -0.4) + O(h^2) for the two-cell hand example
    grid, dk = _setup(m=2)
    st0 = DiscreteState(grid, np.array([1.0, 1.0]))
    h = 1e-6
    snaps, _ = integrate(st0, dk, IntegratorConfig(), [h])
    expect = np.array([1.0, 1.0]) + h * np.array([-0.7, -0.4])
    np.testing.assert_allclose(snaps[0].c, expect, atol=1e-11)


def test_matches_rk4_reference_small_system():
    grid, dk = _setup(m=6)
    c0 = np.linspace(1.0, 0.2, 6)
    snaps, _ = integrate(DiscreteState(grid, c0), dk,
                         IntegratorConfig(rtol=1e-9, atol=1e-12), [1.0])
    ref = rk4_reference(c0, dk, 1.0, 1e-4)
    assert np.max(np.abs(snaps[0].c - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_no_negativity_clamping_on_case1():
    grid, dk = _setup(epsilon=0.05)
    profile = lambda x: np.asarray(x, float) * np.exp(-np.asarray(x, float))
    st0, _ = project_initial(profile, grid)
    snaps, stats = integrate(st0, dk, IntegratorConfig(), [2.5])
    assert stats.clamped_mass == 0.0
    assert np.all(snaps[0].c >= 0.0)
    assert stats.accepted > 0


def test_defect_integral_closes_mass_budget():
    # M1(t) - M1(0) must equal eps^2 times the accumulated defect integral
    grid, dk = _setup(epsilon=0.1, x_max=5.0)
    profile = lambda x: np.asarray(x, float) * np.exp(-np.asarray(x, float))
    st0, _ = project_initial(profile, grid)
    snaps, stats = integrate(st0, dk, IntegratorConfig(rtol=1e-9, atol=1e-12),
                             [1.0, 2.5])
    for st, dint in zip(snaps, stats.defect_integrals):
        drift = moment(st, 1) - moment(st0, 1)
        assert drift == pytest.approx(grid.epsilon**2 * dint,
                                      abs=1e-9 * moment(st0, 1))


def test_defect_integrals_one_per_snapshot():
    grid, dk = _setup(m=5)
    st0 = DiscreteState(grid, np.ones(5))
    snaps, stats = integrate(st0, dk, IntegratorConfig(), [0.1, 0.2, 0.3])
    assert len(stats.defect_integrals) == len(snaps) == 3
    # the boundary is loaded here, so the defect must accumulate monotonically
    assert stats.defect_integrals[0] < 0.0
    assert all(b < a for a, b in zip(stats.defect_integrals,
                                     stats.defect_integrals[1:]))


def test_snapshot_at_start_time():
    grid, dk = _setup(m=4)
    st0 = DiscreteState(grid, np.ones(4))
    snaps, _ = integrate(st0, dk, IntegratorConfig(), [0.0, 0.5])
    assert snaps[0].t == 0.0
    np.testing.assert_array_equal(snaps[0].c, st0.c)


def test_max_steps_exhaustion_raises(monkeypatch):
    grid, dk = _setup(m=4)
    st0 = DiscreteState(grid, np.ones(4))
    monkeypatch.setattr(dcasim.integrator, "_MAX_STEPS", 3)
    with pytest.raises(IntegrationError):
        integrate(st0, dk, IntegratorConfig(), [1.0])


def test_step_size_underflow_raises():
    # the second snapshot lies one ulp past the first, a step below the floor
    grid, dk = _setup(m=4)
    st0 = DiscreteState(grid, np.ones(4))
    with pytest.raises(IntegrationError, match="step size underflow at t=1.0"):
        integrate(st0, dk, IntegratorConfig(), [1.0, np.nextafter(1.0, 2.0)])


@pytest.mark.parametrize("times", [[1e-11], [0.0, 1e-12]], ids=["1e-11", "0-1e-12"])
def test_first_snapshot_close_to_start_is_reached(times):
    # the first step's guess 1e-4 * span would fall below the step floor 1e-14,
    # though the gap to the target does not
    run = run_simulation(RunConfig(case="case1", epsilon=0.05, snapshot_times=times))
    assert [s.t for s in run.snapshots] == times
    assert run.stats.accepted > 0 and run.stats.rejected == 0


def test_stats_metadata_keys():
    # a run's header ends with StepStats' scalar fields, in field order
    md = run_simulation(RunConfig(epsilon=0.2, snapshot_times=(0.5,))).metadata()
    assert list(md)[-4:] == ["accepted", "rejected", "rhs_evals", "clamped_mass"]
    assert "defect_integrals" not in md
    assert md["rhs_evals"] >= 6 * md["accepted"]


_CASE1, _CASE3 = ExactCase("case1"), ExactCase("case3")
_TIGHT, _LOOSE = IntegratorConfig(), IntegratorConfig(rtol=1e-3, atol=1e-6)
# (case profile, kernel pair, eps, tolerances, snapshot times, whether a step clamps)
_LOOP_RUNS = {
    **{f"{fam}-tied": (_CASE1, KernelSpec(family_K=fam, family_C=fam), 0.1, _TIGHT,
                       (0.1, 0.2) if fam == "product" else (0.5, 1.0), False)
       for fam in FAMILIES},
    "case3-C0": (_CASE3, _CASE3.kernel(), 0.05, _TIGHT, (0.5, 1.0), False),
    "K0": (_CASE1, KernelSpec(K_value=0.0, family_C="sum", C_value=0.5), 0.1, _TIGHT,
           (0.5, 1.0), False),
    "product-constant": (_CASE1, KernelSpec(family_K="product", C_value=0.5), 0.1, _TIGHT,
                         (0.1, 0.2), False),
    # K = C = xy on case 3's profile gels at t0 = 2/9; past it a loose step goes negative
    "product-tied-clamps": (_CASE3, KernelSpec(family_K="product", family_C="product"), 0.1,
                            _LOOSE, (0.5, 1.0), True),
}


@pytest.mark.parametrize("run", _LOOP_RUNS.values(), ids=_LOOP_RUNS)
def test_integrate_bitwise_matches_reference_loop(run):
    # the candidate taken as the sixth stage state and the defect rates read off
    # the RHS pass round exactly as the separate candidate sum and defect calls
    case, spec, eps, cfg, times, clamps = run
    grid = build_grid(eps, 10.0)
    dk = discretize(spec, grid)
    st0, _ = project_initial(initial_profile(case), grid)
    snaps, stats = integrate(st0, dk, cfg, times)
    ref_snaps, ref_stats = reference_integrate(st0, dk, cfg, times)
    assert (stats.clamped_mass > 0.0) == clamps
    assert stats == ref_stats
    assert [s.t for s in snaps] == [s.t for s in ref_snaps] == list(times)
    for s, r in zip(snaps, ref_snaps):
        assert s.c.tobytes() == r.c.tobytes()


def test_in_place_clamp_leaves_caller_arrays_alone():
    case, spec, eps, cfg, times, _ = _LOOP_RUNS["product-tied-clamps"]
    grid = build_grid(eps, 10.0)
    st0, _ = project_initial(initial_profile(case), grid)
    before = st0.c.tobytes()
    snaps, stats = integrate(st0, discretize(spec, grid), cfg, times)
    assert stats.clamped_mass > 0.0
    assert st0.c.tobytes() == before
    arrays = [st0.c, *(s.c for s in snaps)]
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[i + 1:])
