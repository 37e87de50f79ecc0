import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import dcasim.grid
from dcasim.grid import build_grid
from dcasim.kernels import (FAMILIES, HypothesisReport, KernelSpec, discretize, finite_float,
                            probe_hypotheses)
from dcasim.rhs import mass_defect_rate, rhs_vector
from dcasim.runs import RunConfig

from oracle import FAMILY_PAIRS, factors, kernel_value, naive_matrices, plan_kinds, small_grid


def _point_rule(spec, which, g):
    """The oracle's entry-by-entry eps * K(eps*i, eps*j) for ``which`` in K, C."""
    Kd, Cd = naive_matrices(spec, g.epsilon, g.m)
    return np.array(Kd if which == "K" else Cd)


def test_constant_kernel_values():
    g = build_grid(0.1, 2.0)
    dk = discretize(KernelSpec(family_K="constant", K_value=2.5), g)
    np.testing.assert_allclose(dk.Kd, 0.1 * 2.5, rtol=1e-15)
    assert kernel_value(dk.spec, "K", 0.3, 7.0) == 2.5


def test_product_and_sum_kernels():
    g = build_grid(0.1, 2.0)
    prod = discretize(KernelSpec(family_K="product"), g)
    add = discretize(KernelSpec(family_K="sum"), g)
    # Kd[i-1, j-1] = eps * K(eps*i, eps*j): cells 2 and 3 sit at 0.2 and 0.3
    assert prod.Kd[1, 2] == pytest.approx(0.1 * 0.06)
    assert add.Kd[1, 2] == pytest.approx(0.1 * 0.5)
    # every family scales by its value
    scaled = discretize(KernelSpec(family_K="product", K_value=2.5,
                                   family_C="sum", C_value=0.7), g)
    assert scaled.Kd[1, 2] == pytest.approx(0.1 * 0.15)
    assert scaled.Cd[1, 2] == pytest.approx(0.1 * 0.35)
    for dk in (prod, add, scaled):
        np.testing.assert_allclose(dk.Kd, _point_rule(dk.spec, "K", g), rtol=1e-15)


def test_lambda_ties_C_to_K():
    # C = lam * K is C in K's family with value lam * L
    g = build_grid(0.1, 2.0)
    for fam in FAMILIES:
        dk = discretize(KernelSpec(family_K=fam, K_value=2.0, family_C=fam, C_value=0.5 * 2.0), g)
        np.testing.assert_allclose(dk.Cd, 0.5 * dk.Kd, rtol=1e-15)


def test_plan_merges_K_and_C_iff_same_kernel_and_skips_zero_kernels():
    g = build_grid(0.1, 2.0)
    for spec, tied in ((RunConfig(case="case2").kernel_pair(), True),
                       (RunConfig(case="case2", lam=0.5).kernel_pair(), False),
                       (KernelSpec(family_K="sum", family_C="sum"), True),
                       (KernelSpec(family_K="sum", K_value=1.0, family_C="sum", C_value=0.5), False),
                       (KernelSpec(family_K="product", family_C="constant"), False),
                       (KernelSpec(family_K="constant", family_C="sum"), False)):
        merged = all(len(groups) == 1 and set(groups[0]) == {"row"}
                     for groups in plan_kinds(discretize(spec, g)))
        assert merged is tied, spec
    # a zero-valued kernel contributes no term: case 3 (C = 0) plans K's terms only
    assert plan_kinds(discretize(RunConfig(case="case3").kernel_pair(), g)) == (
        (("prefix",),), (("suffix",),))
    K_zero = KernelSpec(family_K="sum", K_value=0.0, family_C="product")
    assert plan_kinds(discretize(K_zero, g)) == ((("suffix",),), (("prefix",),))
    # kernel: {L: 0, C_value: 0} plans nothing: an all-zero RHS and no boundary defect
    dk = discretize(KernelSpec(K_value=0.0, C_value=0.0), g)
    assert plan_kinds(dk) == ((), ())
    c = np.random.default_rng(53).random(g.m) - 0.3
    np.testing.assert_array_equal(rhs_vector(c, dk), 0.0)
    assert mass_defect_rate(c, dk) == 0.0


def test_independent_C_family():
    g = build_grid(0.1, 2.0)
    dk = discretize(KernelSpec(family_K="constant", K_value=1.0,
                               family_C="product", C_value=1.0), g)
    assert dk.Cd[1, 2] == pytest.approx(0.1 * 0.06)
    np.testing.assert_allclose(dk.Cd, _point_rule(dk.spec, "C", g), rtol=1e-15)
    np.testing.assert_allclose(dk.Kd, 0.1, rtol=1e-15)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        KernelSpec(family_K="bilinear")
    with pytest.raises(ValueError):
        KernelSpec(family_C="bilinear")


def test_lambda_out_of_range_rejected():
    # case 2's lam is the one lambda left, and it must lie in [0, 1]
    with pytest.raises(ValueError):
        RunConfig(case="case2", lam=1.5)
    with pytest.raises(ValueError):
        RunConfig(case="case2", lam=-0.1)


@pytest.mark.parametrize("bad", [
    {"K_value": float("nan")}, {"C_value": float("inf")}, {"K_value": True},
    {"C_value": "2"}, {"declared_bounds": {"A2": float("nan")}},
    {"declared_bounds": {"alpha": 1.0}}, {"declared_bounds": {"K2": 1.0}},
    {"K_value": -1.0}, {"C_value": -0.5}, {"K_value": -1e-300},
    {"declared_bounds": {"A2": -1.0}}, {"declared_bounds": {"A1": -1e-300}},
    {"declared_bounds": "M_cal"}, {"declared_bounds": [1, 2]}])
def test_kernel_settings_rejected(bad):
    with pytest.raises(ValueError):
        KernelSpec(**bad)


def test_M_cal_is_an_unknown_bound():
    # CH2's bound is C_value, read off the registry, so no bound of C is declared
    with pytest.raises(ValueError, match="unknown declared_bounds keys M_cal; known: A1, A2"):
        KernelSpec(declared_bounds={"M_cal": 1.0})


@pytest.mark.parametrize("bounds", ["M_cal", [1, 2]], ids=["string", "list"])
def test_declared_bounds_must_be_a_mapping(bounds):
    with pytest.raises(ValueError, match=re.escape(f"declared_bounds must be a mapping, "
                                                   f"got {bounds!r}")):
        KernelSpec(declared_bounds=bounds)


def test_null_declared_bounds_are_none():
    assert KernelSpec(declared_bounds=None) == KernelSpec()


def test_negative_zero_values_are_zero():
    assert finite_float is dcasim.grid.finite_float   # one reader, bound here by kernels' import
    # -0.0 == 0.0, so a header must not tell them apart; every other float is kept
    assert math.copysign(1.0, finite_float("x", -0.0)) == 1.0
    assert finite_float("x", -1e-300) == -1e-300
    spec = KernelSpec(K_value=-0.0, C_value=-0.0, declared_bounds={"A1": -0.0})
    for value in (spec.K_value, spec.C_value, spec.declared_bounds["A1"]):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_point_rule_constant_matrix():
    g = build_grid(0.1, 2.0)
    dk = discretize(KernelSpec(family_K="constant", K_value=1.0, C_value=1.0), g)
    np.testing.assert_allclose(dk.Kd, 0.1)
    np.testing.assert_allclose(dk.Cd, 0.1)
    # scalar row factors, as the O(m) constant formula uses them
    assert factors(dk) == (((0.1 * 1.0, "1"),),) * 2
    assert dk.columns == {"1": None}


def test_point_rule_product_entry():
    # eps-scaling convention: Kd[i,j] = eps * K(eps*i, eps*j)
    g = build_grid(0.1, 2.0)
    spec = KernelSpec(family_K="product", family_C="product")
    dk = discretize(spec, g)
    assert dk.Kd[1, 2] == pytest.approx(0.1 * (0.2 * 0.3))
    (a, key), = factors(dk)[0]
    assert a[1] * dk.columns[key][2] == pytest.approx(0.1 * (0.2 * 0.3))


def test_factors_reproduce_dense_matrices():
    g = build_grid(0.1, 2.0)
    ones = np.ones(g.m)
    for spec in FAMILY_PAIRS:
        dk = discretize(spec, g)
        for fs, dense in zip(factors(dk), (dk.Kd, dk.Cd)):
            rebuilt = sum(np.outer(np.broadcast_to(a, g.m),
                                   ones if dk.columns[key] is None else dk.columns[key])
                          for a, key in fs)
            np.testing.assert_allclose(rebuilt, dense, rtol=1e-13, atol=0.0)


def test_cached_kernel_data_match_their_definitions():
    # the index 1..m as floats, as the RHS reads it
    for g in (build_grid(0.1, 2.0), small_grid(0.3, 2)):
        for spec in FAMILY_PAIRS:
            dk = discretize(spec, g)
            np.testing.assert_array_equal(dk.index, np.arange(1, g.m + 1))
            assert dk.index.dtype == float


def test_discretized_matrices_symmetric():
    g = build_grid(0.1, 2.0)
    for fam in ("constant", "product", "sum"):
        dk = discretize(KernelSpec(family_K=fam, family_C=fam), g)
        np.testing.assert_array_equal(dk.Kd, dk.Kd.T)
        np.testing.assert_array_equal(dk.Cd, dk.Cd.T)


def test_dense_matrices_equal_closed_form():
    # the on-demand matrices are the point rule eps * K(x_i, x_j); the oracle
    # evaluates it entry by entry in another order, so they agree to roundoff
    g = build_grid(0.07, 3.0)
    for spec in FAMILY_PAIRS:
        dk = discretize(spec, g)
        np.testing.assert_allclose(dk.Kd, _point_rule(spec, "K", g), rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(dk.Cd, _point_rule(spec, "C", g), rtol=1e-15, atol=0.0)


def test_dense_matrices_not_stored():
    dk = discretize(KernelSpec(family_K="sum", family_C="product"), build_grid(0.1, 2.0))
    assert dk.Kd is not dk.Kd
    with pytest.raises(AttributeError):
        dk.Kd = np.zeros((dk.grid.m, dk.grid.m))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", FAMILIES)
def test_discretize_memory_linear_in_m(family):
    # no m x m array: at m = 4000 one such array alone is 128 MB
    g = small_grid(0.0025, 4000)
    spec = KernelSpec(family_K=family, family_C=family)
    assert _traced_peak(lambda: discretize(spec, g)) < 1_000_000


@pytest.mark.parametrize("family", FAMILIES)
def test_dense_access_allocates_one_matrix(family):
    g = build_grid(0.01, 10.0)
    m = g.m
    for spec in (KernelSpec(family_K=family, K_value=2.5, family_C=family, C_value=1.25),
                 KernelSpec(family_K="constant", family_C=family)):
        dk = discretize(spec, g)
        assert _traced_peak(lambda: dk.Kd) < 1.1 * 8 * m * m
        assert _traced_peak(lambda: dk.Cd) < 1.1 * 8 * m * m


def test_probe_constant_kernels_pass():
    rep = probe_hypotheses(KernelSpec(family_K="constant", K_value=1.0, C_value=1.0))
    assert rep.ch1_pass and rep.ch2_pass


def test_probe_product_kernel_fails_growth():
    # sup_{x<=R} xy / y = R, constant in y: sublinear growth fails
    spec = KernelSpec(family_K="product", family_C="constant", C_value=1.0)
    rep = probe_hypotheses(spec)
    assert not rep.ch1_pass
    assert rep.ch2_pass


def test_probe_lambda_zero_C_vacuous():
    rep = probe_hypotheses(KernelSpec(family_K="constant", K_value=1.0, C_value=0.0))
    assert rep.ch2_pass


@pytest.mark.parametrize("value", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("family", FAMILIES)
def test_probe_ch1_truth_table(family, value):
    # K/y -> 0 only for a constant K: product has K/y = L*x, sum K/y -> L
    rep = probe_hypotheses(KernelSpec(family_K=family, K_value=value))
    assert rep.ch1_pass == (family == "constant" or value == 0.0)


@pytest.mark.parametrize("bounds", [{}, {"A1": 1.0}, {"A2": 5000.0}])
@pytest.mark.parametrize("value", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("family", FAMILIES)
def test_probe_ch2_truth_table(family, value, bounds):
    # C is bounded (by C_value) only if constant or zero; the probe reads only the
    # families and values, so no declared bound changes its verdict
    rep = probe_hypotheses(KernelSpec(family_C=family, C_value=value, declared_bounds=bounds))
    assert rep.ch2_pass == (family == "constant" or value == 0.0)


def test_hypothesis_report_holds_only_the_two_conditions():
    assert [f.name for f in dataclasses.fields(HypothesisReport)] == ["ch1_pass", "ch2_pass"]
