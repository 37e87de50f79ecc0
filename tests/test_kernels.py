import dataclasses
import tracemalloc

import numpy as np
import pytest

from dcasim.grid import build_grid
from dcasim.kernels import (FAMILIES, HypothesisReport, KernelSpec, discretize,
                            probe_hypotheses)
from dcasim.runs import RunConfig

from oracle import FAMILY_PAIRS, kernel_value, naive_matrices, small_grid


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
    {"C_value": "2"}, {"declared_bounds": {"M_cal": float("nan")}},
    {"declared_bounds": {"alpha": 1.0}}, {"declared_bounds": {"K2": 1.0}},
    {"K_value": -1.0}, {"C_value": -0.5}, {"K_value": -1e-300},
    {"declared_bounds": {"M_cal": -1.0}}, {"declared_bounds": {"A1": -1e-300}}])
def test_kernel_settings_rejected(bad):
    with pytest.raises(ValueError):
        KernelSpec(**bad)


def test_point_rule_constant_matrix():
    g = build_grid(0.1, 2.0)
    dk = discretize(KernelSpec(family_K="constant", K_value=1.0, C_value=1.0), g)
    np.testing.assert_allclose(dk.Kd, 0.1)
    np.testing.assert_allclose(dk.Cd, 0.1)
    # scalar row factors, as the O(m) constant formula uses them
    assert dk.K_factors == ((0.1 * 1.0, "1"),)
    assert dk.C_factors == ((0.1 * 1.0, "1"),)
    assert dk.columns == {"1": None}


def test_point_rule_product_entry():
    # eps-scaling convention: Kd[i,j] = eps * K(eps*i, eps*j)
    g = build_grid(0.1, 2.0)
    spec = KernelSpec(family_K="product", family_C="product")
    dk = discretize(spec, g)
    assert dk.Kd[1, 2] == pytest.approx(0.1 * (0.2 * 0.3))
    (a, key), = dk.K_factors
    assert a[1] * dk.columns[key][2] == pytest.approx(0.1 * (0.2 * 0.3))


def test_factors_reproduce_dense_matrices():
    g = build_grid(0.1, 2.0)
    ones = np.ones(g.m)
    for spec in FAMILY_PAIRS:
        dk = discretize(spec, g)
        for factors, dense in ((dk.K_factors, dk.Kd), (dk.C_factors, dk.Cd)):
            rebuilt = sum(np.outer(np.broadcast_to(a, g.m),
                                   ones if dk.columns[key] is None else dk.columns[key])
                          for a, key in factors)
            np.testing.assert_allclose(rebuilt, dense, rtol=1e-13, atol=0.0)


def test_cached_kernel_data_match_their_definitions():
    # index, last-row K factors and Cd[m, m], as the defect rate reads them
    ulp4 = 4 * np.finfo(float).eps
    for g in (build_grid(0.1, 2.0), small_grid(0.3, 2)):
        xs = g.centers()
        for spec in FAMILY_PAIRS:
            dk = discretize(spec, g)
            np.testing.assert_array_equal(dk.index, np.arange(1, g.m + 1))
            assert dk.index.dtype == float
            assert dk.K_last == tuple((np.broadcast_to(a, g.m)[-1], key)
                                      for a, key in dk.K_factors)
            # last rows sum_r a_r[m] * b_r; the dense matrices round x*y*L*eps differently
            C_last = [(np.broadcast_to(a, g.m)[-1], key) for a, key in dk.C_factors]
            K_row, C_row = (np.broadcast_to(sum(
                a * (1.0 if dk.columns[key] is None else xs) for a, key in last), g.m)
                for last in (dk.K_last, C_last))
            np.testing.assert_allclose(K_row, dk.Kd[-1, :], rtol=ulp4, atol=0.0)
            assert dk.Cd_mm == C_row[-1]
            assert dk.Cd_mm == pytest.approx(dk.Cd[-1, -1], rel=ulp4, abs=0.0)


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


def test_probe_respects_declared_bound():
    spec = KernelSpec(family_K="constant", K_value=1.0,
                      family_C="constant", C_value=2.0,
                      declared_bounds={"M_cal": 1.0})
    rep = probe_hypotheses(spec)
    assert not rep.ch2_pass
    assert probe_hypotheses(dataclasses.replace(spec, declared_bounds={"M_cal": 2.0})).ch2_pass


@pytest.mark.parametrize("value", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("family", FAMILIES)
def test_probe_ch1_truth_table(family, value):
    # K/y -> 0 only for a constant K: product has K/y = L*x, sum K/y -> L
    rep = probe_hypotheses(KernelSpec(family_K=family, K_value=value))
    assert rep.ch1_pass == (family == "constant" or value == 0.0)


@pytest.mark.parametrize("bounds", [{}, {"M_cal": 1.0}, {"M_cal": 5000.0}])
@pytest.mark.parametrize("value", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("family", FAMILIES)
def test_probe_ch2_truth_table(family, value, bounds):
    rep = probe_hypotheses(KernelSpec(family_C=family, C_value=value, declared_bounds=bounds))
    if family == "constant":
        # sup C = C_value; only 2.0 against M_cal = 1 exceeds its bound
        assert rep.ch2_pass == ((value, bounds) != (2.0, {"M_cal": 1.0}))
    else:
        # an unbounded C fails whatever M_cal says, M_cal = 5000 included; zero passes
        assert rep.ch2_pass == (value == 0.0)


def test_hypothesis_report_holds_only_the_two_conditions():
    assert [f.name for f in dataclasses.fields(HypothesisReport)] == ["ch1_pass", "ch2_pass"]
