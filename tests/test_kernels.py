import tracemalloc

import numpy as np
import pytest

from dcasim.grid import build_grid
from dcasim.kernels import (FAMILIES, KernelSpec, discretize, eval_C, eval_K,
                            probe_hypotheses)
from dcasim.runs import RunConfig

from oracle import FAMILY_PAIRS, small_grid


def test_constant_kernel_values():
    spec = KernelSpec(family_K="constant", K_value=2.5)
    assert eval_K(spec, 0.3, 7.0) == 2.5
    np.testing.assert_allclose(eval_K(spec, np.array([0.0, 1.0]), 3.0), 2.5)


def test_product_and_sum_kernels():
    prod = KernelSpec(family_K="product")
    add = KernelSpec(family_K="sum")
    assert eval_K(prod, 0.2, 0.3) == pytest.approx(0.06)
    assert eval_K(add, 0.2, 0.3) == pytest.approx(0.5)
    # every family scales by its value
    assert eval_K(KernelSpec(family_K="product", K_value=2.5), 0.2, 0.3) == pytest.approx(0.15)
    assert eval_C(KernelSpec(family_C="sum", C_value=0.7), 0.2, 0.3) == pytest.approx(0.35)


def test_lambda_ties_C_to_K():
    # C = lam * K is C in K's family with value lam * L
    for fam in FAMILIES:
        spec = KernelSpec(family_K=fam, K_value=2.0, family_C=fam, C_value=0.5 * 2.0)
        for x, y in ((5.0, 1.0), (0.0, 100.0), (0.2, 0.3)):
            assert eval_C(spec, x, y) == pytest.approx(0.5 * eval_K(spec, x, y))


def test_independent_C_family():
    spec = KernelSpec(family_K="constant", K_value=1.0,
                      family_C="product", C_value=1.0)
    assert eval_C(spec, 0.2, 0.3) == pytest.approx(0.06)


def test_negative_arguments_rejected():
    spec = KernelSpec()
    with pytest.raises(ValueError):
        eval_K(spec, -1.0, 2.0)


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
    {"declared_bounds": {"alpha": 1.0}}, {"declared_bounds": {"K2": 1.0}}])
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


def test_discretized_matrices_symmetric():
    g = build_grid(0.1, 2.0)
    for fam in ("constant", "product", "sum"):
        dk = discretize(KernelSpec(family_K=fam, family_C=fam), g)
        np.testing.assert_array_equal(dk.Kd, dk.Kd.T)
        np.testing.assert_array_equal(dk.Cd, dk.Cd.T)


def test_dense_matrices_equal_closed_form():
    # the on-demand matrices are the point rule eps * K(x_i, x_j), bit for bit
    g = build_grid(0.07, 3.0)
    x = g.centers()
    for spec in FAMILY_PAIRS:
        dk = discretize(spec, g)
        np.testing.assert_array_equal(dk.Kd, g.epsilon * eval_K(spec, x[:, None], x[None, :]))
        np.testing.assert_array_equal(dk.Cd, g.epsilon * eval_C(spec, x[:, None], x[None, :]))


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
    assert rep.symmetric_K and rep.symmetric_C
    assert rep.nonneg_K and rep.nonneg_C


def test_probe_product_kernel_fails_growth():
    # sup_{x<=R} xy / y = R, constant in y: sublinear-growth probe must fail
    spec = KernelSpec(family_K="product", family_C="constant", C_value=1.0)
    rep = probe_hypotheses(spec)
    assert not rep.ch1_pass
    np.testing.assert_allclose(rep.ch1_profile, rep.ch1_profile[0])


def test_probe_lambda_zero_C_vacuous():
    rep = probe_hypotheses(KernelSpec(family_K="constant", K_value=1.0, C_value=0.0))
    assert rep.ch2_pass
    assert rep.ch2_sup == 0.0


def test_probe_respects_declared_bound():
    spec = KernelSpec(family_K="constant", K_value=1.0,
                      family_C="constant", C_value=2.0,
                      declared_bounds={"M_cal": 1.0})
    rep = probe_hypotheses(spec)
    assert not rep.ch2_pass
