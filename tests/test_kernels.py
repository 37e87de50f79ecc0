import numpy as np
import pytest

from dcasim.grid import build_grid
from dcasim.kernels import (FAMILIES, KernelSpec, discretize, eval_C, eval_K,
                            probe_hypotheses)


def test_constant_kernel_values():
    spec = KernelSpec(family_K="constant", K_value=2.5)
    assert eval_K(spec, 0.3, 7.0) == 2.5
    np.testing.assert_allclose(eval_K(spec, np.array([0.0, 1.0]), 3.0), 2.5)


def test_product_and_sum_kernels():
    prod = KernelSpec(family_K="product")
    add = KernelSpec(family_K="sum")
    assert eval_K(prod, 0.2, 0.3) == pytest.approx(0.06)
    assert eval_K(add, 0.2, 0.3) == pytest.approx(0.5)


def test_lambda_ties_C_to_K():
    spec = KernelSpec(family_K="constant", K_value=1.0, lam=0.5)
    assert eval_C(spec, 5.0, 1.0) == pytest.approx(0.5)
    assert eval_C(spec, 0.0, 100.0) == pytest.approx(0.5)


def test_independent_C_family():
    spec = KernelSpec(family_K="constant", K_value=1.0, lam=None,
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
    with pytest.raises(ValueError):
        KernelSpec(lam=1.5)
    with pytest.raises(ValueError):
        KernelSpec(lam=-0.1)


def test_point_rule_constant_matrix():
    g = build_grid(0.1, 2.0)
    dk = discretize(KernelSpec(family_K="constant", K_value=1.0, lam=1.0), g)
    np.testing.assert_allclose(dk.Kd, 0.1)
    np.testing.assert_allclose(dk.Cd, 0.1)
    # scalar row factors, as the O(m) constant formula uses them
    assert dk.K_factors == ((0.1 * 1.0, "1"),)
    assert dk.C_factors == ((1.0 * (0.1 * 1.0), "1"),)
    assert dk.columns == {"1": None}


def test_point_rule_product_entry():
    # eps-scaling convention: Kd[i,j] = eps * K(eps*i, eps*j)
    g = build_grid(0.1, 2.0)
    spec = KernelSpec(family_K="product", family_C="product")
    dk = discretize(spec, g)
    assert dk.Kd[1, 2] == pytest.approx(0.1 * (0.2 * 0.3))
    (a, key), = dk.K_factors
    assert a[1] * dk.columns[key][2] == pytest.approx(0.1 * (0.2 * 0.3))


@pytest.mark.parametrize("rule", ["point", "cell_average"])
def test_factors_reproduce_dense_matrices(rule):
    g = build_grid(0.1, 2.0)
    specs = [KernelSpec(family_K=fam, K_value=2.0, lam=0.75) for fam in FAMILIES]
    specs += [KernelSpec(family_K=fam, lam=None, family_C=fam_C, C_value=0.5)
              for fam in FAMILIES for fam_C in FAMILIES]
    ones = np.ones(g.m)
    for spec in specs:
        dk = discretize(spec, g, rule=rule)
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


def test_cell_average_matches_point_for_constant():
    g = build_grid(0.1, 2.0)
    spec = KernelSpec(family_K="constant", K_value=1.0, lam=1.0)
    pt = discretize(spec, g, rule="point")
    avg = discretize(spec, g, rule="cell_average")
    np.testing.assert_allclose(avg.Kd, pt.Kd, rtol=1e-13)


def test_cell_average_close_to_point_for_smooth_kernel():
    g = build_grid(0.1, 2.0)
    spec = KernelSpec(family_K="sum", family_C="sum")
    pt = discretize(spec, g, rule="point")
    avg = discretize(spec, g, rule="cell_average")
    # the sum kernel is linear, so cell averaging reproduces the center value
    np.testing.assert_allclose(avg.Kd, pt.Kd, rtol=1e-12)


def test_unknown_rule_rejected():
    g = build_grid(0.1, 2.0)
    with pytest.raises(ValueError):
        discretize(KernelSpec(), g, rule="midpoint")


def test_probe_constant_kernels_pass():
    rep = probe_hypotheses(KernelSpec(family_K="constant", K_value=1.0, lam=1.0))
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
    rep = probe_hypotheses(KernelSpec(family_K="constant", K_value=1.0, lam=0.0))
    assert rep.ch2_pass
    assert rep.ch2_sup == 0.0


def test_probe_respects_declared_bound():
    spec = KernelSpec(family_K="constant", K_value=1.0, lam=None,
                      family_C="constant", C_value=2.0,
                      declared_bounds={"M_cal": 1.0})
    rep = probe_hypotheses(spec)
    assert not rep.ch2_pass
