import dataclasses
import tracemalloc

import numpy as np
import pytest

from dcasim.kernels import KernelSpec, discretize
from dcasim.rhs import mass_defect_rate, rhs_vector
from dcasim.runs import RunConfig, kernel_for_case

from oracle import (FAMILY_PAIRS, ORACLE_KERNELS, constant_mass_defect_rate,
                    constant_sums, dense_mass_defect_rate, dense_sums, naive_rhs,
                    naive_weak_form, reference_mass_defect_rate, reference_rhs_vector,
                    rhs_from_sums, small_grid, weak_form_rate)


def _dk(spec, epsilon, m):
    return discretize(spec, small_grid(epsilon, m))


CONST = KernelSpec(family_K="constant", K_value=1.0, C_value=1.0)


def test_hand_computed_two_cell_example():
    dk = _dk(CONST, 0.1, 2)
    q = rhs_vector(np.array([1.0, 1.0]), dk)
    np.testing.assert_allclose(q, [-0.7, -0.4], atol=1e-15)


def test_zero_state_gives_zero():
    dk = _dk(CONST, 0.1, 5)
    np.testing.assert_array_equal(rhs_vector(np.zeros(5), dk), 0.0)


def test_factor_path_matches_dense_reference():
    rng = np.random.default_rng(7)
    for spec in FAMILY_PAIRS:
        for m in (2, 5, 17, 64):
            eps = float(rng.uniform(0.05, 0.4))
            dk = discretize(spec, small_grid(eps, m))
            c = rng.random(m)
            ref = rhs_from_sums(c, *dense_sums(c, dk.Kd, dk.Cd))
            err = np.max(np.abs(rhs_vector(c, dk) - ref))
            assert err <= 1e-13 * np.max(np.abs(ref)), (spec, m)
            d_ref = dense_mass_defect_rate(c, dk.Kd, dk.Cd)
            assert abs(mass_defect_rate(c, dk) - d_ref) <= 1e-13 * abs(d_ref), (spec, m)


def test_constant_path_bitwise_matches_reference():
    # the O(m) constant-kernel formula, values and rounding unchanged
    rng = np.random.default_rng(29)
    eps = 0.1
    pairs = [(KernelSpec(family_K="constant", K_value=2.5, C_value=cv), eps * 2.5, eps * cv)
             for cv in (0.0, 0.5 * 2.5, 2.5, 0.7)]
    for spec, kval, cval in pairs:
        for m in (2, 5, 17, 64):
            dk = _dk(spec, eps, m)
            c = rng.random(m) - 0.1
            ref = rhs_from_sums(c, *constant_sums(c, kval, cval))
            np.testing.assert_array_equal(rhs_vector(c, dk), ref)
            assert mass_defect_rate(c, dk) == constant_mass_defect_rate(c, kval, cval)


@pytest.mark.parametrize("spec", [
    *FAMILY_PAIRS, *(dataclasses.replace(spec, C_value=0.0) for spec in FAMILY_PAIRS)],
    ids=lambda spec: f"{spec.family_K}-{spec.family_C}-C{spec.C_value:g}")
def test_buffer_reusing_path_bitwise_matches_allocating_reference(spec):
    # the same operations in the same order, only written into reused buffers
    rng = np.random.default_rng(37)
    for m in (2, 3, 17, 2000):
        dk = _dk(spec, float(rng.uniform(0.005, 0.4)), m)
        for c in (rng.random(m), rng.random(m) - 0.3, -rng.random(m)):
            np.testing.assert_array_equal(rhs_vector(c, dk), reference_rhs_vector(c, dk))
            assert mass_defect_rate(c, dk) == reference_mass_defect_rate(c, dk), (spec, m)


def test_mass_defect_rate_memory():
    # one m-vector (j * c) and no more, for the two-column sum kernel as well
    m = 2000
    c = np.random.default_rng(41).random(m)
    for family in ("constant", "product", "sum"):
        dk = _dk(KernelSpec(family_K=family, family_C=family), 0.005, m)
        tracemalloc.start()
        try:
            mass_defect_rate(c, dk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * m, family


@pytest.mark.parametrize("family", ["product", "sum"])
def test_rhs_memory_linear_in_m(family):
    # no m x m temporaries: at m = 2000 one such array alone is 32 MB
    m = 2000
    dk = _dk(KernelSpec(family_K=family, family_C=family), 0.005, m)
    c = np.random.default_rng(31).random(m)
    tracemalloc.start()
    try:
        rhs_vector(c, dk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _naive_oracle_states(rng):
    """(spec, eps, c): the oracle kernels at random eps, then every family pair,
    the mixed ones included, at eps = 0.3 with 3..16 cells, five states each."""
    for spec in ORACLE_KERNELS:
        for m in (2, 3, 9, 24):
            eps = float(rng.uniform(0.05, 0.4))
            yield spec, eps, rng.random(m)
    for spec in FAMILY_PAIRS:
        for m in range(3, 17):
            for _ in range(5):
                yield spec, 0.3, rng.random(m)


def test_matches_naive_oracle_all_kernels():
    for spec, eps, c in _naive_oracle_states(np.random.default_rng(11)):
        dk = _dk(spec, eps, c.size)
        q = rhs_vector(c, dk)
        ref = naive_rhs(list(c), spec, eps)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(q - ref)) <= 1e-13 * scale, (spec, eps, c.size)
        weighted = float(np.arange(1, c.size + 1) @ q)    # sum_i i * Q_i, the defect rate D
        err = abs(weighted - mass_defect_rate(c, dk))
        assert err <= 1e-12 * (1.0 + abs(weighted)), (spec, eps, c.size)


def test_lambda_zero_is_pure_forward_part():
    # with C = 0 only the K bracket survives
    spec0 = KernelSpec(family_K="constant", K_value=1.0, C_value=0.0)
    dk0 = _dk(spec0, 0.1, 8)
    assert np.all(dk0.Cd == 0.0)
    rng = np.random.default_rng(3)
    c = rng.random(8)
    ref = naive_rhs(list(c), spec0, 0.1)
    np.testing.assert_allclose(rhs_vector(c, dk0), ref, atol=1e-15)


def test_lambda_decomposition_is_affine():
    # Q(lam) = Q(0) + lam * (Q(1) - Q(0)) entrywise
    rng = np.random.default_rng(5)
    c = rng.random(12)
    qs = {}
    for lam in (0.0, 0.35, 1.0):
        dk = _dk(KernelSpec(family_K="constant", K_value=1.0, C_value=lam), 0.1, 12)
        qs[lam] = rhs_vector(c, dk)
    expect = qs[0.0] + 0.35 * (qs[1.0] - qs[0.0])
    np.testing.assert_allclose(qs[0.35], expect, rtol=1e-12, atol=1e-15)


def test_lambda_one_equals_independent_C_equals_K():
    # case 1's own pair (C = 1 * K) is the pair C = K written out
    spec_ind = KernelSpec(family_K="constant", K_value=1.0,
                          family_C="constant", C_value=1.0)
    dk_lam = _dk(kernel_for_case(RunConfig(case="case1")), 0.1, 8)
    dk_ind = _dk(spec_ind, 0.1, 8)
    c = np.linspace(0.1, 1.0, 8)
    np.testing.assert_array_equal(rhs_vector(c, dk_lam), rhs_vector(c, dk_ind))


@pytest.mark.parametrize("family", ["product", "sum"])
def test_kernel_value_scales_product_and_sum(family):
    # K_value = 2 doubles every factor, so Q doubles exactly
    c = np.random.default_rng(23).random(16)
    q1, q2 = (rhs_vector(c, _dk(KernelSpec(family_K=family, K_value=L, C_value=0.0), 0.1, 16))
              for L in (1.0, 2.0))
    assert np.any(q1 != 0.0)
    np.testing.assert_array_equal(q2, 2.0 * q1)


def test_mass_defect_hand_example():
    dk = _dk(CONST, 0.1, 2)
    c = np.array([1.0, 1.0])
    assert mass_defect_rate(c, dk) == pytest.approx(-1.5)
    q = rhs_vector(c, dk)
    assert 1.0 * q[0] + 2.0 * q[1] == pytest.approx(-1.5)


def test_mass_defect_zero_cases():
    dk = _dk(CONST, 0.1, 4)
    assert mass_defect_rate(np.zeros(4), dk) == 0.0
    # empty boundary cell: interior mass conserved exactly
    c = np.array([0.3, 0.7, 0.2, 0.0])
    assert mass_defect_rate(c, dk) == 0.0
    q = rhs_vector(c, dk)
    i1 = np.arange(1, 5, dtype=float)
    assert float(i1 @ q) == pytest.approx(0.0, abs=1e-15)


def test_mass_defect_size_guard():
    dk = _dk(CONST, 0.1, 4)
    with pytest.raises(ValueError):
        mass_defect_rate(np.zeros(5), dk)


def test_weak_form_identity_phi_linear():
    rng = np.random.default_rng(13)
    for spec in ORACLE_KERNELS:
        m = 9
        dk = _dk(spec, 0.2, m)
        c = rng.random(m)
        phi = np.arange(1, m + 2, dtype=float)
        assert weak_form_rate(c, dk, phi) == pytest.approx(0.0, abs=1e-14)


def test_weak_form_phi_one_nonpositive():
    rng = np.random.default_rng(17)
    dk = _dk(CONST, 0.1, 10)
    for _ in range(20):
        c = rng.random(10)
        assert weak_form_rate(c, dk, np.ones(11)) <= 0.0


def test_weak_form_matches_direct_double_loop():
    rng = np.random.default_rng(19)
    for spec in ORACLE_KERNELS:
        m = int(rng.integers(2, 9))
        eps = 0.15
        dk = _dk(spec, eps, m)
        c = rng.random(m)
        phi = rng.normal(size=m + 1)
        ref = naive_weak_form(list(c), spec, eps, list(phi))
        assert weak_form_rate(c, dk, phi) == pytest.approx(ref, abs=1e-12)


def test_weak_form_phi_length_guard():
    dk = _dk(CONST, 0.1, 4)
    with pytest.raises(ValueError):
        weak_form_rate(np.zeros(4), dk, np.ones(4))
