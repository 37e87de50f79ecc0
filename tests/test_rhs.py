import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dcasim.kernels import FAMILIES, KernelSpec, discretize
from dcasim.rhs import mass_defect_rate, rhs_vector
from dcasim.runs import RunConfig

from oracle import (FAMILY_PAIRS, ORACLE_KERNELS, constant_mass_defect_rate,
                    constant_sums, dense_mass_defect_rate, dense_sums, exact_rhs, factors,
                    naive_rhs, naive_weak_form, reference_defect_rate,
                    reference_mass_defect_rate, reference_rhs_vector, plan_kinds,
                    rhs_from_pair_sums, rhs_from_sums, small_grid, tied_sums, weak_form_rate)


def _dk(spec, epsilon, m):
    return discretize(spec, small_grid(epsilon, m))


def _defect_scale(c, dk):
    """``(m+1) |c_m| (A_m + G_m)`` of the same sums on ``|c|`` (the kernels are
    nonnegative): the scale D's rounding is measured against."""
    return abs(reference_defect_rate(np.abs(c), dk))


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
    # the O(m) constant-kernel formula, values and rounding unchanged when C != K;
    # at C = K the row sums round differently, within criterion 1's 1e-13
    # (K = 2.5, C = 2.5 is the constant entry of TIED_PAIRS)
    rng = np.random.default_rng(29)
    eps = 0.1
    pairs = [(KernelSpec(family_K="constant", K_value=2.5, C_value=cv), eps * 2.5, eps * cv)
             for cv in (0.0, 0.5 * 2.5, 2.5, 0.7)]
    for spec, kval, cval in pairs:
        for m in (2, 5, 17, 64):
            dk = _dk(spec, eps, m)
            c = rng.random(m) - 0.1
            ref = rhs_from_sums(c, *constant_sums(c, kval, cval))
            q = rhs_vector(c, dk)
            # K = C is pinned bitwise by test_tied_path_bitwise_matches_allocating_reference
            if (spec.family_K, spec.K_value) == (spec.family_C, spec.C_value):
                assert np.max(np.abs(q - ref)) <= 1e-13 * np.max(np.abs(ref)), m
            else:
                np.testing.assert_array_equal(q, ref)
            # D is the outflow through the last face; the column-total formula rounds
            # it differently, measured at worst 3.2e-16 of the scale
            d_ref = constant_mass_defect_rate(c, kval, cval)
            assert abs(mass_defect_rate(c, dk) - d_ref) <= 1e-11 * _defect_scale(c, dk), m


TIED_PAIRS = tuple(KernelSpec(family_K=fam, K_value=2.5, family_C=fam, C_value=2.5)
                   for fam in FAMILIES)


@pytest.mark.parametrize("spec", TIED_PAIRS, ids=lambda spec: spec.family_K)
def test_tied_path_bitwise_matches_allocating_reference(spec):
    # K = C: one merged group of row terms, each sum scaled in place
    rng = np.random.default_rng(43)
    for m in (2, 3, 17, 2000):
        dk = _dk(spec, float(rng.uniform(0.005, 0.4)), m)
        assert plan_kinds(dk) == ((("row",) * len(factors(dk)[0]),),) * 2
        for c in (rng.random(m), rng.random(m) - 0.3, -rng.random(m)):
            np.testing.assert_array_equal(rhs_vector(c, dk),
                                          rhs_from_pair_sums(c, *tied_sums(c, dk)))


@pytest.mark.parametrize("family", FAMILIES)
def test_tied_path_rounds_no_worse_than_prefix_sums(family):
    # relative L1 distance to the exact rational RHS on x e^-x: the column-total
    # path within twice that of the prefix/suffix-sum path on the same pair
    for m in (300, 500):
        dk = _dk(KernelSpec(family_K=family, family_C=family), 10.0 / m, m)
        xs = dk.grid.centers()
        c = xs * np.exp(-xs)
        exact = exact_rhs(c, dk)
        scale = sum(abs(q) for q in exact)

        def rel_l1(q):
            return float(sum(abs(Fraction(float(a)) - b) for a, b in zip(q, exact)) / scale)

        tied, prefix = rel_l1(rhs_vector(c, dk)), rel_l1(reference_rhs_vector(c, dk))
        assert 0.0 < prefix and tied <= 2.0 * prefix, (m, tied, prefix)


def test_rhs_out_receives_the_result():
    rng = np.random.default_rng(47)
    for spec in (*TIED_PAIRS, *FAMILY_PAIRS):
        dk = _dk(spec, 0.1, 9)
        c, out = rng.random(9), np.full(9, np.nan)
        assert rhs_vector(c, dk, out=out) is out
        np.testing.assert_array_equal(out, rhs_vector(c, dk))


# every pair of FAMILY_PAIRS with C = 0, K = 0 and K = C = 0 as well; the tied
# pairs of a family coincide once C = 0, so some specs appear twice
ALL_VARIANTS = tuple(
    dataclasses.replace(spec, **changes)
    for changes in ({}, {"C_value": 0.0}, {"K_value": 0.0}, {"K_value": 0.0, "C_value": 0.0})
    for spec in FAMILY_PAIRS)

# each distinct (family, value) pair once
VARIANTS = tuple({(spec.family_K, spec.K_value, spec.family_C, spec.C_value): spec
                  for spec in ALL_VARIANTS}.values())


def _variant_id(spec):
    return f"{spec.family_K}-{spec.family_C}-C{spec.C_value:g}" + ("" if spec.K_value else "-K0")


def _variant_inputs(spec):
    """(dk, c) at m = 2, 3, 17 and 2000, positive, signed and negative states."""
    rng = np.random.default_rng(37)
    for m in (2, 3, 17, 2000):
        dk = _dk(spec, float(rng.uniform(0.005, 0.4)), m)
        for c in (rng.random(m), rng.random(m) - 0.3, -rng.random(m)):
            yield dk, c


@pytest.mark.parametrize("spec", ALL_VARIANTS, ids=_variant_id)
def test_buffer_reusing_path_bitwise_matches_allocating_reference(spec):
    # the same operations in the same order, only written into reused buffers
    for dk, c in _variant_inputs(spec):
        np.testing.assert_array_equal(rhs_vector(c, dk), reference_rhs_vector(c, dk))
        assert mass_defect_rate(c, dk) == reference_defect_rate(c, dk), (spec, c.size)


@pytest.mark.parametrize("spec", VARIANTS, ids=_variant_id)
def test_fused_defect_equals_mass_defect_rate(spec):
    # D read off the RHS pass has the bytes of the allocating reference's
    # outflow through the last face, and leaves the RHS unchanged;
    # mass_defect_rate returns that D.  The column-total formula rounds D
    # differently: measured at worst 7.8e-16 of the scale on these inputs
    for dk, c in _variant_inputs(spec):
        defect, out = np.full(1, np.nan), np.empty_like(c)
        rhs_vector(c, dk, out=out, defect=defect)
        np.testing.assert_array_equal(out, rhs_vector(c, dk))
        expected = np.float64(reference_defect_rate(c, dk)).tobytes()
        assert defect.tobytes() == expected, (spec, c.size)
        assert np.float64(mass_defect_rate(c, dk)).tobytes() == expected, (spec, c.size)
        d_ref = reference_mass_defect_rate(c, dk)
        assert abs(defect[0] - d_ref) <= 1e-11 * _defect_scale(c, dk), (spec, c.size)


def _outflow_inputs(spec):
    """The variant inputs up to m = 17, and three states at m = 200: the dense
    sums cost 0.2 s a call at the variants' m = 2000."""
    yield from ((dk, c) for dk, c in _variant_inputs(spec) if c.size <= 17)
    rng = np.random.default_rng(43)
    dk = _dk(spec, float(rng.uniform(0.005, 0.04)), 200)
    for c in (rng.random(200), rng.random(200) - 0.3, -rng.random(200)):
        yield dk, c


@pytest.mark.parametrize("spec", VARIANTS, ids=_variant_id)
def test_fused_defect_is_outflow_through_last_face(spec):
    # D = -(m+1) c_m (A_m + G_m): the flux row i = m would pass to a cell m + 1,
    # here against the dense row sums and relative to the same sums on |c|, |Kd|
    # and |Cd|; measured at worst 9.6e-15 on these inputs, 1.9e-13 on the
    # variant inputs at m = 2000
    for dk, c in _outflow_inputs(spec):
        defect = np.full(1, np.nan)
        rhs_vector(c, dk, defect=defect)
        m, Kd, Cd = c.size, dk.Kd, dk.Cd
        A, _, G, _ = dense_sums(c, Kd, Cd)
        A_abs, _, G_abs, _ = dense_sums(np.abs(c), np.abs(Kd), np.abs(Cd))
        outflow = -(m + 1) * c[-1] * (A[-1] + G[-1])
        scale = (m + 1) * abs(c[-1]) * (A_abs[-1] + G_abs[-1])
        assert abs(defect[0] - outflow) <= 1e-11 * scale, (spec, m)


@pytest.mark.parametrize("spec", [
    KernelSpec(family_K="product", family_C="product"), KernelSpec(family_K="sum", family_C="sum"),
    *(KernelSpec(family_K=fam, family_C=fam, C_value=0.7) for fam in FAMILIES),
    KernelSpec(family_K="product", family_C="sum"), RunConfig(case="case3").kernel_pair()],
    ids=["product", "sum", "constant-C0.7", "product-C0.7", "sum-C0.7", "product-sum", "case3"])
def test_rhs_memory_linear_in_m(spec):
    # no m x m temporaries: at m = 2000 one such array alone is 32 MB
    m = 2000
    dk = _dk(spec, 0.005, m)
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
    dk_lam = _dk(RunConfig(case="case1").kernel_pair(), 0.1, 8)
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
