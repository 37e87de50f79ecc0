import numpy as np
import pytest
from scipy.integrate import quad

from dcasim.exact import (ExactCase, breakpoints, exact_solution,
                          has_closed_form, initial_profile)
from dcasim.kernels import KernelSpec


def test_case_validation():
    with pytest.raises(ValueError):
        ExactCase("case4")
    with pytest.raises(ValueError):
        ExactCase("case3", M=0.0)
    with pytest.raises(ValueError):
        ExactCase("case2", lam=1.5)


def test_case_fills_in_its_parameter_and_kernel_pair():
    # each case's own parameter gets its default, the other stays unset
    assert (ExactCase("case1").M, ExactCase("case1").lam) == (None, None)
    assert (ExactCase("case2").M, ExactCase("case2").lam) == (None, 1.0)
    assert (ExactCase("case3").M, ExactCase("case3").lam) == (3.0, None)
    assert ExactCase("case3", M=5).M == 5.0
    # K = 1 and a constant C = 1, lam or 0
    assert ExactCase("case1").kernel() == KernelSpec(C_value=1.0)
    assert ExactCase("case2", lam=0.25).kernel() == KernelSpec(C_value=0.25)
    assert ExactCase("case3").kernel() == KernelSpec(C_value=0.0)


@pytest.mark.parametrize("kwargs", [
    {"id": "case1", "lam": 0.3}, {"id": "case3", "lam": 0.3},
    {"id": "case1", "M": 5.0}, {"id": "case2", "M": 5.0}])
def test_case_rejects_parameter_it_does_not_read(kwargs):
    with pytest.raises(ValueError, match="applies to case"):
        ExactCase(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"id": "case3", "M": float("nan")}, {"id": "case3", "M": float("inf")},
    {"id": "case2", "lam": True}])
def test_case_rejects_non_finite_or_boolean_parameter(kwargs):
    with pytest.raises(ValueError, match="must be a finite number"):
        ExactCase(**kwargs)


def test_case2_default_is_case1_with_its_closed_form():
    # lam defaults to 1, where C = K and the problem is case 1's
    c2, c1 = ExactCase("case2"), ExactCase("case1")
    assert has_closed_form(c2)
    xs = np.linspace(0.0, 10.0, 101)
    for t in (0.0, 1.0, 2.5):
        np.testing.assert_array_equal(exact_solution(c2, t, xs), exact_solution(c1, t, xs))
        assert breakpoints(c2, t) == breakpoints(c1, t)


def test_initial_profiles():
    f1 = initial_profile(ExactCase("case1"))
    assert f1(1.0) == pytest.approx(np.exp(-1.0))
    assert f1(0.0) == 0.0
    f3 = initial_profile(ExactCase("case3"))
    assert f3(2.0) == pytest.approx(2.0 / 3.0)
    assert f3(3.5) == 0.0


def test_closed_form_availability():
    assert has_closed_form(ExactCase("case1"))
    assert has_closed_form(ExactCase("case3"))
    assert has_closed_form(ExactCase("case2", lam=1.0))
    assert not has_closed_form(ExactCase("case2", lam=0.5))
    assert exact_solution(ExactCase("case2", lam=0.5), 1.0, 2.0) is None


def test_case1_wave_values():
    case = ExactCase("case1")
    # one unit behind the front at t=1: u = 1, value e^{-1}/(1+t)
    assert exact_solution(case, 1.0, 3.0) == pytest.approx(np.exp(-1.0) / 2.0)
    # zero extension behind the travelling front
    assert exact_solution(case, 1.0, 0.5) == 0.0
    assert exact_solution(case, 0.0, 1.0) == pytest.approx(np.exp(-1.0))


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.5])
def test_case1_value_has_the_bits_of_the_formula(t):
    # the package builds the value in place; a scalar size still gives a float
    case = ExactCase("case1")
    x = np.concatenate((np.linspace(0.0, 20.0, 1001), [5e-324, 2.0 * t, 3.7]))
    u = x - 2.0 * t
    formula = np.where(u > 0.0, u * np.exp(-np.clip(u, 0.0, None)) / (1.0 + t), 0.0)
    assert exact_solution(case, t, x).tobytes() == formula.tobytes()
    value = exact_solution(case, t, 3.7)
    assert type(value) is float and value.hex() == float(formula[-1]).hex()


def test_case1_profile_is_translated_and_damped():
    # f(t, x) = f_in(x - vt) / (1 + t) with front speed v = 2
    case = ExactCase("case1")
    f_in = initial_profile(case)
    for t in (0.5, 1.0, 2.5):
        xs = np.linspace(2.0 * t + 1e-9, 12.0, 57)
        np.testing.assert_allclose(exact_solution(case, t, xs),
                                   f_in(xs - 2.0 * t) / (1.0 + t), rtol=1e-12)


def test_case1_solves_the_transport_equation():
    # d_t f + M1 * d_x f + M0 * f = 0 with M1 = 2/(1+t)... checked pointwise:
    # for constant kernels the equation is d_t f = -U d_x f - (int f) f with
    # U(t) = int y f dy; verify with central differences away from the front.
    case = ExactCase("case1")
    t, dt, dx = 1.0, 1e-5, 1e-5
    mass = quad(lambda y: y * exact_solution(case, t, y), 2.0 * t, 60.0,
                points=[2.0 * t])[0]
    number = quad(lambda y: exact_solution(case, t, y), 2.0 * t, 60.0)[0]
    assert mass == pytest.approx(2.0, rel=1e-8)
    for x in (3.0, 4.5, 7.0):
        ft = (exact_solution(case, t + dt, x) - exact_solution(case, t - dt, x)) / (2 * dt)
        fx = (exact_solution(case, t, x + dx) - exact_solution(case, t, x - dx)) / (2 * dx)
        f = exact_solution(case, t, x)
        assert ft == pytest.approx(-mass * fx - number * f, abs=1e-6)


def test_case3_values():
    case = ExactCase("case3")
    assert exact_solution(case, 1.0, 2.0) == pytest.approx(1.0 / 6.0)
    assert exact_solution(case, 1.0, 6.0) == pytest.approx(1.0 / 6.0)
    assert exact_solution(case, 1.0, 6.0 + 1e-9) == 0.0


def test_case3_number_count_decays():
    case = ExactCase("case3")
    for t in (0.0, 1.0, 2.5):
        n = quad(lambda y: exact_solution(case, t, y), 0.0, case.M * (1 + t))[0]
        assert n == pytest.approx(2.0 / (1.0 + t), rel=1e-10)


def test_case2_lambda_one_delegates_to_case1():
    c2 = ExactCase("case2", lam=1.0)
    c1 = ExactCase("case1")
    xs = np.linspace(0.0, 10.0, 101)
    np.testing.assert_array_equal(exact_solution(c2, 1.0, xs),
                                  exact_solution(c1, 1.0, xs))


def test_domain_guards():
    case = ExactCase("case1")
    with pytest.raises(ValueError):
        exact_solution(case, -0.1, 1.0)
    with pytest.raises(ValueError):
        exact_solution(case, 1.0, -1.0)


def test_breakpoints():
    assert breakpoints(ExactCase("case1"), 1.0) == (2.0,)
    assert breakpoints(ExactCase("case3"), 1.5) == (7.5,)
    assert breakpoints(ExactCase("case2", lam=0.5), 1.0) == ()
