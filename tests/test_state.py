import numpy as np
import pytest

from dcasim.exact import ExactCase, initial_profile
from dcasim.grid import build_grid
from dcasim.state import (AprioriBoundError, DiscreteState, MomentSeries,
                          check_apriori_bounds, moment, project_initial,
                          weighted_initial_norm)

from oracle import small_grid, step_value


def _exp_profile(x):
    x = np.asarray(x, dtype=float)
    return x * np.exp(-x)


def test_state_shape_guard():
    g = build_grid(0.1, 1.0)
    with pytest.raises(ValueError):
        DiscreteState(g, np.zeros(g.m + 1))


def test_project_first_cell_value():
    # closed-form antiderivative -(x+1)e^{-x} over [0.05, 0.15], divided by eps
    g = build_grid(0.1, 10.0)
    st, loss = project_initial(_exp_profile, g)
    exact = (1.05 * np.exp(-0.05) - 1.15 * np.exp(-0.15)) / 0.1
    assert st.c[0] == pytest.approx(exact, rel=1e-8)


def test_project_zero_data():
    g = build_grid(0.1, 10.0)
    st, loss = project_initial(lambda x: np.zeros_like(np.asarray(x, float)), g)
    assert np.all(st.c == 0.0)
    assert loss.dust == 0.0 and loss.tail == 0.0


def test_project_rejects_non_finite_profile():
    g = build_grid(0.1, 1.0)
    with pytest.raises(FloatingPointError):
        project_initial(lambda x: np.full(np.shape(x), np.nan), g)


def _uniform_profile(M):
    return lambda x: np.where((np.asarray(x, float) >= 0.0) & (np.asarray(x, float) <= M),
                              2.0 / M, 0.0)


@pytest.mark.parametrize("case, literal", [
    (ExactCase("case1"), _exp_profile), (ExactCase("case2", lam=0.5), _exp_profile),
    (ExactCase("case3"), _uniform_profile(3.0)), (ExactCase("case3", M=5.0), _uniform_profile(5.0))],
    ids=["case1", "case2-lam0.5", "case3-M3", "case3-M5"])
def test_initial_profile_projects_as_literal_formula(case, literal):
    # a case's start is its closed form at t = 0 (case 1's for case 2): the same
    # bits as x e^-x and (2/M) 1[0, M], at the support's end and on every grid
    f_in = initial_profile(case)
    xs = np.array([0.0, 0.025, 1.0, 3.0, 5.0, np.nextafter(5.0, 6.0), 9.975, 20.0])
    np.testing.assert_array_equal(f_in(xs), literal(xs))
    for eps, x_max in ((0.05, 10.0), (0.01, 20.0), (0.002, 10.0)):
        g = build_grid(eps, x_max)
        (st, loss), (ref, ref_loss) = project_initial(f_in, g), project_initial(literal, g)
        np.testing.assert_array_equal(st.c, ref.c)
        assert loss == ref_loss, (eps, x_max)
        assert weighted_initial_norm(f_in, x_max) == weighted_initial_norm(literal, x_max)


def test_project_uniform_interior_cell():
    # cell 5 of the eps=0.1 grid sits fully inside [0, 3]
    g = build_grid(0.1, 10.0)
    st, _ = project_initial(_uniform_profile(3.0), g)
    assert st.c[4] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_projection_loss_accounts_dust_and_tail():
    g = build_grid(0.1, 10.0)
    st, loss = project_initial(_exp_profile, g)
    # dust + cells + tail recompose the integral over [0, x_max]
    total = loss.dust + float(np.sum(st.c)) * g.epsilon + loss.tail
    direct = 1.0 - 11.0 * np.exp(-10.0)  # int_0^10 x e^{-x} dx
    assert total == pytest.approx(direct, rel=1e-9)


def test_projection_is_linear():
    g = build_grid(0.1, 5.0)
    f1 = _exp_profile
    f2 = lambda x: np.exp(-np.asarray(x, float))
    both = lambda x: 2.0 * f1(x) + 3.0 * f2(x)
    c1, _ = project_initial(f1, g)
    c2, _ = project_initial(f2, g)
    c12, _ = project_initial(both, g)
    np.testing.assert_allclose(c12.c, 2.0 * c1.c + 3.0 * c2.c, rtol=1e-12)


def test_step_value_evaluates_cellwise():
    g = small_grid(0.1, 3)
    st = DiscreteState(g, np.array([1.0, 2.0, 3.0]))
    assert step_value(st, 0.1) == 1.0
    assert step_value(st, 0.26) == 3.0
    assert step_value(st, 0.02) == 0.0       # dust region
    assert step_value(st, 0.36) == 0.0       # beyond the last cell
    np.testing.assert_allclose(step_value(st, np.array([0.1, 0.2, 0.3])), [1.0, 2.0, 3.0])


def test_moment_direct_sum():
    g = small_grid(0.1, 3)
    st = DiscreteState(g, np.array([1.0, 1.0, 1.0]))
    assert moment(st, 1) == pytest.approx(0.01 * (1 + 2 + 3))
    assert moment(st, 0) == pytest.approx(0.1 * 3)
    assert _series(st).Y1 == [pytest.approx(6.0)]


def _series(*states):
    ms = MomentSeries()
    for st in states:
        ms.append(st)
    return ms


# small grids sum in one pass, m = 1000 in numpy's pairwise blocks
_SIGNED = np.random.default_rng(7).normal(size=1000)
_SIGNED[::7], _SIGNED[3::11] = 0.0, -0.0


@pytest.mark.parametrize("c", [[1.0, -2.5, 0.0, -0.0, 3.25e-7], [-0.0, -0.0, -0.0],
                               [-1e-300, 0.0, 7.0, -3.0], _SIGNED])
def test_moment_series_row_is_the_state_moments(c):
    # compared by repr, which the moments CSV writes, so a -0.0 must stay -0.0
    g = small_grid(0.1, len(c))
    st = DiscreteState(g, np.array(c), 0.5)
    ms = _series(st)
    i = np.arange(1, g.m + 1, dtype=float)
    row = [ms.M0[0], ms.M1[0], ms.M2[0], ms.Y1[0], ms.N_count[0]]
    expected = [*(moment(st, r) for r in range(3)), float(np.sum(i * st.c)),
                float(np.sum(st.c))]
    assert row == expected
    assert list(map(repr, row)) == list(map(repr, expected))


def test_moment_zero_order_matches_step_integral():
    g = build_grid(0.1, 5.0)
    st, _ = project_initial(_exp_profile, g)
    xs = np.linspace(0.0, 5.0, 100001)
    riemann = float(np.trapezoid(step_value(st, xs), xs))
    assert moment(st, 0) == pytest.approx(riemann, rel=1e-5)


def test_projected_mass_near_gamma_value():
    # int_0^inf x^2 e^{-x} dx = 2; truncation + projection stay within 2%
    g = build_grid(0.005, 10.0)
    st, _ = project_initial(_exp_profile, g)
    assert moment(st, 1) == pytest.approx(2.0, rel=0.02)


def test_moment_rejects_negative_order():
    g = small_grid(0.1, 3)
    st = DiscreteState(g, np.zeros(3))
    with pytest.raises(ValueError):
        moment(st, -1)


def test_weighted_initial_norm():
    # int_0^10 (1 + x) x e^{-x} dx, against the closed form
    val = weighted_initial_norm(_exp_profile, 10.0)
    closed = 3.0 - np.exp(-10.0) * (10.0**2 + 3 * 10.0 + 3)
    assert val == pytest.approx(closed, rel=1e-10)


def test_apriori_bounds_pass_and_fail():
    g = build_grid(0.1, 10.0)
    st, _ = project_initial(_exp_profile, g)
    norm = weighted_initial_norm(_exp_profile, 10.0)
    check_apriori_bounds(_series(st), norm)  # projection respects both bounds
    bad = DiscreteState(g, st.c * 100.0)
    with pytest.raises(RuntimeError):
        check_apriori_bounds(_series(bad), norm)


def test_apriori_bounds_read_the_latest_row():
    g = build_grid(0.1, 10.0)
    st, _ = project_initial(_exp_profile, g)
    norm = weighted_initial_norm(_exp_profile, 10.0)
    bad = DiscreteState(g, st.c * 100.0, t=1.0)
    with pytest.raises(AprioriBoundError, match="at t=1.0: M0="):
        check_apriori_bounds(_series(st, bad), norm)
    # a bound broken only at an earlier row is that row's check
    check_apriori_bounds(_series(bad, DiscreteState(g, st.c, t=2.0)), norm)


def test_zero_state_bounds_trivial():
    g = build_grid(0.1, 10.0)
    check_apriori_bounds(_series(DiscreteState(g, np.zeros(g.m))), 0.0)
