import math
import re

import numpy as np
import pytest

from dcasim.grid import build_grid


def test_cell_count_standard_ladder():
    assert build_grid(0.05, 10.0).m == 199
    assert type(build_grid(0.05, 10).x_max) is float   # the grid holds Python floats
    assert build_grid(0.01, 10.0).m == 999
    assert build_grid(0.005, 10.0).m == 1999


def test_cell_count_formula_matches_floor():
    for eps in (0.05, 0.02, 0.013, 0.4):
        g = build_grid(eps, 10.0)
        assert g.m == math.floor(10.0 / eps - 0.5 + 1e-9)


def test_build_grid_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        build_grid(0.0, 10.0)
    with pytest.raises(ValueError):
        build_grid(1.0, 10.0)
    with pytest.raises(ValueError):
        build_grid(-0.1, 10.0)


def test_build_grid_rejects_short_domain():
    # eps=0.5, x_max=1.5 would give m=2 cells
    with pytest.raises(ValueError):
        build_grid(0.5, 1.5)


@pytest.mark.parametrize("epsilon, x_max", [(0.5, 1.0), (0.1, 0.05), (0.1, -1.0),
                                            (0.5, -1.7e308)])
def test_short_domain_message_names_x_max(epsilon, x_max):
    # one rule, m >= 3, whose message names x_max and eps, never a cell count;
    # at x_max = -1.7e308 the ratio x_max / eps is -inf
    with pytest.raises(ValueError, match="x_max") as info:
        build_grid(epsilon, x_max)
    message = str(info.value)
    assert f"epsilon={epsilon}" in message
    assert not re.search(r"-\d", message.replace(f"x_max={x_max}", ""))


@pytest.mark.parametrize("x_max", [math.inf, -math.inf, math.nan, True, "10"])
def test_non_finite_x_max_message_names_x_max(x_max):
    # read by finite_float before the cell count, whose floor cannot take inf
    # or nan; a bool or a string is not a number either
    with pytest.raises(ValueError, match="x_max") as info:
        build_grid(0.1, x_max)
    assert repr(x_max) in str(info.value)


@pytest.mark.parametrize("epsilon, x_max", [(0.5, 5000000.75), (0.5, 1.0e9), (1e-300, 5.0),
                                            (5e-324, 5.0)])
def test_too_many_cells_message_names_x_max(epsilon, x_max):
    # m <= 10**7 is checked before the floor, so no grid that large is built
    # and an infinite ratio x_max / epsilon is rejected like any other
    with pytest.raises(ValueError, match="more than 10000000 cells") as info:
        build_grid(epsilon, x_max)
    assert f"x_max={x_max}" in str(info.value)
    assert f"epsilon={epsilon}" in str(info.value)


def test_largest_grid_is_accepted():
    assert build_grid(0.5, 5000000.25).m == 10**7


def test_edges_and_centers():
    # a tail, none (x_max on the last edge), none (the last edge one ulp past
    # x_max), and a wide tail
    for epsilon, x_max in [(0.1, 1.0), (0.05, 10.025), (0.05, 9.975), (0.3, 10.0)]:
        g = build_grid(epsilon, x_max)
        np.testing.assert_allclose(g.centers(), epsilon * np.arange(1, g.m + 1))
        cuts = g.cuts()
        assert cuts.shape == (g.m + 3,)
        assert cuts[0] == 0.0
        assert cuts[1] == pytest.approx(0.5 * epsilon)
        np.testing.assert_allclose(np.diff(cuts[1:-1]), epsilon)
        assert cuts[-2] == pytest.approx((g.m + 0.5) * epsilon)
        assert cuts[-1] == max(cuts[-2], x_max)
        # the cell edges carry the bits of eps * (i -+ 1/2), i = 1..m
        i = np.arange(1, g.m + 1, dtype=float)
        np.testing.assert_array_equal(cuts[1:-2], epsilon * (i - 0.5))
        np.testing.assert_array_equal(cuts[2:-1], epsilon * (i + 0.5))


def test_grid_is_immutable():
    g = build_grid(0.1, 10.0)
    with pytest.raises(Exception):
        g.m = 5
