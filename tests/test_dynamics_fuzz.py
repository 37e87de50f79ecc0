"""Seeded fuzz of the dynamics: random kernel pairs, grids, starts, tolerances
and horizons, each run through ``run_simulation`` and so through its moment
verdict, ``moment_diagnostics`` at the run's ``rtol``.

Each draw picks K and C from any family, each of value 0 or 10**U(-1, 1); ε
from {0.05, 0.1, 0.2} and ``x_max`` from {5, 10, 20}; case 1's or case 3's
start; ``rtol`` from {1e-3, 1e-6, 1e-8}; and ``t_end`` from {0.5, 1, 3}, with
snapshots at a quarter, a half and all of it.  A draw passes when the run
raises nothing (no ``IntegrationError``, and no ``AprioriBoundError``: M0 never
rises by more than 10·rtol·M0(0), and the books ``M1(t) − M1(0) = ε²·∫D``
close to 100·rtol·M1(0), the verdict's own tolerances) and no snapshot holds a
negative entry.
"""

import random

import numpy as np
import pytest

from dcasim.kernels import FAMILIES, KernelSpec
from dcasim.runs import RunConfig, run_simulation

SEED = 20261022
DRAWS = 40


def _kernel_value(rng):
    return 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-1.0, 1.0)


def _draw(k):
    rng = random.Random(SEED * 1000 + k)
    spec = KernelSpec(family_K=rng.choice(FAMILIES), K_value=_kernel_value(rng),
                      family_C=rng.choice(FAMILIES), C_value=_kernel_value(rng))
    t_end = rng.choice((0.5, 1.0, 3.0))
    return RunConfig(case=rng.choice(("case1", "case3")), epsilon=rng.choice((0.05, 0.1, 0.2)),
                     x_max=rng.choice((5.0, 10.0, 20.0)), kernel=spec,
                     rtol=rng.choice((1e-3, 1e-6, 1e-8)),
                     snapshot_times=(0.25 * t_end, 0.5 * t_end, t_end))


@pytest.mark.parametrize("k", range(DRAWS))
def test_dynamics_draw_passes_the_moment_verdict(k):
    run = run_simulation(_draw(k))
    assert run.diagnostics.violations == []
    assert all(np.all(st.c >= 0.0) for st in run.snapshots)
