"""Adaptive Dormand-Prince 5(4) integration of the aggregation system.

Steps are shortened to land exactly on requested snapshot times, so no dense
output is needed.  Alongside the concentrations the boundary mass-defect rate
is accumulated with the same fifth-order quadrature as the solution itself,
which closes the conservation accounting of the truncated system.  Each RHS
call writes its stage's defect rate D as well (``rhs_vector(..., defect=)``),
so the quadrature takes no pass of its own, and the first stage's D, like its
RHS, is the last stage's of the step before (FSAL) unless that step clamped.

The last row of the tableau is the fifth-order weights (``b7 = 0``), so the
sixth stage state is the candidate ``y + h * sum_s b_s k_s`` itself: the step
keeps it instead of forming that sum again.  Beside the stage derivatives
``k`` and the state ``y`` the loop keeps four state-sized vectors: ``stage``
holds stage states 1 to 5 in turn and then serves as the error norm's work
vector, ``cand`` holds the sixth (the candidate), and ``err`` and ``scale``
hold the error estimate and its scale.  An accepted step swaps ``y`` with
``cand`` and clamps its negative entries to +0.0 in place.  The loop's
rounding is that of the form with a separate seven-term weight vector and one
defect-rate call per stage, kept in ``tests/oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import finite_float, positive
from .kernels import DiscreteKernel
from .rhs import rhs_vector
from .state import DiscreteState

# Dormand-Prince 5(4) tableau (FSAL: the last stage is the next step's first);
# its last row is the fifth-order weights.
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_A_ROWS = [np.array(row) for row in _A]
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

# PI controller exponents for the 5(4) pair.
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_FAC_MIN, _FAC_MAX = 0.2, 5.0
_SAFETY = 0.9
# Accepted plus rejected steps one integration may take.
_MAX_STEPS = 1_000_000


class IntegrationError(RuntimeError):
    pass


@dataclass
class IntegratorConfig:
    """Step tolerances, each read by ``grid.positive`` and held as a float:
    ValueError naming it unless it is a finite real number (not a bool) above 0."""

    rtol: float = 1e-6
    atol: float = 1e-10

    def __post_init__(self):
        self.rtol, self.atol = positive("rtol", self.rtol), positive("atol", self.atol)


@dataclass
class StepStats:
    """What one integration did; a run's header reports every scalar field."""

    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    clamped_mass: float = 0.0
    #: running integral of the boundary defect rate, one value per snapshot
    defect_integrals: list = field(default_factory=list)


def _error_norm(err, y_old, y_new, rtol, atol, scale, work):
    """``max |err| / (atol + rtol * max(|y_old|, |y_new|))``; overwrites ``err``,
    ``scale`` and ``work``."""
    np.maximum(np.abs(y_old, out=scale), np.abs(y_new, out=work), out=scale)
    scale *= rtol
    scale += atol
    np.abs(err, out=err)
    err /= scale
    return float(err.max())


@np.errstate(over="ignore", invalid="ignore")   # a blown-up state fails on its error estimate
def integrate(state0: DiscreteState, dk: DiscreteKernel, cfg: IntegratorConfig,
              snapshot_times) -> tuple[list[DiscreteState], StepStats]:
    """Advance ``state0`` and return states at each snapshot time.

    ``snapshot_times`` are read by ``grid.finite_float`` (ValueError unless each
    is a finite real number, not a bool) and must be strictly increasing with
    the first entry at or after ``state0.t``, which ``DiscreteState`` has read
    the same way; ValueError too unless ``state0`` and ``dk`` are on one grid.
    Raises ``IntegrationError`` on step-size underflow, step-budget exhaustion
    or an error estimate that is not finite.  Negative entries of an accepted
    step are clamped to zero in place and their mass recorded in
    ``StepStats.clamped_mass``.
    """
    if state0.grid != dk.grid:
        raise ValueError("state and discrete kernel live on different grids")
    t = state0.t
    queue = [finite_float("snapshot time", s) for s in snapshot_times]
    if any(b <= a for a, b in zip(queue, queue[1:])):
        raise ValueError("snapshot times must be strictly increasing")
    if queue and queue[0] < t:
        raise ValueError("first snapshot time precedes the initial time")

    stats = StepStats()
    snapshots: list[DiscreteState] = []
    y = state0.c.copy()
    defect_int = 0.0
    floor = 1e-14 * max(1.0, abs(t))   # the underflow floor; a span below 1e-10 starts at it
    # emit snapshots that coincide with the start time
    while queue and abs(queue[0] - t) <= floor:
        snapshots.append(DiscreteState(state0.grid, y.copy(), queue.pop(0)))
        stats.defect_integrals.append(defect_int)
    if not queue:
        return snapshots, stats

    span = queue[-1] - t
    h_max, h = max(span / 10.0, floor), max(1e-4 * span, floor)

    k = np.empty((7, y.size))
    d = np.empty(7)   # the defect rate D of each stage
    # stage states 1..5, then _error_norm's work vector; stage 6, the candidate
    stage, cand, err, scale = (np.empty_like(y) for _ in range(4))
    rhs_vector(y, dk, out=k[0], defect=d[0:1])
    stats.rhs_evals += 1
    err_prev = 1.0

    while queue:
        if stats.accepted + stats.rejected >= _MAX_STEPS:
            raise IntegrationError(f"exceeded {_MAX_STEPS} steps at t={t}")
        target = queue[0]
        h = min(h, h_max, target - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t={t}")

        for s in range(1, 7):
            x = cand if s == 6 else stage
            if s == 1:   # a one-term row: a product, not a matmul
                np.multiply(k[0], _A_ROWS[1][0], out=x)
            else:
                np.matmul(_A_ROWS[s], k[:s], out=x)
            x *= h
            x += y
            rhs_vector(x, dk, out=k[s], defect=d[s:s + 1])
        stats.rhs_evals += 6
        np.matmul(_E, k, out=err)
        err *= h
        err_norm = _error_norm(err, y, cand, cfg.rtol, cfg.atol, scale, stage)
        if not math.isfinite(err_norm):
            raise IntegrationError(f"error estimate is not finite at t={t} "
                                   f"(rtol={cfg.rtol}, atol={cfg.atol})")

        if err_norm <= 1.0:
            stats.accepted += 1
            # defect quadrature shares the propagating weights (b7 = 0)
            defect_int += h * float(_A_ROWS[6] @ d[:6])

            t = t + h
            # the old state's buffer takes the next step's candidate
            y, cand = cand, y
            clamped = _clamp_negative(y, dk.index)
            stats.clamped_mass += clamped * state0.grid.epsilon ** 2
            if clamped == 0.0:
                k[0] = k[6]
                d[0] = d[6]
            else:
                rhs_vector(y, dk, out=k[0], defect=d[0:1])
                stats.rhs_evals += 1

            if abs(t - target) <= 1e-12 * max(1.0, abs(target)):
                t = target
                snapshots.append(DiscreteState(state0.grid, y.copy(), t))
                stats.defect_integrals.append(defect_int)
                queue.pop(0)

            # an error at or below 1e-300, zero too, gives fac >= 0.9 * 1e42 * 0.158: _FAC_MAX
            fac = _SAFETY * max(err_norm, 1e-300) ** (-_PI_ALPHA) * err_prev ** _PI_BETA
            h = h * min(_FAC_MAX, max(_FAC_MIN, fac))
            err_prev = max(err_norm, 1e-10)
        else:
            stats.rejected += 1
            fac = max(_FAC_MIN, _SAFETY * err_norm ** (-0.2))
            h = h * fac

    return snapshots, stats


def _clamp_negative(y, index):
    """Write +0.0 into ``y``'s negative entries in place; return ``sum i * -y_i`` over them."""
    if float(y.min()) >= 0.0:
        return 0.0
    neg = y < 0.0
    clamped = float(np.sum(index[neg] * (-y[neg])))
    y[neg] = 0.0
    return clamped
