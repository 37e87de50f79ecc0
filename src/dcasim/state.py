"""Concentration vectors, initial-data projection, moments."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid

#: Composite-Simpson panels per cell when projecting initial data, and over
#: [0, x_max] for the weighted initial norm.
_PROJECTION_PANELS = 16
_NORM_PANELS = 4096


class AprioriBoundError(RuntimeError):
    """A trajectory left the a-priori density bounds."""


@dataclass
class DiscreteState:
    """Per-cell concentrations ``c_i`` at time ``t`` (``c_0 = 0`` implicitly).

    As a density it is the step function of the convergence proof: ``c_i`` on
    cell i, zero on the dust cell [0, eps/2) and beyond the last cell.
    """

    grid: Grid
    c: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (self.grid.m,):
            raise ValueError(f"expected {self.grid.m} concentrations, got shape {self.c.shape}")


@dataclass
class MomentSeries:
    """Time series of continuous-scale moments and discrete norms."""

    times: list = field(default_factory=list)
    M0: list = field(default_factory=list)
    M1: list = field(default_factory=list)
    M2: list = field(default_factory=list)
    Y1: list = field(default_factory=list)
    N_count: list = field(default_factory=list)
    defect_integral: list = field(default_factory=list)

    def append(self, state: DiscreteState, defect_integral: float = 0.0):
        self.times.append(state.t)
        self.M0.append(moment(state, 0))
        self.M1.append(moment(state, 1))
        self.M2.append(moment(state, 2))
        self.Y1.append(moment(state, 1, scaled=False))
        self.N_count.append(float(np.sum(state.c)))
        self.defect_integral.append(defect_integral)


@dataclass(frozen=True)
class ProjectionLoss:
    """Initial mass not representable on the grid (number-density integrals)."""

    dust: float   # integral of f_in over [0, eps/2)
    tail: float   # integral of f_in beyond the last cell, up to x_max


def _simpson_nodes_weights(panels: int):
    # every caller passes an even constant: ``_PROJECTION_PANELS``, ``_NORM_PANELS``
    # or ``analysis._PANELS``
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def _integrate_cells(f, a: np.ndarray, b: np.ndarray, panels: int) -> np.ndarray:
    """Composite Simpson of ``f`` over each interval [a_k, b_k], vectorized."""
    w = _simpson_nodes_weights(panels)
    frac = np.linspace(0.0, 1.0, panels + 1)
    h = (b - a) / panels
    nodes = a[:, None] + (b - a)[:, None] * frac[None, :]
    vals = f(nodes)
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("non-finite integrand values in composite Simpson")
    return h * (vals @ w)


def project_initial(f_in, grid: Grid):
    """Project a continuous profile onto the grid: ``c_i = (1/eps) int_cell f``.

    Returns ``(DiscreteState, ProjectionLoss)``; the loss records the dust and
    tail mass dropped by the projection so conservation accounting stays
    closed.
    """
    left = grid.left_edges()
    right = grid.right_edges()
    panels = _PROJECTION_PANELS
    c = _integrate_cells(f_in, left, right, panels) / grid.epsilon
    dust = float(_integrate_cells(f_in, np.array([0.0]), np.array([grid.lower]), panels)[0])
    tail = 0.0
    if grid.x_max > grid.upper:
        tail = float(_integrate_cells(f_in, np.array([grid.upper]),
                                      np.array([grid.x_max]), panels)[0])
    return DiscreteState(grid, c, t=0.0), ProjectionLoss(dust=dust, tail=tail)


def moment(state: DiscreteState, r: float, scaled: bool = True) -> float:
    """Moment of order ``r``.

    Scaled (default): ``eps^(r+1) * sum i^r c_i``, the continuous moment of the
    state's step function at cell centers.  Unscaled: the sequence-space
    norm ``sum i^r c_i``.
    """
    if r < 0:
        raise ValueError("moment order must be nonnegative")
    i = np.arange(1, state.grid.m + 1, dtype=float)
    s = float(np.sum(i**r * state.c))
    return state.grid.epsilon ** (r + 1) * s if scaled else s


def weighted_initial_norm(f_in, x_max: float) -> float:
    """``int (1 + x) f_in(x) dx`` over [0, x_max], by composite Simpson."""
    g = lambda x: (1.0 + x) * f_in(x)
    return float(_integrate_cells(g, np.array([0.0]), np.array([x_max]), _NORM_PANELS)[0])


def check_apriori_bounds(state: DiscreteState, initial_norm: float, slack: float = 1e-9):
    """Assert the trajectory bounds: M1 <= 2*norm and M0 <= norm.

    ``initial_norm`` is the weighted integral of the initial profile; raises
    ``AprioriBoundError`` on violation.
    """
    m0 = moment(state, 0)
    m1 = moment(state, 1)
    tol = slack * max(1.0, initial_norm)
    if m1 > 2.0 * initial_norm + tol or m0 > initial_norm + tol:
        raise AprioriBoundError(
            f"a-priori density bounds violated at t={state.t}: "
            f"M0={m0}, M1={m1}, weighted initial norm={initial_norm}"
        )
