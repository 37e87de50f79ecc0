"""Uniform cell partition of the truncated size domain.

Cell ``i`` (1-based) covers the half-open interval
``[(i - 1/2) * eps, (i + 1/2) * eps)`` so that its center sits at ``i * eps``.
The dust cell ``[0, eps/2)`` below the first cell carries no unknowns; sizes at
or beyond ``(m + 1/2) * eps`` fall outside the truncated domain, in the tail up
to ``x_max``.  ``Grid.cuts()`` lists all of these pieces' edges.

``finite_float`` and its two sign rules, ``nonnegative`` and ``positive``, live
here, at the bottom of the import graph, so that every module reads the numbers
it takes through the same rules; ``mapping`` reads the keyed settings, the
``kernel:`` block and ``declared_bounds``, the same way.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from numbers import Real

import numpy as np


def finite_float(name: str, value) -> float:
    """``value`` as a float, -0.0 as 0.0; ValueError naming ``name`` unless it is
    a finite real number (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value) + 0.0


def nonnegative(name: str, value) -> float:
    """``finite_float(name, value)``; ValueError naming ``name`` if it is below 0."""
    if (number := finite_float(name, value)) < 0.0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")
    return number


def positive(name: str, value) -> float:
    """``finite_float(name, value)``; ValueError naming ``name`` unless it is above 0."""
    if (number := finite_float(name, value)) <= 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return number


def mapping(name: str, value, known) -> dict:
    """``value`` as a dict, ``None`` as empty; ValueError naming ``name`` unless it
    is a mapping whose keys are all in ``known``."""
    value = {} if value is None else value
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be a mapping, got {value!r}")
    if unknown := set(value) - set(known):
        raise ValueError(f"unknown {name} keys {', '.join(sorted(map(str, unknown)))}; "
                         f"known: {', '.join(known)}")
    return dict(value)


@dataclass(frozen=True)
class Grid:
    """Immutable uniform grid with cell width ``epsilon`` on ``[0, x_max]``."""

    epsilon: float
    x_max: float
    m: int

    def centers(self) -> np.ndarray:
        """Cell centers ``eps * i`` for ``i = 1..m``."""
        return self.epsilon * np.arange(1, self.m + 1, dtype=float)

    def cuts(self) -> np.ndarray:
        """The m + 3 cuts ``0, eps/2, 3 eps/2, ..., (m + 1/2) eps, max((m + 1/2) eps, x_max)``.

        Their m + 2 pieces are the dust cell, the m cells and the tail, which is
        empty when ``x_max`` does not pass the last cell's right edge.
        """
        edges = self.epsilon * (np.arange(self.m + 1, dtype=float) + 0.5)
        return np.concatenate(([0.0], edges, [max(edges[-1], self.x_max)]))


# Largest cell count a grid may have: one state vector is then 80 MB.
_MAX_CELLS = 10**7


def build_grid(epsilon: float, x_max: float) -> Grid:
    """Build the cell partition with ``m = floor(x_max/epsilon - 1/2)`` cells.

    Raises ``ValueError`` if ``epsilon`` or ``x_max`` is not a finite real number
    (``finite_float``: bools and strings are not, -0.0 reads as 0.0), ``epsilon``
    is outside ``(0, 1)``, or ``m`` is below 3 or above ``_MAX_CELLS`` (10**7).
    The grid holds both as Python floats.
    """
    epsilon, x_max = finite_float("epsilon", epsilon), finite_float("x_max", x_max)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    # Nudge guards against ratios like 10/0.005 landing just below an integer.
    # The bounds are checked before the floor, which cannot take an infinite ratio.
    cells = x_max / epsilon - 0.5 + 1e-9
    if cells < 3:
        raise ValueError(f"x_max={x_max} holds fewer than 3 cells of width epsilon={epsilon}")
    if cells >= _MAX_CELLS + 1:
        raise ValueError(f"x_max={x_max} holds more than {_MAX_CELLS} cells of width "
                         f"epsilon={epsilon}")
    return Grid(epsilon=epsilon, x_max=x_max, m=int(math.floor(cells)))
