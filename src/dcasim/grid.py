"""Uniform cell partition of the truncated size domain.

Cell ``i`` (1-based) covers the half-open interval
``[(i - 1/2) * eps, (i + 1/2) * eps)`` so that its center sits at ``i * eps``.
The region ``[0, eps/2)`` below the first cell carries no unknowns; sizes at or
beyond ``(m + 1/2) * eps`` fall outside the truncated domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Immutable uniform grid with cell width ``epsilon`` on ``[0, x_max]``."""

    epsilon: float
    x_max: float
    m: int

    @property
    def lower(self) -> float:
        """Left edge of the first cell."""
        return 0.5 * self.epsilon

    @property
    def upper(self) -> float:
        """Right edge of the last cell."""
        return (self.m + 0.5) * self.epsilon

    def centers(self) -> np.ndarray:
        """Cell centers ``eps * i`` for ``i = 1..m``."""
        return self.epsilon * np.arange(1, self.m + 1, dtype=float)

    def left_edges(self) -> np.ndarray:
        return self.epsilon * (np.arange(1, self.m + 1, dtype=float) - 0.5)

    def right_edges(self) -> np.ndarray:
        return self.epsilon * (np.arange(1, self.m + 1, dtype=float) + 0.5)


# Largest cell count a grid may have: one state vector is then 80 MB.
_MAX_CELLS = 10**7


def build_grid(epsilon: float, x_max: float) -> Grid:
    """Build the cell partition with ``m = floor(x_max/epsilon - 1/2)`` cells.

    Raises ``ValueError`` if ``epsilon`` is outside ``(0, 1)``, ``x_max`` is not
    finite, or ``m`` is below 3 or above ``_MAX_CELLS`` (10**7).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not math.isfinite(x_max):
        raise ValueError(f"x_max must be a finite number, got {x_max!r}")
    # Nudge guards against ratios like 10/0.005 landing just below an integer.
    # The bounds are checked before the floor, which cannot take an infinite ratio.
    cells = x_max / epsilon - 0.5 + 1e-9
    if cells < 3:
        raise ValueError(f"x_max={x_max} holds fewer than 3 cells of width epsilon={epsilon}")
    if cells >= _MAX_CELLS + 1:
        raise ValueError(f"x_max={x_max} holds more than {_MAX_CELLS} cells of width "
                         f"epsilon={epsilon}")
    return Grid(epsilon=epsilon, x_max=x_max, m=int(math.floor(cells)))
