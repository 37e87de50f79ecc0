"""The named cases.  ``ExactCase`` owns each one's parameter and default, its
kernel pair and its closed form, whose value at t = 0 is its initial profile.

case1: constant kernels K = C = 1 with initial profile x*exp(-x).  The weak
       form with test function x forces the mass integral to stay at its
       initial value 2, so the transport velocity int y*f dy is the constant
       2 and the number count obeys N' = -N^2 from N(0) = 1.  Solving along
       characteristics gives (x-2t)*exp(-(x-2t))/(1+t) for x > 2t, extended
       by zero behind the wave.
case2: C = lam * K with K = 1, lam in [0, 1] (default 1), and the case1 initial
       profile; closed form only at lam = 1, where it is case1.
case3: pure forward aggregation (C = 0, K = 1) started from the uniform
       profile (2/M) on [0, M], M = 3 by default; reference 2/(M (1+t)^2) on
       x <= M (1+t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import finite_float, nonnegative
from .kernels import KernelSpec

CASE_IDS = ("case1", "case2", "case3")
# parameter -> (the case that reads it, its default there)
_PARAMETERS = {"lam": ("case2", 1.0), "M": ("case3", 3.0)}


@dataclass(frozen=True)
class ExactCase:
    """A named case; its one parameter, if any, is set (default filled in), the other is None."""

    id: str
    M: float | None = None
    lam: float | None = None

    def __post_init__(self):
        if self.id not in CASE_IDS:
            raise ValueError(f"unknown case {self.id!r}")
        for name, (owner, default) in _PARAMETERS.items():
            v = getattr(self, name)
            if self.id == owner:
                object.__setattr__(self, name, default if v is None else finite_float(name, v))
            elif v is not None:
                raise ValueError(f"{name} applies to case {owner!r} only, not {self.id!r}")
        if self.M is not None and not (self.M > 0 and math.isfinite(2.0 / self.M)):
            raise ValueError(f"support length M must be positive, with 2/M finite; got {self.M!r}")
        if self.lam is not None and not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")

    def kernel(self) -> KernelSpec:
        """The case's own pair: K = 1 and a constant C = 1, ``lam`` or 0."""
        return KernelSpec(C_value={"case1": 1.0, "case2": self.lam, "case3": 0.0}[self.id])


def initial_profile(case: ExactCase):
    """Initial number-density profile as a vectorized callable: the closed form
    at t = 0, case 1's for case 2 (whose start it is at every lam)."""
    ref = case if has_closed_form(case) else ExactCase("case1")
    return lambda x: exact_solution(ref, 0.0, x)


def has_closed_form(case: ExactCase) -> bool:
    """Case 1 and case 3 have one (no ``lam``); case 2 only at lam = 1, where it is case 1."""
    return case.lam in (None, 1.0)


def _require_closed_form(case: ExactCase) -> None:
    """ValueError unless ``case`` has a closed form (``has_closed_form``)."""
    if not has_closed_form(case):
        raise ValueError(f"{case.id} with lambda={case.lam} has no closed form")


def exact_solution(case: ExactCase, t: float, x):
    """Reference solution value(s) at time ``t``.

    The case1 wave has travelled a distance 2t (the conserved mass integral of
    x*exp(-x) is 2, and the transport velocity equals that mass); extension by
    zero is used behind the wave.

    ``t`` is read by ``grid.nonnegative``: ValueError unless it is a finite real
    number (not a bool) and not below 0.  ValueError too for a case without a
    closed form (case2 with lam < 1), and unless every size ``x`` is
    nonnegative (a NaN size is not); an infinite size has the value 0.
    """
    t = nonnegative("t", t)
    _require_closed_form(case)
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):
        raise ValueError("sizes x must be nonnegative")
    if case.id == "case3":
        scale = 2.0 / (case.M * (1.0 + t) ** 2)
        out = np.where(x / (1.0 + t) <= case.M, scale, 0.0)
    else:
        u = np.minimum(x - 2.0 * t, np.finfo(float).max)   # capped: at x = inf, u * exp(-u) is 0
        out = np.where(u > 0.0, u * np.exp(-np.clip(u, 0.0, None)) / (1.0 + t), 0.0)
    return float(out) if out.ndim == 0 else out


def breakpoints(case: ExactCase, t: float) -> tuple[float, ...]:
    """Locations where the reference solution is non-smooth at time ``t``.

    ``t`` is read by ``grid.nonnegative``, and a case without a closed form
    refused, as in ``exact_solution``.
    """
    t = nonnegative("t", t)
    _require_closed_form(case)
    return (case.M * (1.0 + t),) if case.id == "case3" else (2.0 * t,)
