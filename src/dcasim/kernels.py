"""Kernel pairs (K, C): closed-form registry, discretization, growth conditions.

The registry is closed: ``constant`` L, ``product`` L*x*y and ``sum``
L*(x + y), each scaled by its value L >= 0.  K and C are two independent
kernels of this form; ``C = lam * K`` is C in K's family with value
``lam * L``.  So every kernel is symmetric and nonnegative by construction,
and the growth conditions CH1 and CH2, and the product-growth constants A1
and A2, are facts of (family, value) that ``probe_hypotheses`` and
``growth_constants`` read off exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# finite_float stays bound here for importers
from .grid import Grid, finite_float, mapping, nonnegative

# Separable form eps * K(x, y) = sum_r a_r(x) * b_r(y), b_r(y) being 1 (key "1")
# or y (key "x"); each family maps (s, x), s = eps * value, to its pairs (a_r(x), key_r).
_FACTORS = {
    "constant": lambda s, x: ((s, "1"),),
    "product": lambda s, x: ((s * x, "x"),),
    "sum": lambda s, x: ((s * x, "1"), (s, "x")),
}
FAMILIES = tuple(_FACTORS)

# The keys of KernelSpec.declared_bounds, which nothing reads: growth_constants
# gives A1 and A2 off the registry, and CH2's bound is C_value itself.
BOUND_KEYS = ("A1", "A2")


@dataclass(frozen=True)
class KernelSpec:
    """Closed-form kernel pair: K is ``family_K`` scaled by ``K_value``, C is
    ``family_C`` scaled by ``C_value``; both values must be nonnegative.

    ``declared_bounds`` carries optional nonnegative growth constants ``A1``
    and ``A2``, a mapping by key read by ``grid.mapping`` (``None`` reads as
    none).  Nothing reads them: ``moment_diagnostics`` takes the constants
    from ``growth_constants``, and a run (``RunConfig``) accepts none.

    Each value and bound is read by ``grid.nonnegative``: ValueError naming it
    unless it is a finite real number (not a bool) and not below 0.
    """

    family_K: str = "constant"
    K_value: float = 1.0
    family_C: str = "constant"
    C_value: float = 1.0
    declared_bounds: dict | None = field(default_factory=dict)

    def __post_init__(self):
        for family in (self.family_K, self.family_C):
            if family not in FAMILIES:
                raise ValueError(f"unknown kernel family {family!r}")
        bounds = mapping("declared_bounds", self.declared_bounds, BOUND_KEYS)
        values = dict(K_value=self.K_value, C_value=self.C_value, **bounds)
        # bounds on nonnegative kernels, so nonnegative too
        values = {name: nonnegative(name, value) for name, value in values.items()}
        for name in ("K_value", "C_value"):
            object.__setattr__(self, name, values.pop(name))
        object.__setattr__(self, "declared_bounds", values)   # the bounds are what remains


@dataclass(frozen=True)
class DiscreteKernel:
    """Discretized kernel pair on a grid, held in separable form (O(m) data).

    Each kernel is a sum of factor pairs ``(a_r, key_r)`` with
    ``Kd[i, j] = sum_r a_r[i] * columns[key_r][j]`` (``a_r`` a scalar or a
    vector; a ``None`` column is all ones), carrying the grid factor eps, so
    the RHS applies no second one.  ``sums`` is the RHS's plan: for ``A + G``
    and for ``W + Z`` its groups of terms ``(a_r, key_r, kind)``, one per
    kernel of nonzero value (K's first) or one merged group of ``row`` terms
    when K and C are the same kernel (``dcasim.rhs`` defines the kinds), and
    ``index`` is ``1..m`` as floats.  Only ``discretize`` sets these fields.
    """

    grid: Grid
    spec: KernelSpec
    columns: dict
    index: np.ndarray
    sums: tuple

    @property
    def Kd(self) -> np.ndarray:
        """Dense ``Kd[i-1, j-1] = eps * K(eps*i, eps*j)``, built on every access.

        O(m^2) time and memory, and deliberately not cached: no run reads it;
        it is for tests and for the benchmark's ``dense_bytes`` count.
        """
        return self._dense(self.spec.family_K, self.spec.K_value)

    @property
    def Cd(self) -> np.ndarray:
        """Dense ``Cd[i-1, j-1] = eps * C(eps*i, eps*j)``; see ``Kd``."""
        return self._dense(self.spec.family_C, self.spec.C_value)

    def _dense(self, family: str, value: float) -> np.ndarray:
        # eps * K(x_i, x_j), scaled in place: one m x m allocation
        xs = self.grid.centers()
        if family == "constant":
            out = np.full((xs.size, xs.size), value)
        else:
            out = xs[:, None] * xs if family == "product" else xs[:, None] + xs
            out *= value
        out *= self.grid.epsilon
        return out


@dataclass
class HypothesisReport:
    """Whether the growth conditions hold; a failing one is recorded, not raised."""

    ch1_pass: bool
    ch2_pass: bool


def discretize(spec: KernelSpec, grid: Grid) -> DiscreteKernel:
    """Separable factors of the point rule ``eps * K(eps*i, eps*j)``, K and C."""
    xs = grid.centers()
    K_factors = _FACTORS[spec.family_K](grid.epsilon * spec.K_value, xs)
    C_factors = _FACTORS[spec.family_C](grid.epsilon * spec.C_value, xs)
    columns = {key: None if key == "1" else xs for _, key in K_factors + C_factors}
    return DiscreteKernel(grid=grid, spec=spec, sums=_plan(spec, K_factors, C_factors),
                          columns=columns, index=np.arange(1.0, grid.m + 1))


def _plan(spec: KernelSpec, K_factors, C_factors):
    """``DiscreteKernel.sums`` for the pair, the RHS plan that ``dcasim.rhs`` defines."""
    K, C = (fs if v else () for fs, v in ((K_factors, spec.K_value), (C_factors, spec.C_value)))
    if K and (spec.family_K, spec.K_value) == (spec.family_C, spec.C_value):
        return ((tuple((a, key, "row") for a, key in K),),) * 2
    return tuple(tuple(tuple((a, key, kind) for a, key in fs)
                       for fs, kind in ((K, K_kind), (C, C_kind)) if fs)
                 for K_kind, C_kind in (("prefix", "suffix"), ("suffix", "prefix")))


def probe_hypotheses(spec: KernelSpec) -> HypothesisReport:
    """The sublinear-growth (CH1) and boundedness (CH2) conditions, exactly.

    CH1, ``sup_{x <= R} K(x, y) / y -> 0`` as y grows, holds for a constant K
    and fails for product (K/y = L*x) and sum (K/y -> L) unless L = 0.  CH2,
    C uniformly bounded, holds likewise only for a constant C, whose bound is
    ``C_value``, or a C of value 0.  Only the families and values are read.
    """
    ch1_pass = spec.family_K == "constant" or spec.K_value == 0.0
    ch2_pass = spec.family_C == "constant" or spec.C_value == 0.0
    return HypothesisReport(ch1_pass=ch1_pass, ch2_pass=ch2_pass)


def growth_constants(spec: KernelSpec) -> tuple:
    """The product-growth constants ``(A1, A2)``, K <= A1*x*y and C <= A2*x*y, exactly.

    A product kernel of value L gives L and any kernel of value 0 gives 0; a
    constant or sum kernel of nonzero value gives ``None``, since it exceeds
    every A*x*y as x and y tend to 0.  Only the families and values are read.
    """
    return tuple(value if family == "product" or value == 0.0 else None
                 for family, value in ((spec.family_K, spec.K_value),
                                       (spec.family_C, spec.C_value)))
