"""Kernel pairs (K, C): closed-form registry, discretization, growth conditions.

The registry is closed: ``constant`` L, ``product`` L*x*y and ``sum``
L*(x + y), each scaled by its value L >= 0.  K and C are two independent
kernels of this form; ``C = lam * K`` is C in K's family with value
``lam * L``.  So every kernel is symmetric and nonnegative by construction,
and the growth conditions CH1 and CH2 are facts of (family, value) that
``probe_hypotheses`` reads off exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .grid import Grid

# Separable form eps * K(x, y) = sum_r a_r(x) * b_r(y), b_r(y) being 1 (key "1")
# or y (key "x"); each family maps (s, x), s = eps * value, to its pairs (a_r(x), key_r).
_FACTORS = {
    "constant": lambda s, x: ((s, "1"),),
    "product": lambda s, x: ((s * x, "x"),),
    "sum": lambda s, x: ((s * x, "1"), (s, "x")),
}
FAMILIES = tuple(_FACTORS)

# Growth constants read by probe_hypotheses (M_cal) and moment_diagnostics (A1, A2, K1).
BOUND_KEYS = ("M_cal", "A1", "A2", "K1")


def finite_float(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is a finite real number (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class KernelSpec:
    """Closed-form kernel pair: K is ``family_K`` scaled by ``K_value``, C is
    ``family_C`` scaled by ``C_value``; both values must be nonnegative.

    ``declared_bounds`` carries optional nonnegative growth constants, by key:

    - ``M_cal``: uniform bound on C, condition CH2 (``probe_hypotheses``),
    - ``A1``, ``A2``: product-growth constants K <= A1*x*y, C <= A2*x*y,
    - ``K1``: product lower-bound constant K >= K1*x*y (both ``moment_diagnostics``).

    A run (``RunConfig``) accepts ``M_cal`` only, since no run calls
    ``moment_diagnostics``.
    """

    family_K: str = "constant"
    K_value: float = 1.0
    family_C: str = "constant"
    C_value: float = 1.0
    declared_bounds: dict = field(default_factory=dict)

    def __post_init__(self):
        for family in (self.family_K, self.family_C):
            if family not in FAMILIES:
                raise ValueError(f"unknown kernel family {family!r}")
        unknown = set(self.declared_bounds) - set(BOUND_KEYS)
        if unknown:
            raise ValueError(f"unknown declared bounds {', '.join(sorted(map(str, unknown)))}; "
                             f"known: {', '.join(BOUND_KEYS)}")
        bounds = self.declared_bounds   # bounds on nonnegative kernels, so nonnegative too
        for name, value in (("K_value", self.K_value), ("C_value", self.C_value), *bounds.items()):
            if finite_float(name, value) < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value!r}")
        for name in ("K_value", "C_value"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "declared_bounds", {k: float(v) for k, v in bounds.items()})


@dataclass(frozen=True)
class DiscreteKernel:
    """Discretized kernel pair on a grid, held in separable form (O(m) data).

    ``K_factors`` holds pairs ``(a_r, key_r)`` with
    ``Kd[i, j] = sum_r a_r[i] * columns[key_r][j]`` (``a_r`` a scalar or a
    vector; a ``None`` column is all ones), likewise ``C_factors`` for ``Cd``.
    The factors carry the grid factor eps, so the RHS applies no second one.
    The O(m) RHS and defect rate read only the factors and what is derived
    from them once here: ``index`` is ``1..m`` as floats, ``K_last`` the
    last-row factors ``(a_r[m], key_r)`` and ``Cd_mm`` the entry ``Cd[m, m]``,
    each rounded as the factor sums round them.
    """

    grid: Grid
    spec: KernelSpec
    K_factors: tuple
    C_factors: tuple
    columns: dict
    index: np.ndarray
    K_last: tuple
    Cd_mm: float

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

    def at_m(a):  # a row factor (scalar or vector) in row m
        return float(np.broadcast_to(a, xs.shape)[-1])

    # Cd[m, m] = sum_r a_r[m] * b_r[m], added in factor order as the factor sums add it
    b_m = {"1": 1.0, "x": float(xs[-1])}
    (a, key), *rest = C_factors
    Cd_mm = at_m(a) * b_m[key]
    for a, key in rest:
        Cd_mm += at_m(a) * b_m[key]
    return DiscreteKernel(grid=grid, spec=spec, K_factors=K_factors, C_factors=C_factors,
                          columns=columns, index=np.arange(1, grid.m + 1, dtype=float),
                          K_last=tuple((at_m(a), key) for a, key in K_factors), Cd_mm=Cd_mm)


def probe_hypotheses(spec: KernelSpec) -> HypothesisReport:
    """The sublinear-growth (CH1) and boundedness (CH2) conditions, exactly.

    CH1, ``sup_{x <= R} K(x, y) / y -> 0`` as y grows, holds for a constant K
    and fails for product (K/y = L*x) and sum (K/y -> L) unless L = 0.  CH2,
    C uniformly bounded (by ``M_cal`` when declared), holds only for a bounded
    C, constant or of value 0, whose sup is ``C_value``.
    """
    ch1_pass = spec.family_K == "constant" or spec.K_value == 0.0
    C_bounded = spec.family_C == "constant" or spec.C_value == 0.0
    ch2_pass = C_bounded and spec.C_value <= spec.declared_bounds.get("M_cal", spec.C_value)
    return HypothesisReport(ch1_pass=ch1_pass, ch2_pass=ch2_pass)
