"""Kernel pairs (K, C): closed-form registry, discretization, growth probes.

The registry is closed: ``constant`` L, ``product`` L*x*y and ``sum``
L*(x + y), each scaled by its value L.  K and C are two independent kernels
of this form; ``C = lam * K`` is C in K's family with value ``lam * L``.
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

# Growth probes: x on [0, R], y on [R, Y_MAX] at SAMPLES geometric points.
_PROBE_R, _PROBE_Y_MAX, _PROBE_SAMPLES = 1.0, 1000.0, 32


def finite_float(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is a finite real number (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class KernelSpec:
    """Closed-form kernel pair: K is ``family_K`` scaled by ``K_value``, C is
    ``family_C`` scaled by ``C_value``.

    ``declared_bounds`` carries optional growth constants, by key:

    - ``M_cal``: uniform bound on C for large second argument (``probe_hypotheses``),
    - ``A1``, ``A2``: product-growth constants K <= A1*x*y, C <= A2*x*y,
    - ``K1``: product lower-bound constant K >= K1*x*y (both ``moment_diagnostics``).
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
        object.__setattr__(self, "K_value", finite_float("K_value", self.K_value))
        object.__setattr__(self, "C_value", finite_float("C_value", self.C_value))
        object.__setattr__(self, "declared_bounds", {
            key: finite_float(key, value) for key, value in self.declared_bounds.items()})


@dataclass(frozen=True)
class DiscreteKernel:
    """Discretized kernel pair on a grid, held in separable form (O(m) data).

    ``K_factors`` holds pairs ``(a_r, key_r)`` with
    ``Kd[i, j] = sum_r a_r[i] * columns[key_r][j]`` (``a_r`` a scalar or a
    vector; a ``None`` column is all ones), likewise ``C_factors`` for ``Cd``.
    The factors carry the grid factor eps, so the RHS applies no second one.
    The O(m) RHS and defect rate read only the factors.
    """

    grid: Grid
    spec: KernelSpec
    K_factors: tuple
    C_factors: tuple
    columns: dict

    @property
    def Kd(self) -> np.ndarray:
        """Dense ``Kd[i-1, j-1] = eps * K(eps*i, eps*j)``, built on every access.

        O(m^2) time and memory, and deliberately not cached: meant for the
        ``validate`` self-check at small m and for tests.
        """
        return self._dense(self.spec.family_K, self.spec.K_value)

    @property
    def Cd(self) -> np.ndarray:
        """Dense ``Cd[i-1, j-1] = eps * C(eps*i, eps*j)``; see ``Kd``."""
        return self._dense(self.spec.family_C, self.spec.C_value)

    def _dense(self, family: str, value: float) -> np.ndarray:
        # eps * K(x_i, x_j), scaled in place: one m x m allocation
        xs = self.grid.centers()
        out = _eval_family(family, value, xs[:, None], xs[None, :])
        out *= self.grid.epsilon
        return out


@dataclass
class HypothesisReport:
    """Outcome of the numeric growth-condition probes; a failing probe is recorded, not raised."""

    symmetric_K: bool
    symmetric_C: bool
    nonneg_K: bool
    nonneg_C: bool
    ch1_profile: np.ndarray
    ch2_sup: float
    ch1_pass: bool
    ch2_pass: bool


def _eval_family(family: str, value: float, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0.0) or np.any(y < 0.0):
        raise ValueError("kernel arguments must be nonnegative")
    if family == "constant":
        return np.broadcast_to(np.float64(value), np.broadcast_shapes(x.shape, y.shape)).copy()
    if family == "product":
        out = x * y
    elif family == "sum":
        out = x + y
    else:
        raise ValueError(f"unknown kernel family {family!r}")
    out *= value        # in place, so a matrix result stays one allocation
    return out


def eval_K(spec: KernelSpec, x, y):
    """Evaluate the aggregation kernel; accepts scalars or arrays."""
    out = _eval_family(spec.family_K, spec.K_value, x, y)
    return float(out) if out.ndim == 0 else out


def eval_C(spec: KernelSpec, x, y):
    """Evaluate the inverse-aggregation kernel; accepts scalars or arrays."""
    out = _eval_family(spec.family_C, spec.C_value, x, y)
    return float(out) if out.ndim == 0 else out


def discretize(spec: KernelSpec, grid: Grid) -> DiscreteKernel:
    """Separable factors of the point rule ``eps * K(eps*i, eps*j)``, K and C."""
    xs = grid.centers()
    K_factors = _FACTORS[spec.family_K](grid.epsilon * spec.K_value, xs)
    C_factors = _FACTORS[spec.family_C](grid.epsilon * spec.C_value, xs)
    columns = {key: None if key == "1" else xs for _, key in K_factors + C_factors}
    return DiscreteKernel(grid=grid, spec=spec, K_factors=K_factors,
                          C_factors=C_factors, columns=columns)


def probe_hypotheses(spec: KernelSpec) -> HypothesisReport:
    """Numerically probe the sublinear-growth and boundedness conditions.

    The first probe samples ``sup_{x in [0,R]} K(x,y) / y`` at increasing y and
    passes when the profile has dropped below a tenth of its first sample.  The
    second compares the sampled sup of C on ``[0,R] x [R, Y_MAX]`` against the
    declared bound ``M_cal`` (or the observed sup plus 10% when none is
    declared, in which case it passes by construction).
    """
    xs = np.linspace(0.0, _PROBE_R, 201)
    ys = np.geomspace(_PROBE_R, _PROBE_Y_MAX, _PROBE_SAMPLES)
    Kvals = eval_K(spec, xs[:, None], ys[None, :])
    profile = np.max(Kvals, axis=0) / ys
    ch1_pass = bool(profile[0] == 0.0 or profile[-1] < 0.1 * profile[0])

    Cvals = eval_C(spec, xs[:, None], ys[None, :])
    ch2_sup = float(np.max(Cvals))
    M_cal = spec.declared_bounds.get("M_cal", 1.1 * ch2_sup)
    ch2_pass = bool(ch2_sup <= M_cal * (1.0 + 1e-12))

    return HypothesisReport(
        symmetric_K=_probe_symmetry(lambda a, b: eval_K(spec, a, b), _PROBE_Y_MAX),
        symmetric_C=_probe_symmetry(lambda a, b: eval_C(spec, a, b), _PROBE_Y_MAX),
        nonneg_K=bool(np.all(Kvals >= 0.0)),
        nonneg_C=bool(np.all(Cvals >= 0.0)),
        ch1_profile=profile,
        ch2_sup=ch2_sup,
        ch1_pass=ch1_pass,
        ch2_pass=ch2_pass,
    )


def _probe_symmetry(evaluate, span: float) -> bool:
    rng = np.random.default_rng(1729)
    a = span * rng.random(64)
    b = span * rng.random(64)
    return bool(np.array_equal(evaluate(a, b), evaluate(b, a)))
