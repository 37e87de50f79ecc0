"""Kernel pairs (K, C): closed-form registry, discretization, growth probes.

The registry is closed: ``constant`` (value L), ``product`` K(x,y) = x*y and
``sum`` K(x,y) = x + y.  The inverse-aggregation kernel C is either given by
its own family or tied to K through ``C = lam * K``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid

# Separable form s * K(x, y) = sum_r a_r(x) * b_r(y), b_r(y) being 1 (key "1")
# or y (key "x"); each family maps (s, value, x) to its pairs (a_r(x), key_r).
_FACTORS = {
    "constant": lambda s, value, x: ((s * value, "1"),),
    "product": lambda s, value, x: ((s * x, "x"),),
    "sum": lambda s, value, x: ((s * x, "1"), (s, "x")),
}
FAMILIES = tuple(_FACTORS)


@dataclass(frozen=True)
class KernelSpec:
    """Closed-form kernel pair selection.

    ``lam`` (when not None) sets ``C = lam * K`` and makes ``family_C``
    irrelevant.  ``declared_bounds`` carries optional growth constants used by
    the moment/gelation diagnostics:

    - ``alpha``, ``beta``: lower bounds on the size-derivative of K and C,
    - ``M_cal``: uniform bound on C for large second argument,
    - ``A1``, ``A2``: product-growth constants K <= A1*x*y, C <= A2*x*y,
    - ``K1``, ``K2``: product lower-bound constants K >= K1*x*y, C >= K2*x*y.
    """

    family_K: str = "constant"
    K_value: float = 1.0
    lam: float | None = None
    family_C: str = "constant"
    C_value: float = 1.0
    declared_bounds: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family_K not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family_K!r}")
        if self.lam is None and self.family_C not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family_C!r}")
        if self.lam is not None and not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")


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

        O(m^2) time and memory, and deliberately not cached: meant for
        ``weak_form_rate``, the ``validate`` self-check at small m, and tests.
        """
        return self._dense(self.spec.family_K, self.spec.K_value)

    @property
    def Cd(self) -> np.ndarray:
        """Dense ``Cd[i-1, j-1] = eps * C(eps*i, eps*j)``; see ``Kd``."""
        spec = self.spec
        if spec.lam is not None:
            return self._dense(spec.family_K, spec.K_value, spec.lam)
        return self._dense(spec.family_C, spec.C_value)

    def _dense(self, family: str, value: float, lam: float | None = None) -> np.ndarray:
        # eps * (lam * K(x_i, x_j)), scaled in place: one m x m allocation
        xs = self.grid.centers()
        out = _eval_family(family, value, xs[:, None], xs[None, :])
        if lam is not None:
            out *= lam
        out *= self.grid.epsilon
        return out


@dataclass
class HypothesisReport:
    """Outcome of the numeric growth-condition probes.

    A failing probe is recorded, not raised; probe parameters are kept so the
    result is reproducible.
    """

    symmetric_K: bool
    symmetric_C: bool
    nonneg_K: bool
    nonneg_C: bool
    ch1_profile: np.ndarray
    ch1_y: np.ndarray
    ch2_sup: float
    M_cal: float
    ch1_pass: bool
    ch2_pass: bool
    R: float
    y_probe_max: float
    samples: int


def _eval_family(family: str, value: float, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0.0) or np.any(y < 0.0):
        raise ValueError("kernel arguments must be nonnegative")
    if family == "constant":
        return np.broadcast_to(np.float64(value), np.broadcast_shapes(x.shape, y.shape)).copy()
    if family == "product":
        return x * y
    if family == "sum":
        return x + y
    raise ValueError(f"unknown kernel family {family!r}")


def eval_K(spec: KernelSpec, x, y):
    """Evaluate the aggregation kernel; accepts scalars or arrays."""
    out = _eval_family(spec.family_K, spec.K_value, x, y)
    return float(out) if out.ndim == 0 else out


def eval_C(spec: KernelSpec, x, y):
    """Evaluate the inverse-aggregation kernel (``lam * K`` when lam is set)."""
    if spec.lam is not None:
        out = spec.lam * _eval_family(spec.family_K, spec.K_value, x, y)
    else:
        out = _eval_family(spec.family_C, spec.C_value, x, y)
    return float(out) if out.ndim == 0 else out


def discretize(spec: KernelSpec, grid: Grid) -> DiscreteKernel:
    """Separable factors (s = eps) of the point rule ``eps * K(eps*i, eps*j)``, K and C."""
    xs = grid.centers()
    K_factors = _FACTORS[spec.family_K](grid.epsilon, spec.K_value, xs)
    if spec.lam is not None:
        C_factors = tuple((spec.lam * a, key) for a, key in K_factors)
    else:
        C_factors = _FACTORS[spec.family_C](grid.epsilon, spec.C_value, xs)
    columns = {key: None if key == "1" else xs for _, key in K_factors + C_factors}
    return DiscreteKernel(grid=grid, spec=spec, K_factors=K_factors,
                          C_factors=C_factors, columns=columns)


def probe_hypotheses(spec: KernelSpec, R: float = 1.0, y_probe_max: float = 1000.0,
                     samples: int = 32) -> HypothesisReport:
    """Numerically probe the sublinear-growth and boundedness conditions.

    The first probe samples ``sup_{x in [0,R]} K(x,y) / y`` at increasing y and
    passes when the profile has dropped below a tenth of its first sample.  The
    second compares the sampled sup of C on ``[0,R] x [R, y_probe_max]``
    against the declared bound ``M_cal`` (or the observed sup plus 10% when
    none is declared, in which case it passes by construction).
    """
    if R < 1.0 or y_probe_max <= R or samples < 8:
        raise ValueError("need R >= 1, y_probe_max > R and samples >= 8")
    xs = np.linspace(0.0, R, 201)
    ys = np.geomspace(R, y_probe_max, samples)
    Kvals = eval_K(spec, xs[:, None], ys[None, :])
    profile = np.max(Kvals, axis=0) / ys
    ch1_pass = bool(profile[0] == 0.0 or profile[-1] < 0.1 * profile[0])

    Cvals = eval_C(spec, xs[:, None], ys[None, :])
    ch2_sup = float(np.max(Cvals))
    declared = spec.declared_bounds.get("M_cal")
    M_cal = float(declared) if declared is not None else 1.1 * ch2_sup
    ch2_pass = bool(ch2_sup <= M_cal * (1.0 + 1e-12))

    return HypothesisReport(
        symmetric_K=_probe_symmetry(lambda a, b: eval_K(spec, a, b), y_probe_max),
        symmetric_C=_probe_symmetry(lambda a, b: eval_C(spec, a, b), y_probe_max),
        nonneg_K=bool(np.all(Kvals >= 0.0)),
        nonneg_C=bool(np.all(Cvals >= 0.0)),
        ch1_profile=profile,
        ch1_y=ys,
        ch2_sup=ch2_sup,
        M_cal=M_cal,
        ch1_pass=ch1_pass,
        ch2_pass=ch2_pass,
        R=R,
        y_probe_max=y_probe_max,
        samples=samples,
    )


def _probe_symmetry(evaluate, span: float) -> bool:
    rng = np.random.default_rng(1729)
    a = span * rng.random(64)
    b = span * rng.random(64)
    return bool(np.array_equal(evaluate(a, b), evaluate(b, a)))
