"""Independent reference implementations used only by the tests.

Everything here is written as literal, loop-based transcriptions of the
defining formulas, sharing no code with the package: a naive RHS built
directly from the kernel closed forms, a direct weak-form double loop, and a
fixed-step classical RK4 reference integrator.  The two RHS evaluations the
package used before its separable-factor path are kept as references too:
the O(m^2) row-cumulative sums over the dense matrices, and the O(m)
prefix-sum formula for constant kernels.  The scalar relative-L1 error
measurement the package used before its vectorised one is kept as well: one
closed-form call per probe and per Simpson node, and a ``brentq`` solve per
sign change.
"""

from __future__ import annotations

import math

import numpy as np

from scipy.optimize import brentq

from dcasim.analysis import ErrorReport
from dcasim.exact import ExactCase, breakpoints, exact_solution
from dcasim.grid import Grid
from dcasim.kernels import FAMILIES, DiscreteKernel, KernelSpec
from dcasim.rhs import rhs_vector
from dcasim.state import StepFunction


def kernel_value(spec: KernelSpec, which: str, x: float, y: float) -> float:
    """Scalar kernel evaluation straight from the family definitions."""
    if which == "C" and spec.lam is not None:
        return spec.lam * kernel_value(spec, "K", x, y)
    family = spec.family_K if which == "K" else spec.family_C
    value = spec.K_value if which == "K" else spec.C_value
    if family == "constant":
        return value
    if family == "product":
        return x * y
    if family == "sum":
        return x + y
    raise ValueError(family)


def naive_matrices(spec: KernelSpec, epsilon: float, m: int):
    """Point-rule matrices eps * K(eps*i, eps*j), entry by entry."""
    Kd = [[epsilon * kernel_value(spec, "K", epsilon * i, epsilon * j)
           for j in range(1, m + 1)] for i in range(1, m + 1)]
    Cd = [[epsilon * kernel_value(spec, "C", epsilon * i, epsilon * j)
           for j in range(1, m + 1)] for i in range(1, m + 1)]
    return Kd, Cd


def naive_rhs(c, spec: KernelSpec, epsilon: float) -> np.ndarray:
    """Per-cell balance as a literal double loop (c_0 = 0 convention)."""
    m = len(c)
    Kd, Cd = naive_matrices(spec, epsilon, m)

    def A(i):  # sum_{j<=i} j * Kd[i,j] * c_j
        return math.fsum(j * Kd[i - 1][j - 1] * c[j - 1] for j in range(1, i + 1))

    def W(i):  # sum_{j>=i} Kd[i,j] * c_j
        return math.fsum(Kd[i - 1][j - 1] * c[j - 1] for j in range(i, m + 1))

    def G(i):  # sum_{j>=i} j * Cd[i,j] * c_j
        return math.fsum(j * Cd[i - 1][j - 1] * c[j - 1] for j in range(i, m + 1))

    def Z(i):  # sum_{j<=i} Cd[i,j] * c_j
        return math.fsum(Cd[i - 1][j - 1] * c[j - 1] for j in range(1, i + 1))

    out = []
    for i in range(1, m + 1):
        gain = c[i - 2] * (A(i - 1) + G(i - 1)) if i >= 2 else 0.0
        loss = c[i - 1] * (A(i) + G(i)) + c[i - 1] * (W(i) + Z(i))
        out.append(gain - loss)
    return np.array(out)


def dense_sums(c: np.ndarray, Kd: np.ndarray, Cd: np.ndarray):
    """A, W, G, Z by row-cumulative sums over the dense matrices, O(m^2)."""
    m = c.size
    j1 = np.arange(1, m + 1, dtype=float)
    jc = j1 * c
    idx = np.arange(m)

    csA = np.cumsum(Kd * jc[None, :], axis=1)
    A = csA[idx, idx]

    csW = np.cumsum(Kd * c[None, :], axis=1)
    W = csW[:, -1] - np.where(idx > 0, csW[idx, np.maximum(idx - 1, 0)], 0.0)

    csG = np.cumsum(Cd * jc[None, :], axis=1)
    G = csG[:, -1] - np.where(idx > 0, csG[idx, np.maximum(idx - 1, 0)], 0.0)

    csZ = np.cumsum(Cd * c[None, :], axis=1)
    Z = csZ[idx, idx]
    return A, W, G, Z


def constant_sums(c: np.ndarray, kval: float, cval: float):
    """A, W, G, Z for constant matrices Kd = kval, Cd = cval by prefix sums."""
    m = c.size
    j1 = np.arange(1, m + 1, dtype=float)
    jc = j1 * c
    pre_jc = np.cumsum(jc)
    pre_c = np.cumsum(c)
    A = kval * pre_jc
    W = kval * (pre_c[-1] - pre_c + c)
    G = cval * (pre_jc[-1] - pre_jc + jc)
    Z = cval * pre_c
    return A, W, G, Z


def rhs_from_sums(c: np.ndarray, A, W, G, Z) -> np.ndarray:
    """Assemble the per-cell balance from the four per-row sums."""
    flux = c * (A + G)
    Q = np.empty_like(c)
    Q[0] = -flux[0]
    Q[1:] = flux[:-1] - flux[1:]
    Q -= c * (W + Z)
    return Q


def dense_mass_defect_rate(c: np.ndarray, Kd: np.ndarray, Cd: np.ndarray) -> float:
    """-(m+1) c_m A_m - m (m+1) Cd[m,m] c_m^2 read off the dense matrices."""
    m = c.size
    j1 = np.arange(1, m + 1, dtype=float)
    A_m = float(np.sum(j1 * Kd[-1, :] * c))
    cm = float(c[-1])
    return -(m + 1) * cm * A_m - m * (m + 1) * float(Cd[-1, -1]) * cm * cm


def constant_mass_defect_rate(c: np.ndarray, kval: float, cval: float) -> float:
    """The boundary defect rate for constant matrices Kd = kval, Cd = cval."""
    m = c.size
    j1 = np.arange(1, m + 1, dtype=float)
    A_m = kval * float(np.sum(j1 * c))
    cm = float(c[-1])
    return -(m + 1) * cm * A_m - m * (m + 1) * cval * cm * cm


def naive_weighted_rate(c, spec: KernelSpec, epsilon: float) -> float:
    """sum_i i * Q_i with Q from the naive RHS."""
    q = naive_rhs(c, spec, epsilon)
    return math.fsum((i + 1) * q[i] for i in range(len(c)))


def naive_weak_form(c, spec: KernelSpec, epsilon: float, phi) -> float:
    """Direct double loop of the moment-equation bracket.

    phi has m + 1 entries; the bracket is j*(phi_{i+1} - phi_i) - phi_j,
    summed over j <= i against K and over j >= i against C.
    """
    m = len(c)
    Kd, Cd = naive_matrices(spec, epsilon, m)
    total = 0.0
    for i in range(1, m + 1):
        dphi = phi[i] - phi[i - 1]
        for j in range(1, i + 1):
            total += (j * dphi - phi[j - 1]) * Kd[i - 1][j - 1] * c[i - 1] * c[j - 1]
        for j in range(i, m + 1):
            total += (j * dphi - phi[j - 1]) * Cd[i - 1][j - 1] * c[i - 1] * c[j - 1]
    return total


def rk4_reference(c0: np.ndarray, dk: DiscreteKernel, t_end: float, h: float) -> np.ndarray:
    """Classical fixed-step RK4 from t=0 to t_end."""
    n = int(round(t_end / h))
    if abs(n * h - t_end) > 1e-12 * max(1.0, t_end):
        raise ValueError("t_end must be a multiple of h")
    c = np.asarray(c0, dtype=float).copy()
    for _ in range(n):
        k1 = rhs_vector(c, dk)
        k2 = rhs_vector(c + 0.5 * h * k1, dk)
        k3 = rhs_vector(c + 0.5 * h * k2, dk)
        k4 = rhs_vector(c + h * k3, dk)
        c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return c


def _simpson(f, a: float, b: float, panels: int) -> float:
    xs = np.linspace(a, b, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (b - a) / (3.0 * panels) * float(w @ f(xs))


def _split_points(f, a: float, b: float, probes: int = 8) -> list[float]:
    """Roots of f inside (a, b), located by brentq between sampled nodes."""
    xs = np.linspace(a, b, probes + 1)
    vals = np.array([f(x) for x in xs])
    roots = []
    for lo, hi, vlo, vhi in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if vlo == 0.0 or vlo * vhi >= 0.0:
            continue
        roots.append(float(brentq(f, lo, hi, xtol=1e-10)))
    return roots


def _abs_integral(f_exact, value: float, a: float, b: float,
                  hard_breaks: tuple[float, ...], panels: int) -> float:
    """Integral of |f_exact - value| over [a, b], split at breaks and roots."""
    diff = lambda x: f_exact(x) - value
    cuts = sorted([a, b] + [p for p in hard_breaks if a < p < b])
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pieces = [lo] + _split_points(diff, lo, hi) + [hi]
        for p, q in zip(pieces[:-1], pieces[1:]):
            if q > p:
                total += abs(_simpson(np.vectorize(diff, otypes=[float]), p, q, panels))
    return total


def scalar_rel_l1_error(sf: StepFunction, case: ExactCase, t: float,
                        panels: int = 8) -> ErrorReport:
    """Relative L1 error, segment by segment with scalar closed-form calls."""
    grid = sf.grid
    f_ex_vec = lambda xs: exact_solution(case, t, xs)
    f_ex = lambda x: float(exact_solution(case, t, float(x)))
    hard = breakpoints(case, t)

    segments = [(0.0, grid.lower, 0.0)]
    segments += [(float(a), float(b), float(v)) for a, b, v
                 in zip(grid.left_edges(), grid.right_edges(), sf.values)]
    if grid.x_max > grid.upper:
        segments.append((grid.upper, grid.x_max, 0.0))

    numerator = 0.0
    denominator = 0.0
    for a, b, v in segments:
        numerator += _abs_integral(f_ex, v, a, b, hard, panels)
        cuts = sorted([a, b] + [p for p in hard if a < p < b])
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            denominator += _simpson(f_ex_vec, lo, hi, panels)
    return ErrorReport(epsilon=grid.epsilon, t=t, E1=numerator / denominator,
                       numerator=numerator, denominator=denominator)


def small_grid(epsilon: float, m: int) -> Grid:
    """Grid with exactly m cells (bypasses the 3-cell floor of build_grid)."""
    return Grid(epsilon=epsilon, x_max=(m + 0.5) * epsilon, m=m)


def random_instance(rng: np.random.Generator, specs):
    """One (spec, epsilon, m, c) tuple for the randomized identity checks."""
    m = int(rng.integers(2, 33))
    epsilon = float(rng.uniform(0.02, 0.5))
    spec = specs[int(rng.integers(0, len(specs)))]
    c = rng.random(m) * float(rng.choice([1.0, 10.0]))
    return spec, epsilon, m, c


# every K family, with C tied by lam and with each own C family
FAMILY_PAIRS = tuple(
    spec for fam in FAMILIES for spec in (
        KernelSpec(family_K=fam, K_value=2.5, lam=0.5),
        *(KernelSpec(family_K=fam, K_value=2.5, lam=None, family_C=fam_C, C_value=0.7)
          for fam_C in FAMILIES)))

ORACLE_KERNELS = (
    KernelSpec(family_K="constant", K_value=1.0, lam=None,
               family_C="constant", C_value=1.0),
    KernelSpec(family_K="product", K_value=1.0, lam=None,
               family_C="product", C_value=1.0),
    KernelSpec(family_K="sum", K_value=1.0, lam=None,
               family_C="sum", C_value=1.0),
    KernelSpec(family_K="constant", K_value=1.0, lam=0.5),
)
