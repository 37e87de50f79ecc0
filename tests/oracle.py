"""Independent reference implementations used only by the tests.

Everything here is written as literal, loop-based transcriptions of the
defining formulas: a naive RHS built directly from the kernel closed forms, a
direct weak-form double loop, and a fixed-step classical RK4 reference
integrator.  Besides the package's types, its closed-form solutions and the
``rhs_vector`` that the reference integrators step with, the references
share with the package what fixes its rounding, so that those which must
equal it bit for bit pin that rounding: the integrator's tableau, its
controller constants, ``_clamp_negative`` (which clamps in place) and
``_error_norm``, the kernels' factor table ``_FACTORS`` (read by ``factors``),
and a ``DiscreteKernel``'s ``columns``, ``sums`` and ``index``.  The two RHS
evaluations the package used before its separable-factor path are kept as
references too:
the O(m^2) row-cumulative sums over the dense matrices, and the O(m)
prefix-sum formula for constant kernels.  The allocating separable-factor RHS
that the package ran before its buffer-reusing one is kept too, and so is the
allocating form of the column-total RHS it runs when K = C; the package's
must equal them bit for bit.  So must its boundary defect rate equal
``reference_defect_rate``, the outflow ``-(m+1) * flux_m`` through the last
face of those allocating forms.  ``reference_mass_defect_rate``, the
column-total formula ``-(m+1) c_m A_m - m (m+1) Cd[m,m] c_m^2`` that the
package computed D by before, and ``constant_mass_defect_rate`` round D
differently and are its tolerance references.  The package's integrator must
equal bit for bit the Dormand-Prince loop it ran before the defect rate came
out of the RHS pass: one defect-rate call per stage (here
``reference_defect_rate``) and a seven-term candidate sum.  An exact rational
RHS measures the rounding of both RHS forms.  The vectorised weak-form rate over
the dense matrices lives here as well; no package code calls it.  The scalar relative-L1 error
measurement the package used before its vectorised one is kept as well: a
Simpson rule and a row of sign probes per segment, and a scalar ``brentq``
solve per sign change.  Point evaluation of a state's step function and the CSV body
reader, which only the tests use, live here too.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from scipy.optimize import brentq

from dcasim.analysis import ErrorReport
from dcasim.exact import ExactCase, breakpoints, exact_solution
from dcasim.grid import Grid
from dcasim.kernels import _FACTORS, FAMILIES, DiscreteKernel, KernelSpec
from dcasim.integrator import (_A_ROWS, _E, _FAC_MAX, _FAC_MIN, _MAX_STEPS, _PI_ALPHA,
                               _PI_BETA, _SAFETY, IntegrationError, IntegratorConfig,
                               StepStats, _clamp_negative, _error_norm)
from dcasim.rhs import rhs_vector
from dcasim.state import DiscreteState


def kernel_value(spec: KernelSpec, which: str, x: float, y: float) -> float:
    """Scalar kernel evaluation straight from the family definitions."""
    family = spec.family_K if which == "K" else spec.family_C
    value = spec.K_value if which == "K" else spec.C_value
    if family == "constant":
        return value
    if family == "product":
        return value * x * y
    if family == "sum":
        return value * (x + y)
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


def factors(dk: DiscreteKernel):
    """K's and C's separable factors ``(a_r, key_r)``, evaluated as ``discretize`` does."""
    xs, eps, spec = dk.grid.centers(), dk.grid.epsilon, dk.spec
    return (_FACTORS[spec.family_K](eps * spec.K_value, xs),
            _FACTORS[spec.family_C](eps * spec.C_value, xs))


def _reference_combine(factors, sums):
    """``sum_r a_r * sums[key_r]`` over the separable factors."""
    (a, key), *rest = factors
    out = a * sums[key]
    for a, key in rest:
        out += a * sums[key]
    return out


def _reference_factor_sums(c: np.ndarray, dk: DiscreteKernel):
    """``A + G`` and ``W + Z`` from prefix and suffix sums, each a fresh array."""
    jc = np.arange(1, c.size + 1, dtype=float) * c
    pre_jc, suf_jc, pre_c, suf_c = {}, {}, {}, {}
    for key, b in dk.columns.items():
        bjc, bc = (jc, c) if b is None else (b * jc, b * c)
        pre_jc[key], pre_c[key] = np.cumsum(bjc), np.cumsum(bc)
        suf_jc[key] = pre_jc[key][-1] - pre_jc[key] + bjc
        suf_c[key] = pre_c[key][-1] - pre_c[key] + bc
    K, C = factors(dk)
    return (_reference_combine(K, pre_jc) + _reference_combine(C, suf_jc),
            _reference_combine(K, suf_c) + _reference_combine(C, pre_c))


def reference_rhs_vector(c: np.ndarray, dk: DiscreteKernel) -> np.ndarray:
    """The separable-factor RHS with a fresh array per intermediate."""
    AG, WZ = _reference_factor_sums(c, dk)
    flux = c * AG
    Q = np.empty_like(c)
    Q[0] = -flux[0]
    Q[1:] = flux[:-1] - flux[1:]
    Q -= c * WZ
    return Q


def reference_defect_rate(c: np.ndarray, dk: DiscreteKernel) -> float:
    """The boundary defect rate ``-(m+1) * flux_m``, ``flux = c * (A + G)`` from
    the allocating sums: ``tied_sums`` when the plan is tied, else the factor
    sums of ``reference_rhs_vector``."""
    groups = plan_kinds(dk)[0]   # A + G's; none when K = C = 0, whose sum is zero
    if not groups:
        AG = np.zeros_like(c)
    elif groups[0][0] == "row":
        AG = tied_sums(c, dk)[0]
    else:
        AG = _reference_factor_sums(c, dk)[0]
    return float(-(c.size + 1) * (c * AG)[-1])


def reference_mass_defect_rate(c: np.ndarray, dk: DiscreteKernel) -> float:
    """The boundary defect rate as the column-total formula
    ``-(m+1) c_m A_m - m (m+1) Cd[m,m] c_m^2``, read off the last entries of
    full factor sums."""
    m = c.size
    jc = np.arange(1, m + 1, dtype=float) * c
    col_jc = {key: float(np.sum(jc if b is None else b * jc)) for key, b in dk.columns.items()}
    col_m = {key: 1.0 if b is None else b[-1] for key, b in dk.columns.items()}
    # a sum started at +0.0, as an empty one: K = 0 gives A_m = +0.0 whatever the
    # columns' signs (only the sign of a zero total depends on the start)
    K, C = factors(dk)
    A_m = 0.0 + np.atleast_1d(_reference_combine(K, col_jc))[-1]
    C_mm = np.atleast_1d(_reference_combine(C, col_m))[-1]
    cm = float(c[-1])
    return float(-(m + 1) * cm * A_m - m * (m + 1) * C_mm * cm * cm)


def tied_sums(c: np.ndarray, dk: DiscreteKernel):
    """``A + G`` and ``W + Z`` when K = C, allocating each intermediate.

    Both are ``sum_r a_r * (b_r . v + b_r * v)`` over K's factors, with
    ``v = j c`` and ``v = c``: the row sum over every j plus the row's own term.
    """
    def combine(v):
        out = None
        for a, key in factors(dk)[0]:
            b = dk.columns[key]
            own = v if b is None else b * v
            term = a * (own + np.sum(own))
            out = term if out is None else out + term
        return out

    return combine(np.arange(1, c.size + 1, dtype=float) * c), combine(c)


def plan_kinds(dk: DiscreteKernel):
    """The kinds of ``dk.sums``: per sum (``A + G``, ``W + Z``), per group, per term."""
    return tuple(tuple(tuple(kind for *_, kind in group) for group in groups)
                 for groups in dk.sums)


def rhs_from_sums(c: np.ndarray, A, W, G, Z) -> np.ndarray:
    """Assemble the per-cell balance from the four per-row sums."""
    return rhs_from_pair_sums(c, A + G, W + Z)


def rhs_from_pair_sums(c: np.ndarray, AG, WZ) -> np.ndarray:
    """Assemble the per-cell balance from ``A + G`` and ``W + Z``."""
    flux = c * AG
    Q = np.empty_like(c)
    Q[0] = -flux[0]
    Q[1:] = flux[:-1] - flux[1:]
    Q -= c * WZ
    return Q


def exact_rhs(c: np.ndarray, dk: DiscreteKernel) -> list[Fraction]:
    """The RHS in exact rational arithmetic on the float factors and state.

    Each factor and concentration is taken as the rational number its float
    represents, so the result is the RHS of the discrete system as stored,
    with no rounding at all.
    """
    m = c.size
    cs = [Fraction(float(v)) for v in c]
    jc = [(j + 1) * v for j, v in enumerate(cs)]

    def exact(fs):
        return [([Fraction(float(x)) for x in np.broadcast_to(a, (m,))],
                 [Fraction(1)] * m if dk.columns[key] is None
                 else [Fraction(float(x)) for x in dk.columns[key]]) for a, key in fs]

    def row_sums(fs, v, lower):
        """sum over j <= i (lower) or j >= i of Kd[i, j] * v_j, every row i."""
        out = [Fraction(0)] * m
        for a, b in fs:
            bv = [bj * vj for bj, vj in zip(b, v)]
            total, run = sum(bv), Fraction(0)
            for i in range(m):
                run += bv[i]
                out[i] += a[i] * (run if lower else total - run + bv[i])
        return out

    K, C = (exact(fs) for fs in factors(dk))
    AG = [x + y for x, y in zip(row_sums(K, jc, True), row_sums(C, jc, False))]
    WZ = [x + y for x, y in zip(row_sums(K, cs, False), row_sums(C, cs, True))]
    flux = [ci * s for ci, s in zip(cs, AG)]
    return [(flux[i - 1] if i else 0) - flux[i] - cs[i] * WZ[i] for i in range(m)]


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


def weak_form_rate(c: np.ndarray, dk: DiscreteKernel, phi: np.ndarray) -> float:
    """Truncated moment-equation right side for a test sequence ``phi``.

    ``phi`` needs ``m + 1`` entries since the forward difference
    ``phi_{i+1} - phi_i`` is taken at the last row.  For ``phi_i = i`` the
    bracket ``j * (phi_{i+1} - phi_i) - phi_j`` vanishes identically.
    """
    m = c.size
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (m + 1,):
        raise ValueError(f"phi must have {m + 1} entries, got {phi.shape}")
    j1 = np.arange(1, m + 1, dtype=float)
    dphi = phi[1:] - phi[:-1]
    bracket = dphi[:, None] * j1[None, :] - phi[:-1][None, :]
    cc = np.outer(c, c)
    lower = np.tril(np.ones((m, m)))           # j <= i
    upper = np.triu(np.ones((m, m)))           # j >= i
    rate = np.sum(bracket * dk.Kd * cc * lower) + np.sum(bracket * dk.Cd * cc * upper)
    return float(rate)


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


_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])


def reference_integrate(state0: DiscreteState, dk: DiscreteKernel, cfg: IntegratorConfig,
                        snapshot_times) -> tuple[list[DiscreteState], StepStats]:
    """``integrate`` with a separate candidate sum ``y + h * (_B5 @ k)`` and six
    ``reference_defect_rate`` calls per accepted step (stage states 0..5)."""
    times = [float(t) for t in snapshot_times]
    stats = StepStats()
    snapshots: list[DiscreteState] = []
    t = float(state0.t)
    y = state0.c.copy()
    defect_int = 0.0
    queue = list(times)
    while queue and abs(queue[0] - t) <= 1e-14 * max(1.0, abs(t)):
        snapshots.append(DiscreteState(state0.grid, y.copy(), queue.pop(0)))
        stats.defect_integrals.append(defect_int)
    if not queue:
        return snapshots, stats

    span = queue[-1] - t
    floor = 1e-14 * max(1.0, abs(t))   # the underflow floor; a span below 1e-10 starts at it
    h_max, h = max(span / 10.0, floor), max(1e-4 * span, floor)

    k = np.empty((7, y.size))
    stages = np.empty((6, y.size))
    inc, err, scale, y_new = (np.empty_like(y) for _ in range(4))
    rhs_vector(y, dk, out=k[0])
    stats.rhs_evals += 1
    err_prev = 1.0

    steps = 0
    while queue:
        if steps >= _MAX_STEPS:
            raise IntegrationError(f"exceeded {_MAX_STEPS} steps at t={t}")
        target = queue[0]
        h = min(h, h_max, target - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t={t}")

        for s in range(1, 7):
            np.matmul(_A_ROWS[s], k[:s], out=inc)
            inc *= h
            np.add(y, inc, out=stages[s - 1])
            rhs_vector(stages[s - 1], dk, out=k[s])
        stats.rhs_evals += 6
        np.matmul(_B5, k, out=inc)
        inc *= h
        np.add(y, inc, out=y_new)
        np.matmul(_E, k, out=err)
        err *= h
        err_norm = _error_norm(err, y, y_new, cfg.rtol, cfg.atol, scale, inc)
        steps += 1

        if err_norm <= 1.0:
            stats.accepted += 1
            defect_stages = [reference_defect_rate(ys, dk) for ys in (y, *stages[:5])]
            defect_int += h * float(_B5[:6] @ np.array(defect_stages))

            t = t + h
            y, y_new = y_new, y
            clamped = _clamp_negative(y, dk.index)
            stats.clamped_mass += clamped * state0.grid.epsilon ** 2
            if clamped == 0.0:
                k[0] = k[6]
            else:
                rhs_vector(y, dk, out=k[0])
                stats.rhs_evals += 1

            if abs(t - target) <= 1e-12 * max(1.0, abs(target)):
                t = target
                snapshots.append(DiscreteState(state0.grid, y.copy(), t))
                stats.defect_integrals.append(defect_int)
                queue.pop(0)

            if err_norm == 0.0:
                fac = _FAC_MAX
            else:
                fac = _SAFETY * err_norm ** (-_PI_ALPHA) * err_prev ** _PI_BETA
                fac = min(_FAC_MAX, max(_FAC_MIN, fac))
            h = h * fac
            err_prev = max(err_norm, 1e-10)
        else:
            stats.rejected += 1
            fac = max(_FAC_MIN, _SAFETY * err_norm ** (-0.2))
            h = h * fac

    return snapshots, stats


def _simpson(f, a: float, b: float, panels: int) -> float:
    xs = np.linspace(a, b, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (b - a) / (3.0 * panels) * float(w @ f(xs))


def _split_points(f, a: float, b: float, probes: int = 8) -> list[float]:
    """Roots of f inside (a, b), located by brentq between sampled nodes; ``f``
    takes the nodes as one array and brentq's points as scalars."""
    xs = np.linspace(a, b, probes + 1)
    vals = f(xs)
    roots = []
    for lo, hi, vlo, vhi in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if vlo == 0.0 or vlo * vhi >= 0.0:
            continue
        roots.append(float(brentq(f, lo, hi, xtol=1e-10)))
    return roots


def _abs_integral(f_exact, value: float, a: float, b: float,
                  hard_breaks: tuple[float, ...], panels: int) -> float:
    """Integral of |f_exact - value| over [a, b], split at breaks and roots;
    ``f_exact`` is vectorised."""
    diff = lambda x: f_exact(x) - value
    cuts = sorted([a, b] + [p for p in hard_breaks if a < p < b])
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pieces = [lo] + _split_points(diff, lo, hi) + [hi]
        for p, q in zip(pieces[:-1], pieces[1:]):
            if q > p:
                total += abs(_simpson(diff, p, q, panels))
    return total


def step_value(state: DiscreteState, x):
    """The state's step function at ``x``: ``c_i`` on cell i, 0 outside the cells."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("negative size")
    grid = state.grid
    idx = np.floor(x / grid.epsilon + 0.5).astype(int)
    inside = (x >= 0.5 * grid.epsilon) & (x < (grid.m + 0.5) * grid.epsilon)
    idx = np.clip(idx, 1, grid.m)
    out = np.where(inside, state.c[idx - 1], 0.0)
    return float(out) if out.ndim == 0 else out


def scalar_rel_l1_error(state: DiscreteState, case: ExactCase,
                        panels: int = 8) -> ErrorReport:
    """Relative L1 error at ``state.t``, segment by segment, with a scalar
    ``brentq`` per sign change."""
    grid, t = state.grid, state.t
    f_ex = lambda xs: exact_solution(case, t, xs)
    hard = breakpoints(case, t)

    eps, upper = grid.epsilon, (grid.m + 0.5) * grid.epsilon   # not grid.cuts(), which it checks
    segments = [(0.0, 0.5 * eps, 0.0)]
    segments += [(eps * (i - 0.5), eps * (i + 0.5), float(v)) for i, v in enumerate(state.c, 1)]
    if grid.x_max > upper:
        segments.append((upper, grid.x_max, 0.0))

    numerator = 0.0
    denominator = 0.0
    for a, b, v in segments:
        numerator += _abs_integral(f_ex, v, a, b, hard, panels)
        cuts = sorted([a, b] + [p for p in hard if a < p < b])
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            denominator += _simpson(f_ex, lo, hi, panels)
    return ErrorReport(E1=numerator / denominator, numerator=numerator, denominator=denominator)


def body_of(path: str) -> str:
    """CSV content with the `#` metadata header stripped."""
    with open(path) as fh:
        return "".join(line for line in fh if not line.startswith("#"))


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


# every K family, with C = 0.5 * K and with each C family at its own value
FAMILY_PAIRS = tuple(
    spec for fam in FAMILIES for spec in (
        KernelSpec(family_K=fam, K_value=2.5, family_C=fam, C_value=1.25),
        *(KernelSpec(family_K=fam, K_value=2.5, family_C=fam_C, C_value=0.7)
          for fam_C in FAMILIES)))

ORACLE_KERNELS = (
    KernelSpec(family_K="constant", K_value=1.0, family_C="constant", C_value=1.0),
    KernelSpec(family_K="product", K_value=1.0, family_C="product", C_value=1.0),
    KernelSpec(family_K="sum", K_value=1.0, family_C="sum", C_value=1.0),
    KernelSpec(family_K="constant", K_value=1.0, family_C="constant", C_value=0.5),
)
