"""Error measurement, convergence-order estimation, moment diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exact import ExactCase, breakpoints, exact_solution, has_closed_form
from .kernels import KernelSpec
from .state import DiscreteState, MomentSeries, _integrate_cells

_ROOT_TOL = 1e-10
_PROBES = 8  # equispaced sign probes per piece
_PANELS = 8  # composite-Simpson panels per piece


def __getattr__(name):
    # No code here uses ``brentq``, but ``perfbench/tracer.py`` patches the
    # name; importing scipy.optimize on first access keeps it (~0.6 s) off
    # ``import dcasim``.  Bound into the globals so ``vars()`` finds it.
    if name == "brentq":
        from scipy.optimize import brentq
        globals()["brentq"] = brentq
        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ErrorReport:
    epsilon: float
    t: float
    E1: float
    numerator: float
    denominator: float


@dataclass
class ConvergenceTable:
    """(epsilon, relative L1 error) rows at a fixed comparison time."""

    t: float
    rows: list = field(default_factory=list)  # (epsilon, E1) pairs

    def add(self, report: ErrorReport):
        self.rows.append((report.epsilon, report.E1))


@dataclass
class MomentBoundReport:
    riccati_bound: np.ndarray | None
    riccati_checked_mask: np.ndarray | None
    violations: list


def _merge(*parts: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``parts``.

    This is ``np.union1d``, whose first call imports ``numpy.ma`` (about
    15 ms and 1 MB).
    """
    x = np.sort(np.concatenate(parts))
    return x[np.concatenate(([True], x[1:] > x[:-1]))]


def _bisect(diff, lo: np.ndarray, hi: np.ndarray, side: np.ndarray) -> np.ndarray:
    """Sign changes of ``diff`` in the brackets [lo, hi], all refined together.

    ``side`` is the sign of ``diff`` at ``lo``.  Each result is the last point
    found with that sign (not the midpoint of the final bracket), so a jump at
    a bracket's left end returns that end exactly.
    """
    while lo.size and np.max(hi - lo) > _ROOT_TOL:
        mid = 0.5 * (lo + hi)
        same = np.sign(diff(mid)) == side
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return lo


def rel_l1_error(state: DiscreteState, case: ExactCase) -> ErrorReport:
    """Relative L1 distance between a state and the reference solution at ``state.t``.

    Both norms are taken over [0, x_max]; the state's step function is zero
    on the dust region and beyond the last cell, and those stretches
    contribute to the numerator.  The step function's pieces lie between
    consecutive points of one sorted cut list: 0, the cell edges, x_max (or
    the last cell's right edge, if that lies beyond it) and the reference
    solution's breakpoints.  The numerator's sub-pieces lie between the cuts
    merged with the sign changes of the difference found between
    ``_PROBES + 1`` equispaced probes per piece, so each Simpson piece
    integrates a smooth, single-signed integrand and the absolute value can
    be taken outside.
    """
    if not has_closed_form(case):
        raise ValueError(f"{case.id} with lambda={case.lam} has no closed form")
    t = state.t
    f = lambda x: exact_solution(case, t, x)
    grid = state.grid
    end = max(grid.upper, grid.x_max)
    edges = np.concatenate(([0.0], grid.left_edges(), [grid.upper, end]))
    step = np.concatenate(([0.0], state.c, [0.0]))     # dust cell, m cells, tail
    value = lambda x: step[np.searchsorted(edges, x, side="right") - 1]
    breaks = np.asarray(breakpoints(case, t))
    cuts = _merge(edges, breaks[breaks < end])
    a, b = cuts[:-1], cuts[1:]
    denominator = float(np.sum(_integrate_cells(f, a, b, _PANELS)))
    if denominator <= 0.0:
        raise ValueError(f"reference solution has no mass on [0, {grid.x_max}] at t={t}")

    v = value(a)
    probes = np.linspace(a, b, _PROBES + 1, axis=1)
    side = np.sign(f(probes) - v[:, None])     # a product of signs neither overflows nor underflows
    change = side[:, :-1] * side[:, 1:] < 0.0
    vb = v[np.nonzero(change)[0]]
    roots = _bisect(lambda x: f(x) - vb, probes[:, :-1][change],
                    probes[:, 1:][change], side[:, :-1][change])
    x = _merge(cuts, roots)
    lo, hi, val = x[:-1], x[1:], value(x[:-1])
    numerator = float(np.sum(np.abs(
        _integrate_cells(lambda x: f(x) - val[:, None], lo, hi, _PANELS))))
    return ErrorReport(epsilon=grid.epsilon, t=t, E1=numerator / denominator,
                       numerator=numerator, denominator=denominator)


def estimate_order(table: ConvergenceTable) -> float:
    """Least-squares slope of log(error) against log(epsilon)."""
    rows = [(e, err) for e, err in table.rows if err > 0.0]
    if len(rows) < 2:
        raise ValueError("need at least 2 rows with positive error")
    eps = np.log([r[0] for r in rows])
    err = np.log([r[1] for r in rows])
    return float(np.polyfit(eps, err, 1)[0])


def moment_diagnostics(series: MomentSeries, spec: KernelSpec, epsilon: float,
                       rtol: float = 1e-6) -> MomentBoundReport:
    """Check the moment identities and declared growth bounds along a run.

    Checks: monotone decay of the particle count M0; constancy of the interior
    mass M1 up to the integrated boundary defect; and the second-moment Riccati
    bound when product-growth constants A1/A2 are declared.  The truncated
    system shows the untruncated one's mass loss as boundary-defect outflow,
    which the M1 check accounts for.
    """
    if not series.times:
        raise ValueError("empty moment series")
    times, M0, M1, M2, defect = map(np.asarray, (series.times, series.M0, series.M1,
                                                 series.M2, series.defect_integral))

    # each check is a mask of the times that fail it, written as "not <=" so
    # that a NaN moment fails
    increase = ~(np.diff(M0) <= 10.0 * rtol * max(M0[0], 1e-300))
    # interior mass: M1(t) - M1(0) should equal eps^2 * integral of the defect
    mismatch = ~(np.abs(M1 - M1[0] - epsilon**2 * defect) <= 100.0 * rtol * max(M1[0], 1e-300))
    failed = [("M0_increase", times[1:][increase]), ("mass_defect_mismatch", times[mismatch])]

    riccati = mask = None
    a1 = spec.declared_bounds.get("A1")
    a2 = spec.declared_bounds.get("A2")
    if a1 is not None and a2 is not None and M2[0] > 0.0:
        A = 2.0 * max(a1, a2)
        growth = np.exp(A * M1[0] * (times - times[0]))
        denom = A * M1[0] + 2.0 * A * M2[0] * (1.0 - growth)
        mask = denom > 0.0
        riccati = np.full_like(times, np.nan)
        riccati[mask] = A * M1[0] * M2[0] * growth[mask] / denom[mask]
        failed.append(("second_moment_bound", times[mask & ~(M2 <= riccati * (1.0 + 1e-9))]))

    return MomentBoundReport(
        riccati_bound=riccati,
        riccati_checked_mask=mask,
        violations=[(kind, float(tm)) for kind, at in failed for tm in at],
    )
