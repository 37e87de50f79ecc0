"""Error measurement, convergence-order estimation, moment diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exact import ExactCase, breakpoints, exact_solution, has_closed_form
from .kernels import KernelSpec
from .state import MomentSeries, StepFunction, _integrate_cells

_ROOT_TOL = 1e-10
_PROBES = 8  # equispaced sign probes per piece


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
    number_nonincreasing: bool
    mass_conserved: bool
    riccati_bound: np.ndarray | None
    riccati_checked_mask: np.ndarray | None
    gelation_envelope: np.ndarray | None
    violations: list


def _pieces(sf: StepFunction, breaks: tuple[float, ...]):
    """Arrays ``(a, b, v)``: the step function is ``v`` on each piece [a, b].

    The pieces are the dust cell [0, eps/2), the m cells and the tail beyond
    the last cell (value 0 outside the cells), each split at ``breaks``.
    """
    grid = sf.grid
    a = [[0.0], grid.left_edges()]
    b = [[grid.lower], grid.right_edges()]
    v = [[0.0], np.asarray(sf.values, dtype=float)]
    if grid.x_max > grid.upper:
        a.append([grid.upper])
        b.append([grid.x_max])
        v.append([0.0])
    a, b, v = np.concatenate(a), np.concatenate(b), np.concatenate(v)
    for p in breaks:
        k = np.flatnonzero((a < p) & (p < b))
        a = np.insert(a, k + 1, p)
        b = np.insert(b, k, p)
        v = np.insert(v, k, v[k])
    return a, b, v


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


def rel_l1_error(sf: StepFunction, case: ExactCase, t: float,
                 panels: int = 8) -> ErrorReport:
    """Relative L1 distance between a step function and the reference solution.

    Both norms are taken over [0, x_max]; the step function is zero on the
    dust region and beyond the last cell, and those stretches contribute to
    the numerator.  Every piece of the step function is split at the
    reference solution's breakpoints and at the sign changes of the
    difference found between ``_PROBES + 1`` equispaced probes, so each
    Simpson piece integrates a smooth, single-signed integrand and the
    absolute value can be taken outside.
    """
    if not has_closed_form(case):
        raise ValueError(f"{case.id} with lambda={case.lam} has no closed form")
    f = lambda x: exact_solution(case, t, x)
    a, b, v = _pieces(sf, breakpoints(case, t))
    denominator = float(np.sum(_integrate_cells(f, a, b, panels)))
    if denominator <= 0.0:
        raise ValueError(f"reference solution has no mass on [0, {sf.grid.x_max}] at t={t}")

    probes = np.linspace(a, b, _PROBES + 1, axis=1)
    d = f(probes) - v[:, None]
    change = d[:, :-1] * d[:, 1:] < 0.0
    vb = v[np.nonzero(change)[0]]
    roots = _bisect(lambda x: f(x) - vb, probes[:, :-1][change],
                    probes[:, 1:][change], np.sign(d[:, :-1][change]))

    # cut each piece at its roots; consecutive cuts of one piece bound a sub-piece
    cuts = np.empty((a.size, _PROBES + 2))
    cuts[:, 0], cuts[:, -1] = a, b
    cuts[:, 1:-1][change] = roots
    keep = np.ones(cuts.shape, dtype=bool)
    keep[:, 1:-1] = change
    row = np.broadcast_to(np.arange(a.size)[:, None], cuts.shape)[keep]
    x = cuts[keep]
    sub = (row[:-1] == row[1:]) & (x[1:] > x[:-1])
    lo, hi, val = x[:-1][sub], x[1:][sub], v[row[:-1][sub]]
    numerator = float(np.sum(np.abs(
        _integrate_cells(lambda x: f(x) - val[:, None], lo, hi, panels))))
    return ErrorReport(epsilon=sf.grid.epsilon, t=t, E1=numerator / denominator,
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
    mass M1 up to the integrated boundary defect; the second-moment Riccati
    bound when product-growth constants A1/A2 are declared; and the mass-decay
    envelope when the product lower bound K1 is declared.  The envelope is a
    diagnostic only: it concerns the untruncated system, whose mass loss shows
    up here as boundary-defect activation instead.
    """
    if not series.times:
        raise ValueError("empty moment series")
    times = np.asarray(series.times)
    M0 = np.asarray(series.M0)
    M1 = np.asarray(series.M1)
    M2 = np.asarray(series.M2)
    Y1 = np.asarray(series.Y1)
    defect = np.asarray(series.defect_integral)
    violations = []

    slack = 10.0 * rtol * max(M0[0], 1e-300)
    number_ok = bool(np.all(np.diff(M0) <= slack))
    if not number_ok:
        for tm, d in zip(times[1:], np.diff(M0)):
            if d > slack:
                violations.append(("M0_increase", float(tm)))

    # interior mass: M1(t) - M1(0) should equal eps^2 * integral of the defect
    drift = np.abs(M1 - M1[0] - epsilon**2 * defect)
    mass_ok = bool(np.all(drift <= 100.0 * rtol * max(M1[0], 1e-300)))
    if not mass_ok:
        for tm, d in zip(times, drift):
            if d > 100.0 * rtol * max(M1[0], 1e-300):
                violations.append(("mass_defect_mismatch", float(tm)))

    riccati = None
    mask = None
    a1 = spec.declared_bounds.get("A1")
    a2 = spec.declared_bounds.get("A2")
    if a1 is not None and a2 is not None and M2[0] > 0.0:
        A = 2.0 * max(a1, a2)
        growth = np.exp(A * M1[0] * (times - times[0]))
        denom = A * M1[0] + 2.0 * A * M2[0] * (1.0 - growth)
        mask = denom > 0.0
        riccati = np.full_like(times, np.nan)
        riccati[mask] = A * M1[0] * M2[0] * growth[mask] / denom[mask]
        for tm, m2, bound, ok in zip(times, M2, riccati, mask):
            if ok and m2 > bound * (1.0 + 1e-9):
                violations.append(("second_moment_bound", float(tm)))

    envelope = None
    k1 = spec.declared_bounds.get("K1")
    if k1 is not None:
        n0 = series.N_count[0]
        envelope = np.full_like(times, np.inf)
        pos = times > times[0]
        # discrete-index lower bound constant for the stored eps-scaled kernel
        k1_eff = k1 * epsilon**3
        envelope[pos] = np.sqrt(2.0 * n0 / (k1_eff * (times[pos] - times[0])))
        for tm, y1, env in zip(times[pos], Y1[pos], envelope[pos]):
            if y1 > env * (1.0 + 1e-9):
                violations.append(("mass_decay_envelope", float(tm)))

    return MomentBoundReport(
        number_nonincreasing=number_ok,
        mass_conserved=mass_ok,
        riccati_bound=riccati,
        riccati_checked_mask=mask,
        gelation_envelope=envelope,
        violations=violations,
    )
