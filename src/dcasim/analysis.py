"""Error measurement, convergence-order estimation, moment diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import ExactCase, breakpoints, exact_solution
from .grid import finite_float, nonnegative, positive
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
    E1: float
    numerator: float
    denominator: float


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
    a bracket's left end returns that end exactly.  Refinement stops at
    ``_ROOT_TOL`` or when no bracket can be halved, whichever comes first.
    """
    while lo.size and np.max(hi - lo) > _ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):   # past 2**19 a float step exceeds _ROOT_TOL
            break
        same = np.sign(diff(mid)) == side
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return lo


def rel_l1_error(state: DiscreteState, case: ExactCase) -> ErrorReport:
    """Relative L1 distance between a state and the reference solution at ``state.t``.

    Both norms are taken over [0, x_max]; the state's step function is zero
    on the dust cell and on the tail beyond the last cell, and those pieces
    contribute to the numerator.  The step function's pieces lie between
    consecutive points of ``grid.cuts()`` merged with the reference
    solution's breakpoints.  The numerator's sub-pieces lie between the cuts
    merged with the sign changes of the difference found between
    ``_PROBES + 1`` equispaced probes per piece, so each Simpson piece
    integrates a smooth, single-signed integrand and the absolute value can
    be taken outside.

    A case without a closed form (case2 with lam < 1) is refused by
    ``exact.breakpoints``, the first reference it reads: ValueError.
    """
    t = state.t
    f = lambda x: exact_solution(case, t, x)
    grid = state.grid
    edges = grid.cuts()
    end = edges[-1]
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
    return ErrorReport(E1=numerator / denominator, numerator=numerator, denominator=denominator)


def estimate_order(rows) -> float:
    """Least-squares slope of log(error) against log(epsilon) over ``(epsilon, E1)`` rows.

    Each row's epsilon is read by ``grid.positive`` (ValueError unless finite,
    real, not a bool and above 0) and its E1 by ``grid.finite_float``; rows with
    ``E1 <= 0`` are left out.  ValueError unless the rows left hold at least two
    distinct epsilon, the fewest a slope needs.
    """
    rows = [(positive("epsilon", e), finite_float("E1", err)) for e, err in rows]
    rows = [(e, err) for e, err in rows if err > 0.0]
    if len({e for e, _ in rows}) < 2:
        raise ValueError("need positive errors at 2 or more distinct epsilon")
    eps, err = np.log(rows).T
    return float(np.polyfit(eps, err, 1)[0])


def moment_diagnostics(series: MomentSeries, spec: KernelSpec, epsilon: float,
                       rtol: float = 1e-6) -> MomentBoundReport:
    """Check the moment identities and declared growth bounds along a run.

    Checks: monotone decay of the particle count M0; constancy of the interior
    mass M1 up to the integrated boundary defect; and the second-moment Riccati
    bound when product-growth constants A1/A2 are declared.  The truncated
    system shows the untruncated one's mass loss as boundary-defect outflow,
    which the M1 check accounts for.  ``epsilon`` is read by ``grid.positive``
    and ``rtol`` by ``grid.nonnegative`` (ValueError unless finite, real, not a
    bool, and above 0 or not below 0).
    """
    epsilon, rtol = positive("epsilon", epsilon), nonnegative("rtol", rtol)
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
