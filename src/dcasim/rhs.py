"""Right-hand side of the truncated aggregation system and its functionals.

Row i of the system (1-based, ``c_0 = 0``) reads

    dc_i/dt = c_{i-1} * A_{i-1} - c_i * A_i - c_i * W_i
            + c_{i-1} * G_{i-1} - c_i * G_i - c_i * Z_i

with the four per-row sums

    A_i = sum_{j<=i} j * Kd[i,j] * c_j      (growth by absorbing smaller)
    W_i = sum_{j>=i}     Kd[i,j] * c_j      (depletion by larger partners)
    G_i = sum_{j>=i} j * Cd[i,j] * c_j      (inverse-aggregation growth)
    Z_i = sum_{j<=i}     Cd[i,j] * c_j      (depletion by smaller partners)

The matrices carry the factor eps (``Kd = eps * K(eps i, eps j)``, the point
rule) so no outer eps is applied here; a unit test pins this convention.
Every kernel is evaluated through its separable factors
``Kd[i,j] = sum_r a_r[i] * b_r[j]`` (``DiscreteKernel``), so ``A + G`` (over
``v = j*c``) and ``W + Z`` (over ``v = c``) are sums of terms ``a_r * S_r``,
``S_r`` one of three kinds of sum of ``b_r * v`` over the row i:

    prefix   sum_{j<=i} b_r[j] * v_j             (a cumulative sum)
    suffix   sum_{j>=i} b_r[j] * v_j             (total - prefix + own term)
    row      sum_j b_r[j] * v_j + b_r[i] * v_i   (column total + own term)

K's terms read prefix sums in ``A + G`` and suffix sums in ``W + Z``, C's the
reverse.  When K and C are the same kernel the lower and upper sums telescope
into full rows, ``A_i + G_i = sum_j j * Kd[i,j] * c_j + i * Kd[i,i] * c_i``
and ``W_i + Z_i = sum_j Kd[i,j] * c_j + Kd[i,i] * c_i``, so the two kernels
merge into row terms: one pairwise sum per factor and no cumulative sum.  A
kernel of value 0 has no terms.  ``discretize`` writes this plan once per pair
into ``DiscreteKernel.sums``, one group of terms per kernel (K's first) or one
merged group; ``rhs_vector`` runs every pair through it, taking each sum once
per call (a suffix reuses the prefix of its ``b_r``), so one evaluation costs
O(m) for every kernel.  Row sums round differently from prefix sums in the
last bits: against exact rational arithmetic on ``x e^-x`` their L1 error is
0.77-1.00 times that of prefix sums (``tests/test_rhs.py`` bounds it by 2).

``rhs_vector`` runs once per Dormand-Prince stage, so its cost per call sets
the cost of a run.  It reads the index vector ``1..m`` that ``discretize``
caches, scales each fresh sum in place, and writes into the integrator's stage
buffer when given ``out``.  Given ``defect``, the same pass also yields the
boundary defect rate ``D = -(m+1) * flux_m``, ``flux_m = c_m * (A_m + G_m)``
the outflow it applies through the last face, the flux row m would pass to a
cell m + 1 (Filbet & Laurencot read this outflow as gelation).  This pass is
the only place D is computed: ``mass_defect_rate`` runs it, and the
integrator reads D off its stage calls.  The rounding of every entry is that
of the allocating forms kept in ``tests/oracle.py``.  At m = 4999
(eps = 0.002; best of 20 x 300 calls on a 2-core box) ``rhs_vector`` takes
about 25, 30 and 45 us for constant, product and sum kernels with K = C,
52 us for case 3's C = 0, 63 us for a constant pair with C != K and
100-120 us for mixed families.
"""

from __future__ import annotations

import numpy as np

from .kernels import DiscreteKernel


def _combine(groups, v, columns):
    """The plan's sum over ``v`` as a new array, zero for no group: the terms
    ``a_r * S_r`` of each group added in order, then the groups in order."""
    total, prefixes = None, {}   # key -> (own term b * v, its prefix sum)
    for group in groups:
        acc = None
        for a, key, kind in group:
            if kind == "row" or key not in prefixes:
                b = columns[key]
                own = v if b is None else b * v
            if kind == "row":   # in place unless own is v itself
                term = np.add(own, own.sum(), out=None if b is None else own)
                term *= a
            else:
                if key not in prefixes:
                    prefixes[key] = own, own.cumsum()
                own, pre = prefixes[key]
                if kind == "prefix":   # scaled into a copy: a suffix may read pre later
                    term = a * pre
                else:
                    term = np.subtract(pre[-1], pre)
                    term += own
                    term *= a
            acc = term if acc is None else np.add(acc, term, out=acc)
        total = acc if total is None else np.add(total, acc, out=total)
    return np.zeros_like(v) if total is None else total


def rhs_vector(c: np.ndarray, dk: DiscreteKernel, out: np.ndarray | None = None,
               defect: np.ndarray | None = None) -> np.ndarray:
    """Time derivative of the concentration vector (no state wrapper).

    ``out``, when given, receives the result; it must not share memory with ``c``.
    ``defect``, when given, is a one-entry array that receives the boundary
    defect rate D (see ``mass_defect_rate``), read off the same pass.
    """
    Q = np.empty_like(c) if out is None else out
    AG, WZ = dk.sums
    flux = _combine(AG, dk.index * c, dk.columns)   # A + G and W + Z of the module docstring
    flux *= c
    if defect is not None:   # the outflow through the last face
        defect[0] = -(c.size + 1) * flux[-1]
    Q[0] = -flux[0]
    np.subtract(flux[:-1], flux[1:], out=Q[1:])
    loss = _combine(WZ, c, dk.columns)
    loss *= c
    Q -= loss
    return Q


def mass_defect_rate(c: np.ndarray, dk: DiscreteKernel) -> float:
    """Exact boundary correction to discrete-mass conservation.

    Returns ``D = -(m+1) c_m (A_m + G_m)``, the outflow through the last face
    (``G_m = m Cd[m,m] c_m``); the telescoping of the weighted sums gives
    ``sum_i i * Q_i = D`` identically for symmetric kernels, so interior mass
    is conserved exactly whenever the boundary cell is empty.  It is the D
    that ``rhs_vector(c, dk, defect=...)`` writes.
    """
    if c.size != dk.grid.m:
        raise ValueError("state and discrete kernel live on different grids")
    defect = np.empty(1)
    rhs_vector(c, dk, defect=defect)
    return float(defect[0])

