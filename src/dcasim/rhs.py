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
``Kd[i,j] = sum_r a_r[i] * b_r[j]`` (``DiscreteKernel``): each sum is then a
combination of prefix sums (suffix sums as ``total - prefix + own term``) of
``b*j*c`` and ``b*c``, two cumulative sums per distinct ``b``, so one
evaluation costs O(m) for every kernel.

When K and C are the same kernel (``DiscreteKernel.tied``) the lower and
upper sums telescope into full rows:

    A_i + G_i = sum_j j * Kd[i,j] * c_j + i * Kd[i,i] * c_i
    W_i + Z_i = sum_j     Kd[i,j] * c_j +     Kd[i,i] * c_i

so each is ``sum_r a_r * (T_r + b_r * v)`` with ``v`` = ``j*c`` or ``c`` and
``T_r`` the column total of ``b_r * v``: one pairwise sum per factor and no
cumulative sum.  Its rounding differs from the prefix-sum form's in the last
bits: against exact rational arithmetic on ``x e^-x`` its L1 error is 0.77-1.00
times theirs (``tests/test_rhs.py`` bounds the ratio by 2).  Every other pair
keeps the prefix-sum path bit for bit.

Both functions run once per Dormand-Prince stage, so their cost per call sets
the cost of a run.  They read the index vector ``1..m``, the last-row K
factors and ``Cd[m,m]`` that ``discretize`` caches, build suffix sums and
factor combinations in place, and reuse ``jc`` and then ``flux`` as scratch
once read; ``rhs_vector`` writes into the integrator's stage buffer when
given ``out``.  The rounding of every entry is that of the allocating forms
kept in ``tests/oracle.py``.  At m = 4999 (eps = 0.002; best of 5 x 500
calls on a 2-core box) ``rhs_vector`` takes about 37-42 us for constant,
46-50 us for product and 71-77 us for sum kernels with K = C (84, 90 and
165 us through prefix sums), and 80-90 us for a constant pair with C != K;
``mass_defect_rate`` takes 5-9 us.  The defect is not yet folded into the
RHS pass, although both read ``j * c``: the benchmark counts and times the
two as separate calls through their ``dcasim.integrator`` bindings.
"""

from __future__ import annotations

import numpy as np

from .kernels import DiscreteKernel


def _combine(factors, sums, out):
    """``out = sum_r a_r * sums[key_r]`` over the separable factors."""
    (a, key), *rest = factors
    np.multiply(a, sums[key], out=out)
    for a, key in rest:
        out += a * sums[key]
    return out


def _tied_combine(dk, v, out):
    """``out = sum_r a_r * (sum(b_r * v) + b_r * v)``: ``A + G`` for ``v = j c``
    and ``W + Z`` for ``v = c`` when K = C (a full row sum plus its own term)."""
    for r, (a, key) in enumerate(dk.K_factors):
        b = dk.columns[key]
        term = out if r == 0 else np.empty_like(v)
        own = v if b is None else np.multiply(b, v, out=term)
        np.add(own, own.sum(), out=term)
        term *= a
        if r:
            out += term
    return out


def rhs_vector(c: np.ndarray, dk: DiscreteKernel, out: np.ndarray | None = None) -> np.ndarray:
    """Time derivative of the concentration vector (no state wrapper).

    ``out``, when given, receives the result; it must not share memory with ``c``.
    """
    Q = np.empty_like(c) if out is None else out
    jc = dk.index * c
    if dk.tied:
        flux = _tied_combine(dk, jc, np.empty_like(c))
        loss = _tied_combine(dk, c, jc)
        flux *= c
        loss *= c
        Q[0] = -flux[0]
        np.subtract(flux[:-1], flux[1:], out=Q[1:])
        Q -= loss
        return Q
    pre_jc, suf_jc, pre_c, suf_c = {}, {}, {}, {}
    for key, b in dk.columns.items():
        bjc, bc = (jc, c) if b is None else (b * jc, b * c)
        for pre, suf, own in ((pre_jc, suf_jc, bjc), (pre_c, suf_c, bc)):
            pre[key] = own.cumsum()
            suf[key] = np.subtract(pre[key][-1], pre[key])
            suf[key] += own
    # A + G and W + Z of the module docstring; jc, then flux, are reused once read
    flux = _combine(dk.K_factors, pre_jc, np.empty_like(c))
    flux += _combine(dk.C_factors, suf_jc, jc)
    flux *= c
    Q[0] = -flux[0]
    np.subtract(flux[:-1], flux[1:], out=Q[1:])
    loss = _combine(dk.K_factors, suf_c, jc)
    loss += _combine(dk.C_factors, pre_c, flux)
    loss *= c
    Q -= loss
    return Q


def mass_defect_rate(c: np.ndarray, dk: DiscreteKernel) -> float:
    """Exact boundary correction to discrete-mass conservation.

    Returns ``D = -(m+1) c_m A_m - m (m+1) Cd[m,m] c_m^2``; the telescoping of
    the weighted sums gives ``sum_i i * Q_i = D`` identically for symmetric
    kernels, so interior mass is conserved exactly whenever the boundary cell
    is empty.
    """
    m = c.size
    if m != dk.grid.m:
        raise ValueError("state and discrete kernel live on different grids")
    # A_m = sum_r a_r[m] * (b_r . jc); a "1" column precedes an "x" one in every
    # family, so jc is scaled by the column in place after its plain sum is read
    jc = dk.index * c
    A_m = None
    for a, key in dk.K_last:
        if dk.columns[key] is not None:
            jc *= dk.columns[key]
        term = a * float(jc.sum())
        A_m = term if A_m is None else A_m + term
    cm = float(c[-1])
    return float(-(m + 1) * cm * A_m - m * (m + 1) * dk.Cd_mm * cm * cm)
