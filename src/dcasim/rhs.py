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
rule) so no outer eps is applied here; a unit test pins this convention.  Every kernel is evaluated through its separable factors
``Kd[i,j] = sum_r a_r[i] * b_r[j]`` (``DiscreteKernel``): each sum is then a
combination of prefix sums (suffix sums as ``total - prefix + own term``) of
``b*j*c`` and ``b*c``, two cumulative sums per distinct ``b``, so one
evaluation costs O(m) for every kernel.
"""

from __future__ import annotations

import numpy as np

from .kernels import DiscreteKernel
from .state import DiscreteState


def _combine(factors, sums):
    """``sum_r a_r * sums[key_r]`` over the separable factors."""
    (a, key), *rest = factors
    out = a * sums[key]
    for a, key in rest:
        out += a * sums[key]
    return out


def rhs_vector(c: np.ndarray, dk: DiscreteKernel) -> np.ndarray:
    """Time derivative of the concentration vector (no state wrapper)."""
    jc = np.arange(1, c.size + 1, dtype=float) * c
    pre_jc, suf_jc, pre_c, suf_c = {}, {}, {}, {}
    for key, b in dk.columns.items():
        bjc, bc = (jc, c) if b is None else (b * jc, b * c)
        pre_jc[key], pre_c[key] = np.cumsum(bjc), np.cumsum(bc)
        suf_jc[key] = pre_jc[key][-1] - pre_jc[key] + bjc
        suf_c[key] = pre_c[key][-1] - pre_c[key] + bc
    # A + G and W + Z of the module docstring
    flux = c * (_combine(dk.K_factors, pre_jc) + _combine(dk.C_factors, suf_jc))
    Q = np.empty_like(c)
    Q[0] = -flux[0]
    Q[1:] = flux[:-1] - flux[1:]
    Q -= c * (_combine(dk.K_factors, suf_c) + _combine(dk.C_factors, pre_c))
    return Q


def eval_rhs(state: DiscreteState, dk: DiscreteKernel) -> np.ndarray:
    """Evaluate the system right-hand side for a state on the same grid."""
    if state.grid is not dk.grid and state.grid != dk.grid:
        raise ValueError("state and discrete kernel live on different grids")
    return rhs_vector(state.c, dk)


def mass_defect_rate(state_or_c, dk: DiscreteKernel) -> float:
    """Exact boundary correction to discrete-mass conservation.

    Returns ``D = -(m+1) c_m A_m - m (m+1) Cd[m,m] c_m^2``; the telescoping of
    the weighted sums gives ``sum_i i * Q_i = D`` identically for symmetric
    kernels, so interior mass is conserved exactly whenever the boundary cell
    is empty.
    """
    c = state_or_c.c if isinstance(state_or_c, DiscreteState) else np.asarray(state_or_c)
    m = c.size
    if m != dk.grid.m:
        raise ValueError("state and discrete kernel live on different grids")
    jc = np.arange(1, m + 1, dtype=float) * c
    # A_m and Cd[m,m] are the last entries of sum_r a_r * (b_r . jc), sum_r a_r * b_r[m]
    col_jc = {key: float(np.sum(jc if b is None else b * jc)) for key, b in dk.columns.items()}
    col_m = {key: 1.0 if b is None else b[-1] for key, b in dk.columns.items()}
    A_m = np.atleast_1d(_combine(dk.K_factors, col_jc))[-1]
    C_mm = np.atleast_1d(_combine(dk.C_factors, col_m))[-1]
    cm = float(c[-1])
    return float(-(m + 1) * cm * A_m - m * (m + 1) * C_mm * cm * cm)


def weak_form_rate(state_or_c, dk: DiscreteKernel, phi: np.ndarray) -> float:
    """Truncated moment-equation right side for a test sequence ``phi``.

    ``phi`` needs ``m + 1`` entries since the forward difference
    ``phi_{i+1} - phi_i`` is taken at the last row.  For ``phi_i = i`` the
    bracket ``j * (phi_{i+1} - phi_i) - phi_j`` vanishes identically.
    """
    c = state_or_c.c if isinstance(state_or_c, DiscreteState) else np.asarray(state_or_c)
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
