"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Heavy simulations are shared through session fixtures; every expected value is
either hand-derivable or produced by the independent oracles in oracle.py.
Run with ``pytest -v -s tests/test_acceptance.py`` to see the summary lines.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from dcasim.analysis import estimate_order, moment_diagnostics
from dcasim.exact import ExactCase, exact_solution
from dcasim.grid import build_grid
from dcasim.integrator import IntegratorConfig, integrate
from dcasim.kernels import KernelSpec, discretize
from dcasim.rhs import mass_defect_rate, rhs_vector
from dcasim.runs import RunConfig, run_simulation, run_sweep
from dcasim.state import MomentSeries, moment, project_initial
from dcasim.analysis import rel_l1_error
from dcasim.cli import main as cli_main
from dcasim.output import snapshot_filename

from oracle import (ORACLE_KERNELS, body_of, naive_rhs, random_instance, rk4_reference,
                    small_grid, weak_form_rate)

LADDER = (0.05, 0.01, 0.005)
ORDER_WINDOW = (0.7, 1.5)
# A jump in the initial data caps a monotone first-order scheme at L1 order
# 1/2, and the bound is sharp (Kuznetsov 1976; Tang & Teng, Math. Comp. 64,
# 1995); the window is centred on 1/2 and ends where ORDER_WINDOW begins.
JUMP_ORDER_WINDOW = (0.4, 0.7)
# The closed forms live on (0, inf).  By t = 2.5 the case-1 wave front is at
# 2t = 5 and the case-3 jump at M(1+t) = 10.5; on [0, 20] both ladders keep
# all but ~2e-5 of the initial mass, where x_max = 10 loses up to 7% and 13%.
SWEEP_X_MAX = 20.0
LOST_MASS_MAX = 1e-4


def _report(number: int, ok: bool, detail: str):
    print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def instance_set():
    """1000 seeded random (spec, eps, m, c) instances with m in {2,...,32}."""
    rng = np.random.default_rng(20260824)
    out = []
    for _ in range(1000):
        spec, eps, m, c = random_instance(rng, ORACLE_KERNELS)
        dk = discretize(spec, small_grid(eps, m))
        out.append((spec, eps, m, c, dk))
    return out


@pytest.fixture(scope="session")
def case1_sweep():
    return run_sweep(RunConfig(case="case1", epsilon_list=LADDER,
                               x_max=SWEEP_X_MAX))


@pytest.fixture(scope="session")
def case3_sweep():
    return run_sweep(RunConfig(case="case3", epsilon_list=LADDER,
                               x_max=SWEEP_X_MAX))


@pytest.fixture(scope="session")
def lambda_runs():
    runs = {}
    for lam in (0.0, 0.5, 0.75, 1.0):
        cfg = RunConfig(case="case2", lam=lam, epsilon=0.05)
        runs[lam] = run_simulation(cfg)
    return runs


# ---------------------------------------------------------------- criteria


def test_criterion_01_rhs_matches_naive_oracle(instance_set):
    start = time.monotonic()
    worst = 0.0
    for spec, eps, m, c, dk in instance_set:
        ref = naive_rhs(list(c), spec, eps)
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst = max(worst, float(np.max(np.abs(rhs_vector(c, dk) - ref))) / scale)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-13 and elapsed < 10.0
    _report(1, ok, f"1000 random states, worst relative sup discrepancy "
                   f"{worst:.2e} (<= 1e-13), {elapsed:.1f}s (< 10s)")


def test_criterion_02_mass_defect_identity(instance_set):
    start = time.monotonic()
    worst = 0.0
    for spec, eps, m, c, dk in instance_set:
        q = rhs_vector(c, dk)
        lhs = float(np.arange(1, m + 1) @ q)
        d = mass_defect_rate(c, dk)
        worst = max(worst, abs(lhs - d) / (1.0 + abs(lhs)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(2, ok, f"|sum i*Q_i - defect| worst {worst:.2e} "
                   f"(<= 1e-12), {elapsed:.1f}s (< 10s)")


def test_criterion_03_weak_form_linear_phi_annihilates(instance_set):
    worst = 0.0
    for spec, eps, m, c, dk in instance_set:
        phi = np.arange(1, m + 2, dtype=float)
        rate = weak_form_rate(c, dk, phi)
        # quadratic scale of the double sums the bracket multiplies
        cc = np.outer(c, c)
        scale = max(1.0, float(m * np.sum((dk.Kd + dk.Cd) * cc)))
        worst = max(worst, abs(rate) / scale)
    ok = worst <= 1e-14
    _report(3, ok, f"phi_i = i annihilation, worst scaled residual "
                   f"{worst:.2e} (<= 1e-14)")


def _ladder_check(sweep, times):
    """Per snapshot time: errors, monotonicity and order.  Also the worst share
    of the initial mass that left through x_max in any run of the ladder,
    eps^2 |defect integral| / M1(0); the closed form keeps all of it."""
    results = {}
    for t in times:
        rows = sweep.tables[t]
        errs = [err for _, err in rows]
        decreasing = all(b < a for a, b in zip(errs, errs[1:]))
        order = estimate_order(rows)
        results[t] = (errs, decreasing, order)
    lost = max(run.dk.grid.epsilon ** 2 * abs(run.stats.defect_integrals[-1])
               / moment(run.initial, 1) for run in sweep.runs.values())
    return results, lost


def _convergence_criterion(number, sweep, window, label):
    res, lost = _ladder_check(sweep, (1.0, 2.5))
    parts = []
    ok = lost <= LOST_MASS_MAX
    for t, (errs, decreasing, order) in res.items():
        good = decreasing and window[0] <= order <= window[1]
        ok = ok and good
        parts.append(f"t={t}: E1={['%.4f' % e for e in errs]}, "
                     f"decreasing={decreasing}, order={order:.2f}")
    _report(number, ok, f"{label}; lost mass {lost:.1e} (<= {LOST_MASS_MAX:.0e}), "
                        f"order window {list(window)}; " + "; ".join(parts))


def test_criterion_04_case1_convergence(case1_sweep):
    _convergence_criterion(4, case1_sweep, ORDER_WINDOW,
                           "constant kernels, x*exp(-x) start")


def test_criterion_05_case3_convergence(case3_sweep):
    _convergence_criterion(5, case3_sweep, JUMP_ORDER_WINDOW,
                           "pure forward aggregation, uniform start (jump)")


def test_criterion_06_lambda_family(lambda_runs):
    # lam=1 reproduces the case-1 run on the same domain exactly
    ref = run_simulation(RunConfig(case="case1", epsilon=0.05))
    sup = 0.0
    for a, b in zip(lambda_runs[1.0].snapshots, ref.snapshots):
        sup = max(sup, float(np.max(np.abs(a.c - b.c)) / np.max(np.abs(b.c))))
    same_as_case1 = sup <= 1e-12

    # lam=0 matches an independent build with C identically zero
    spec0 = KernelSpec(family_K="constant", K_value=1.0,
                       family_C="constant", C_value=0.0)
    cfg0 = RunConfig(case="case2", epsilon=0.05, kernel=spec0)
    run0 = run_simulation(cfg0)
    pure_ohs = all(np.array_equal(a.c, b.c) for a, b in
                   zip(run0.snapshots, lambda_runs[0.0].snapshots))

    # intermediate lambdas interpolate monotonically in L1 distance to the
    # lam=1 closed form at t=1
    case = ExactCase("case1")
    dist = {lam: rel_l1_error(run.snapshots[0], case).E1
            for lam, run in lambda_runs.items()}
    between = dist[1.0] < dist[0.75] < dist[0.5] < dist[0.0]

    ok = same_as_case1 and pure_ohs and between
    _report(6, ok, f"lam=1 rel sup {sup:.1e} (<= 1e-12), lam=0 equals C=0 "
                   f"build: {pure_ohs}, E1 by lam {{{', '.join(f'{l}: {d:.3f}' for l, d in sorted(dist.items()))}}} "
                   f"monotone: {between}")


def test_criterion_07_number_decay(case1_sweep, case3_sweep, lambda_runs):
    runs = (list(case1_sweep.runs.values()) + list(case3_sweep.runs.values())
            + list(lambda_runs.values()))
    bad = []
    for run in runs:
        rep = moment_diagnostics(run.moments, run.dk.spec, run.dk.grid.epsilon,
                                 rtol=run.config.rtol)
        if any(kind == "M0_increase" for kind, _ in rep.violations):
            bad.append((run.config.case, run.dk.grid.epsilon))
    ok = not bad
    _report(7, ok, f"M0 nonincreasing on {len(runs)} trajectories"
                   + (f"; violations: {bad}" if bad else ""))


def test_criterion_08_interior_mass_conservation():
    # x_max = 27 keeps the boundary cell empty through t = 2.5 (at the default
    # x_max = 10 the initial profile alone puts ~5e-4 in the boundary cell)
    cfg = RunConfig(case="case1", epsilon=0.01, x_max=27.0,
                    snapshot_times=(0.5, 1.0, 1.5, 2.0, 2.5))
    run = run_simulation(cfg)
    boundary = max(st.c[-1] for st in [run.initial] + run.snapshots)
    m1_0 = moment(run.initial, 1)
    drift = max(abs(moment(st, 1) - m1_0) / m1_0 for st in run.snapshots)
    ok = boundary < 1e-8 and drift <= 1e-6
    _report(8, ok, f"boundary cell max {boundary:.2e} (< 1e-8), "
                   f"relative mass drift {drift:.2e} (<= 1e-6)")


def test_criterion_09_exact_solution_self_checks():
    case1 = ExactCase("case1")
    masses = {}
    for t in (0.0, 1.0, 2.5):
        val, _ = quad(lambda y: y * exact_solution(case1, t, y),
                      2.0 * t, 2.0 * t + 80.0, limit=200)
        masses[t] = val
    # the x*exp(-x) profile carries mass Gamma(3) = 2, constant in time
    mass_ok = all(abs(m - 2.0) <= 1e-8 for m in masses.values())

    case3 = ExactCase("case3")
    counts_ok = True
    for t in (0.0, 1.0, 2.5):
        n, _ = quad(lambda y: exact_solution(case3, t, y),
                    0.0, case3.M * (1.0 + t), limit=200)
        counts_ok = counts_ok and abs(n - 2.0 / (1.0 + t)) <= 1e-8
    ok = mass_ok and counts_ok
    _report(9, ok, f"closed-form mass {{{', '.join(f't={t}: {m:.10f}' for t, m in masses.items())}}} "
                   f"constant at 2 to 1e-8: {mass_ok}; number count 2/(1+t): {counts_ok}")


def test_criterion_10_second_moment_riccati_bound():
    spec = KernelSpec(family_K="product", K_value=1.0,
                      family_C="product", C_value=1.0,
                      declared_bounds={"A1": 1.0, "A2": 1.0})
    eps = 0.02
    grid = build_grid(eps, 10.0)
    dk = discretize(spec, grid)
    st0, _ = project_initial(
        lambda x: np.asarray(x, float) * np.exp(-np.asarray(x, float)), grid)
    A = 2.0 * max(1.0, 1.0)
    m1, m2 = moment(st0, 1), moment(st0, 2)
    t_star = np.log(1.0 + A * m1 / (2.0 * A * m2)) / (A * m1)
    t_end = 0.8 * t_star
    snaps = list(np.linspace(t_end / 8.0, t_end, 8))
    states, stats = integrate(st0, dk, IntegratorConfig(), snaps)
    series = MomentSeries()
    series.append(st0, 0.0)
    for st, d in zip(states, stats.defect_integrals):
        series.append(st, d)
    rep = moment_diagnostics(series, spec, eps)
    breaches = [v for v in rep.violations if v[0] == "second_moment_bound"]
    checked = bool(np.all(rep.riccati_checked_mask))
    ok = checked and not breaches
    margin = float(np.max(np.asarray(series.M2) / rep.riccati_bound))
    _report(10, ok, f"product kernel, t <= {t_end:.4f} (80% of t* = {t_star:.4f}); "
                    f"max M2/bound = {margin:.3f} (< 1), denominator positive "
                    f"throughout: {checked}")


def test_criterion_11_integrator_cross_validation(lambda_runs):
    run = lambda_runs[1.0]        # case-1 dynamics at eps = 0.05
    adaptive = run.snapshots[0].c
    ref = rk4_reference(run.initial.c, run.dk, 1.0, 1e-4)
    rel = float(np.max(np.abs(adaptive - ref)) / np.max(np.abs(ref)))
    ok = rel <= 1e-5
    _report(11, ok, f"adaptive vs fixed-step RK4 (h=1e-4) at t=1: "
                    f"rel sup {rel:.2e} (<= 1e-5)")


def test_criterion_12_determinism(tmp_path):
    import yaml
    cfg = {"case": "case1", "epsilon_list": [0.05, 0.02],
           "snapshot_times": [1.0]}
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    bodies = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", out]) == 0
        bodies.append(body_of(f"{out}/errors_t1.csv"))
    ok = bodies[0] == bodies[1] and len(bodies[0]) > 0
    _report(12, ok, "repeated sweep runs produce byte-identical CSV bodies")
