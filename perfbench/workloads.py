"""The three benchmark workloads, their work counts and correctness checks.

Inputs are pinned to the paper's cases so the checks can compare against the
closed forms and against values recorded from the seed code
(``reference.json``).  Every call into dcasim goes through a module attribute
(``dcasim.cli.main``, ``dcasim.integrate``, ...) looked up at call time, so
the tracer's rebinding sees it.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import dcasim
import dcasim.cli

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)

SWEEP_CASES = ("case1", "case3")
SIM_EPSILON = 0.002
PRODUCT_EPSILON = 0.02
PRODUCT_SNAPSHOTS = 8
PRODUCT_BOUNDS = {"A1": 1.0, "A2": 1.0}


def empty_work():
    return {"integrator.accepted": 0, "integrator.rejected": 0,
            "integrator.rhs_evals": 0, "rhs.cell_evals": 0,
            "kernels.dense_bytes": 0}


def add_run_work(work, stats, dk):
    """Add one integration's counts as the program itself reports them."""
    work["integrator.accepted"] += stats.accepted
    work["integrator.rejected"] += stats.rejected
    work["integrator.rhs_evals"] += stats.rhs_evals
    # every RHS evaluation of a run is over all m cells of its grid
    work["rhs.cell_evals"] += stats.rhs_evals * dk.grid.m
    work["kernels.dense_bytes"] += dk.Kd.nbytes + dk.Cd.nbytes


class _CliCapture:
    """Collect work counts from the run objects the CLI builds.

    Wraps ``dcasim.cli.run_sweep`` / ``dcasim.cli.run_simulation`` once per
    workload call; the counts are read at once and the run objects are not
    kept, so holding them cannot raise the peak memory.
    """

    def __init__(self, attr, runs_of):
        self.attr, self.runs_of = attr, runs_of
        self.work = empty_work()

    def __enter__(self):
        inner = self.original = getattr(dcasim.cli, self.attr)

        def capture(*args, **kwargs):
            result = inner(*args, **kwargs)
            for run in self.runs_of(result):
                add_run_work(self.work, run.stats, run.dk)
            return result

        setattr(dcasim.cli, self.attr, capture)
        return self

    def __exit__(self, *exc):
        setattr(dcasim.cli, self.attr, self.original)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _read_body(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


# ---------------------------------------------------------------- sweep-ladders

def run_sweep_ladders(out):
    """``dcasim sweep`` on case1 then case3, default ladder and snapshots."""
    codes = []
    with _CliCapture("run_sweep", lambda res: res.runs.values()) as cap:
        for case in SWEEP_CASES:
            codes.append(dcasim.cli.main(["sweep", "--case", case,
                                          "--out", os.path.join(out, case)]))
    return {"exit_codes": codes}, cap.work


def check_sweep_ladders(out, result):
    checks = [("exit codes 0", result["exit_codes"] == [0, 0], str(result["exit_codes"]))]
    for case in SWEEP_CASES:
        for t, ref in REFERENCE["sweep-ladders"][case].items():
            rows = _read_body(os.path.join(out, case, f"errors_t{float(t):g}.csv"))
            got = [float(r["E1"]) for r in rows]
            worst = max((_rel(g, r) for g, r in zip(got, ref)), default=math.inf)
            ok = len(got) == len(ref) and worst <= 1e-8
            checks.append((f"{case} E1 at t={t} matches seed (<=1e-8 rel)", ok,
                           f"E1={got}, worst rel={worst:.2e}"))
    return checks


# ---------------------------------------------------------------- simulate-fine

def run_simulate_fine(out):
    """``dcasim simulate`` of case1 at eps = 0.002 (m = 4999)."""
    with _CliCapture("run_simulation", lambda run: [run]) as cap:
        code = dcasim.cli.main(["simulate", "--case", "case1",
                                "--epsilon", repr(SIM_EPSILON), "--out", out])
    return {"exit_code": code}, cap.work


def check_simulate_fine(out, result):
    ref = REFERENCE["simulate-fine"]
    checks = [("exit code 0", result["exit_code"] == 0, str(result["exit_code"]))]
    rows = _read_body(os.path.join(out, "moments.csv"))
    col = {k: np.array([float(r[k]) for r in rows]) for k in rows[0]} if rows else {}
    if not col:
        return checks + [("moments.csv has rows", False, "empty")]
    resid = float(np.max(np.abs(col["M1"] - col["M1"][0]
                                - SIM_EPSILON ** 2 * col["mass_defect_integral"])))
    checks.append(("conservation residual <= 1e-12", resid <= 1e-12, f"{resid:.3e}"))
    for key in ("M0", "M1", "M2"):
        got = col[key].tolist()
        worst = max((_rel(g, r) for g, r in zip(got, ref[key])), default=math.inf)
        ok = len(got) == len(ref[key]) and worst <= 1e-9
        checks.append((f"{key} matches seed (<=1e-9 rel)", ok, f"worst rel={worst:.2e}"))
    for t in ref["snapshot_times"]:
        path = os.path.join(out, f"snapshot_t{t:g}.csv")
        n = len(_read_body(path)) if os.path.exists(path) else -1
        checks.append((f"snapshot t={t:g} has {ref['m']} rows", n == ref["m"], str(n)))
    return checks


# -------------------------------------------------------------- product-riccati

def run_product_riccati(out):
    """Criterion-10 set-up through the library: product K and C."""
    spec = dcasim.KernelSpec(family_K="product", family_C="product",
                             declared_bounds=dict(PRODUCT_BOUNDS))
    grid = dcasim.build_grid(PRODUCT_EPSILON, 10.0)
    dk = dcasim.discretize(spec, grid)
    st0, _ = dcasim.project_initial(dcasim.initial_profile(dcasim.ExactCase("case1")), grid)
    A = 2.0 * max(PRODUCT_BOUNDS.values())
    m1, m2 = dcasim.moment(st0, 1), dcasim.moment(st0, 2)
    t_star = math.log(1.0 + A * m1 / (2.0 * A * m2)) / (A * m1)
    t_end = 0.8 * t_star
    snaps = list(np.linspace(t_end / PRODUCT_SNAPSHOTS, t_end, PRODUCT_SNAPSHOTS))
    states, stats = dcasim.integrate(st0, dk, dcasim.IntegratorConfig(), snaps)
    series = dcasim.MomentSeries()
    series.append(st0, 0.0)
    for st, d in zip(states, stats.defect_integrals):
        series.append(st, d)
    report = dcasim.moment_diagnostics(series, spec, PRODUCT_EPSILON)
    work = empty_work()
    add_run_work(work, stats, dk)
    return {"violations": [v[0] for v in report.violations],
            "checked": [bool(v) for v in report.riccati_checked_mask],
            "M2_end": float(series.M2[-1])}, work


def check_product_riccati(out, result):
    ref = REFERENCE["product-riccati"]["M2_end"]
    rel = _rel(result["M2_end"], ref)
    return [
        ("no second_moment_bound violation",
         "second_moment_bound" not in result["violations"], str(result["violations"])),
        ("Riccati denominator positive throughout",
         len(result["checked"]) == PRODUCT_SNAPSHOTS + 1 and all(result["checked"]),
         str(result["checked"])),
        ("M2 at t_end matches seed (<=1e-9 rel)", rel <= 1e-9,
         f"M2={result['M2_end']!r}, rel={rel:.2e}"),
    ]


WORKLOADS = {
    "sweep-ladders": (run_sweep_ladders, check_sweep_ladders),
    "simulate-fine": (run_simulate_fine, check_simulate_fine),
    "product-riccati": (run_product_riccati, check_product_riccati),
}
