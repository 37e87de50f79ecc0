"""Command-line front end: simulate, sweep, validate.

Configuration comes from a YAML file plus flag overrides; every experiment
parameter has a documented default (domain [0, 10], epsilon ladder
0.05/0.01/0.005, snapshots at t = 1 and 2.5, M = 3).  Output is CSV with
`#`-prefixed metadata headers; plots are left to external tooling.

Exit codes: 0 success, 2 configuration error, 3 integrator failure,
4 validation failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np
import yaml

from .integrator import IntegrationError
from .kernels import KernelSpec, discretize, probe_hypotheses
from .grid import build_grid
from .output import (body_of, ensure_dir, snapshot_filename,  # noqa: F401
                     write_error_table_csv, write_moments_csv,
                     write_snapshot_csv)
from .rhs import mass_defect_rate, rhs_vector
from .runs import RunConfig, kernel_for_case, run_simulation, run_sweep
from .state import AprioriBoundError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATOR = 3
EXIT_VALIDATION = 4


class ConfigError(ValueError):
    pass


def _load_config(args) -> RunConfig:
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = yaml.safe_load(fh) or {}
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {args.config}: top level must be a mapping")

    kb = raw.pop("kernel", None)
    kernel = None
    if kb is not None:
        try:
            kernel = KernelSpec(
                family_K=kb.get("K", "constant"),
                K_value=float(kb.get("L", 1.0)),
                lam=None if kb.get("lambda") is None else float(kb["lambda"]),
                family_C=kb.get("C", "constant"),
                C_value=float(kb.get("C_value", 1.0)),
                declared_bounds={k: float(v) for k, v in (kb.get("declared_bounds") or {}).items()},
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key 'kernel': {exc}") from exc

    fields = {}
    for key in ("case", "epsilon", "epsilon_list", "x_max", "t_max",
                "snapshot_times", "M", "lam", "rtol", "atol",
                "negativity_policy", "output_dir", "threads"):
        if key in raw:
            fields[key] = raw.pop(key)
    if raw:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(raw))}")

    # flag overrides
    if args.epsilon is not None:
        fields["epsilon"] = args.epsilon
    if args.case is not None:
        fields["case"] = args.case
    if getattr(args, "lam", None) is not None:
        fields["lam"] = args.lam
    if args.out is not None:
        fields["output_dir"] = args.out
    if args.rtol is not None:
        fields["rtol"] = args.rtol
    if args.atol is not None:
        fields["atol"] = args.atol
    if args.threads is not None:
        fields["threads"] = args.threads

    for key in ("epsilon_list", "snapshot_times"):
        if key in fields:
            fields[key] = tuple(float(v) for v in fields[key])
    fields["kernel"] = kernel
    try:
        return RunConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    if cfg.epsilon is None:
        raise ConfigError("simulate requires a single epsilon (config key 'epsilon' or --epsilon)")
    if cfg.case == "custom":
        raise ConfigError("simulate has no initial profile for case 'custom'; "
                          "initial profiles exist only for case1, case2 and case3")
    run = run_simulation(cfg)
    out = ensure_dir(cfg.output_dir)
    md = run.metadata()
    for st in run.snapshots:
        path = os.path.join(out, snapshot_filename(st.t))
        write_snapshot_csv(path, st, md)
        print(f"wrote {path}")
    moments_path = os.path.join(out, "moments.csv")
    write_moments_csv(moments_path, run.moments, md)
    print(f"wrote {moments_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    try:
        result = run_sweep(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = ensure_dir(cfg.output_dir)
    md = {"case": cfg.case, "epsilon_list": list(cfg.epsilon_list),
          "x_max": cfg.x_max, "rtol": cfg.rtol, "atol": cfg.atol}
    for t, table in result.tables.items():
        path = os.path.join(out, f"errors_t{t:g}.csv")
        write_error_table_csv(path, table, md, result.failures)
        print(f"wrote {path}")
    for eps, msg in result.failures.items():
        print(f"epsilon={eps} failed: {msg}", file=sys.stderr)
    if result.failures and not result.runs:
        raise IntegrationError(f"all {len(result.failures)} epsilon values failed")
    return EXIT_OK


def _naive_rhs_small(c, Kd, Cd):
    # Literal transcription of the per-cell balance, no shared subexpressions;
    # used only as the self-test reference at small m.
    m = len(c)
    out = []
    for i in range(1, m + 1):
        gain_k = 0.0
        if i >= 2:
            for j in range(1, i):
                gain_k += j * Kd[i - 2][j - 1] * c[j - 1]
            gain_k *= c[i - 2]
        loss_k1 = c[i - 1] * sum(j * Kd[i - 1][j - 1] * c[j - 1] for j in range(1, i + 1))
        loss_k2 = c[i - 1] * sum(Kd[i - 1][j - 1] * c[j - 1] for j in range(i, m + 1))
        gain_c = 0.0
        if i >= 2:
            for j in range(i - 1, m + 1):
                gain_c += j * Cd[i - 2][j - 1] * c[j - 1]
            gain_c *= c[i - 2]
        loss_c1 = c[i - 1] * sum(j * Cd[i - 1][j - 1] * c[j - 1] for j in range(i, m + 1))
        loss_c2 = c[i - 1] * sum(Cd[i - 1][j - 1] * c[j - 1] for j in range(1, i + 1))
        out.append(gain_k - loss_k1 - loss_k2 + gain_c - loss_c1 - loss_c2)
    return np.array(out)


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    try:
        spec = cfg.kernel if cfg.kernel is not None else kernel_for_case(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    probe = probe_hypotheses(spec)
    checks = {
        "kernel symmetric (K)": probe.symmetric_K,
        "kernel symmetric (C)": probe.symmetric_C,
        "kernel nonnegative (K)": probe.nonneg_K,
        "kernel nonnegative (C)": probe.nonneg_C,
        "sublinear growth of K (CH1)": probe.ch1_pass,
        "uniform bound on C (CH2)": probe.ch2_pass,
    }

    rng = np.random.default_rng(42)
    rhs_ok, defect_ok = True, True
    for _ in range(50):
        m = int(rng.integers(3, 17))
        grid = build_grid(0.3, x_max=0.3 * (m + 0.5) + 1e-9)
        dk = discretize(spec, grid)
        c = rng.random(dk.grid.m)
        q = rhs_vector(c, dk)
        q_ref = _naive_rhs_small(list(c), dk.Kd.tolist(), dk.Cd.tolist())
        scale = max(1.0, float(np.max(np.abs(q_ref))))
        if float(np.max(np.abs(q - q_ref))) > 1e-13 * scale:
            rhs_ok = False
        i1 = np.arange(1, dk.grid.m + 1)
        lhs = float(i1 @ q)
        d = mass_defect_rate(c, dk)
        if abs(lhs - d) > 1e-12 * (1.0 + abs(lhs)):
            defect_ok = False
    checks["fast RHS matches direct summation"] = rhs_ok
    checks["weighted-sum boundary identity"] = defect_ok

    hard_failures = not (rhs_ok and defect_ok)
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if not (probe.ch1_pass and probe.ch2_pass):
        print("run would be tagged: hypotheses-unverified")
    return EXIT_VALIDATION if hard_failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcasim",
                                     description="Condensing-aggregation solver on an epsilon-cell grid")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("sweep", cmd_sweep),
                     ("validate", cmd_validate)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--case", choices=("case1", "case2", "case3", "custom"), default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--rtol", type=float, default=None)
        p.add_argument("--atol", type=float, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"integrator failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except AprioriBoundError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
