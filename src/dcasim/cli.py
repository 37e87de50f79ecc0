"""Command-line front end: simulate, sweep, validate.

Configuration comes from a YAML file plus flag overrides; every experiment
parameter has a documented default (domain [0, 10], epsilon ladder
0.05/0.01/0.005, snapshots at t = 1 and 2.5, M = 3).  Output is CSV with
`#`-prefixed metadata headers; plots are left to external tooling.

Exit codes: 0 success, 2 configuration error, 3 integrator failure,
4 validation failure (a simulated state outside the a-priori bounds).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import yaml

from .exact import CASE_IDS
from .integrator import IntegrationError
from .kernels import KernelSpec, probe_hypotheses
from .output import (ensure_dir, snapshot_filename, write_error_table_csv,
                     write_moments_csv, write_snapshot_csv)
from .runs import (RunConfig, config_metadata, kernel_for_case, run_simulation, run_sweep,
                   sweep_case)
from .state import AprioriBoundError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATOR = 3
EXIT_VALIDATION = 4


# flag -> (RunConfig field it overrides, argparse options)
_FLAGS = {
    "--epsilon": ("epsilon", {"type": float}),
    "--case": ("case", {"choices": CASE_IDS}),
    "--lambda": ("lam", {"type": float}),
    "--out": ("output_dir", {"help": "output directory"}),
    "--rtol": ("rtol", {"type": float}),
    "--atol": ("atol", {"type": float}),
}


# The settings ``validate`` reads; it rejects any other rather than ignore it.
_VALIDATE_READS = {"case", "lam", "kernel"}


class ConfigError(ValueError):
    pass


def _load_config(args, reads=None) -> RunConfig:
    """YAML keys are ``RunConfig`` fields, flags override them, ``RunConfig`` validates.

    ``reads``, when given, names the only fields the command reads; any other
    setting, in the YAML or as a flag, is a configuration error.
    """
    fields = {}
    if args.config:
        try:
            with open(args.config) as fh:
                fields = yaml.safe_load(fh) or {}
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(fields, dict):
            raise ConfigError(f"config {args.config}: top level must be a mapping")
    unknown = set(fields) - {f.name for f in dataclasses.fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(map(str, unknown)))}")

    flags = {flag: name for flag, (name, _) in _FLAGS.items() if getattr(args, name) is not None}
    if reads is not None:
        ignored = sorted(set(fields) - reads) + [
            flag for flag, name in flags.items() if name not in reads]
        if ignored:
            raise ConfigError(f"{args.command} reads only {', '.join(sorted(reads))}; "
                              f"it would ignore {', '.join(ignored)}")
    for name in flags.values():
        fields[name] = getattr(args, name)
    kb = fields.get("kernel")
    if kb is not None:
        try:
            extra = set(kb) - {"K", "L", "C", "C_value", "declared_bounds"}
            if extra:
                raise ValueError(f"unknown keys {', '.join(sorted(map(str, extra)))}")
            fields["kernel"] = KernelSpec(
                family_K=kb.get("K", "constant"),
                K_value=kb.get("L", 1.0),
                family_C=kb.get("C", "constant"),
                C_value=kb.get("C_value", 1.0),
                declared_bounds=dict(kb.get("declared_bounds") or {}),
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"config key 'kernel': {exc}") from exc
    try:
        return RunConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _output_dir(path: str) -> str:
    """Create the output directory; called before any integration starts."""
    try:
        return ensure_dir(path)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    if cfg.epsilon is None:
        raise ConfigError("simulate requires a single epsilon (config key 'epsilon' or --epsilon)")
    out = _output_dir(cfg.output_dir)
    run = run_simulation(cfg)
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
        sweep_case(cfg)
        out = _output_dir(cfg.output_dir)
        result = run_sweep(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    md = config_metadata(cfg, {"epsilon_list": list(cfg.epsilon_list)})
    for t, table in result.tables.items():
        path = os.path.join(out, f"errors_t{t:g}.csv")
        write_error_table_csv(path, table, md, result.failures)
        print(f"wrote {path}")
    for eps, msg in result.failures.items():
        print(f"epsilon={eps} failed: {msg}", file=sys.stderr)
    if result.failures and not result.runs:
        raise IntegrationError(f"all {len(result.failures)} epsilon values failed")
    return EXIT_OK


def cmd_validate(args) -> int:
    """Print the kernel pair's growth conditions CH1 and CH2, and the tag a run would get."""
    cfg = _load_config(args, reads=_VALIDATE_READS)
    probe = probe_hypotheses(kernel_for_case(cfg))
    for name, ok in (("sublinear growth of K (CH1)", probe.ch1_pass),
                     ("uniform bound on C (CH2)", probe.ch2_pass)):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if not (probe.ch1_pass and probe.ch2_pass):
        print("run would be tagged: hypotheses-unverified")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcasim",
                                     description="Condensing-aggregation solver on an epsilon-cell grid")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("sweep", cmd_sweep),
                     ("validate", cmd_validate)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="YAML config file")
        for flag, (name, options) in _FLAGS.items():
            p.add_argument(flag, dest=name, default=None, **options)
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
