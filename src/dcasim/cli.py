"""Command-line front end: simulate, sweep, validate.

Configuration comes from a YAML file plus flag overrides; every experiment
parameter has a documented default (domain [0, 10], epsilon ladder
0.05/0.01/0.005, snapshots at t = 1 and 2.5, M = 3).  Each subcommand reads
some of them: simulate all but epsilon_list, sweep all but epsilon, validate
case, lam and kernel.  Its parser offers only the flags of the settings it
reads, so it refuses any other flag with its own usage line (exit 2).  The
config file's top level is read by ``grid.mapping``: an empty file is no keys,
and a top level that is not a mapping, or a key the subcommand does not read,
is a configuration error (``unknown sweep config keys epsilon; known: …``).
Output is CSV with `#`-prefixed metadata headers; plots are left to external
tooling.

Exit codes: 0 success, 2 configuration error, 3 integrator failure,
4 validation failure (a run's moments failed the verdict of
``moment_diagnostics``).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .analysis import AprioriBoundError
from .exact import CASE_IDS
from .grid import mapping
from .integrator import IntegrationError
from .kernels import KernelSpec, probe_hypotheses
from .output import (snapshot_filename, write_error_table_csv, write_moments_csv,
                     write_snapshot_csv)
from .runs import RunConfig, config_metadata, run_simulation, run_sweep, sweep_case

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


# The ``kernel:`` block's keys and the ``KernelSpec`` fields they set; an absent
# key leaves the field's default.
_KERNEL_KEYS = {"K": "family_K", "L": "K_value", "C": "family_C", "C_value": "C_value",
                "declared_bounds": "declared_bounds"}

# The settings each subcommand reads; its parser offers only their flags, and it
# rejects any other YAML key rather than ignore it.
_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}
_READS = {"simulate": _FIELDS - {"epsilon_list"}, "sweep": _FIELDS - {"epsilon"},
          "validate": {"case", "lam", "kernel"}}


class ConfigError(ValueError):
    pass


def _load_config(args) -> RunConfig:
    """YAML keys are ``RunConfig`` fields, flags override them, ``RunConfig`` validates.

    The file's top level is read by ``grid.mapping``: an empty file is no keys, and
    a top level that is not a mapping, or a key that ``args.command`` does not read
    (``_READS``), is a configuration error, ``unknown <command> config keys …;
    known: …``.  Its parser has no flag for one.  ``RunConfig`` defaults are not given.
    """
    loaded = None
    if args.config:
        import yaml   # only a config file needs it, and it costs tens of ms to import

        try:
            with open(args.config) as fh:
                loaded = yaml.safe_load(fh)
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    reads = _READS[args.command]
    try:
        fields = mapping(f"{args.command} config", loaded, sorted(reads))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    fields.update((name, v) for name, v in vars(args).items() if name in reads and v is not None)
    kb = fields.get("kernel")
    if kb is not None:
        try:
            given = {_KERNEL_KEYS[k]: v for k, v in mapping("kernel", kb, _KERNEL_KEYS).items()}
            fields["kernel"] = KernelSpec(**given)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key 'kernel': {exc}") from exc
    try:
        return RunConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _output_dir(path: str) -> str:
    """Create the output directory; called before any integration starts."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


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
        sweep_case(cfg)     # run_sweep checks it too; here a bad config exits before --out exists
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _output_dir(cfg.output_dir)
    result = run_sweep(cfg)
    md = config_metadata(cfg, {"epsilon_list": list(cfg.epsilon_list)})
    for t, rows in result.tables.items():
        path = os.path.join(out, snapshot_filename(t, kind="errors"))
        write_error_table_csv(path, t, rows, md, result.failures)
        print(f"wrote {path}")
    for eps, msg in result.failures.items():
        print(f"epsilon={eps} failed: {msg}", file=sys.stderr)
    if result.failures and not result.runs:
        raise IntegrationError(f"all {len(result.failures)} epsilon values failed")
    return EXIT_OK


def cmd_validate(args) -> int:
    """Print the kernel pair's growth conditions CH1 and CH2, and the tag a run would get."""
    cfg = _load_config(args)
    probe = probe_hypotheses(cfg.kernel_pair())
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
        for flag, (field, options) in _FLAGS.items():
            if field in _READS[name]:
                p.add_argument(flag, dest=field, default=None, **options)
        p.set_defaults(func=fn, parser=p)
    return parser


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    if unread:
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
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
