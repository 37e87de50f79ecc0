"""Programmatic simulation and sweep pipelines shared by the CLI and tests."""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .analysis import AprioriBoundError, MomentBoundReport, moment_diagnostics, rel_l1_error
from .exact import ExactCase, initial_profile
from .grid import build_grid, finite_float, nonnegative, positive
from .integrator import IntegrationError, IntegratorConfig, StepStats, integrate
from .kernels import DiscreteKernel, KernelSpec, discretize, probe_hypotheses
from .output import snapshot_filename
from .state import DiscreteState, MomentSeries, ProjectionLoss, project_initial

DEFAULT_EPSILON_LADDER = (0.05, 0.01, 0.005)
DEFAULT_SNAPSHOT_TIMES = (1.0, 2.5)


@dataclass
class RunConfig:
    case: str = "case1"
    epsilon: float | None = None
    epsilon_list: tuple = DEFAULT_EPSILON_LADDER
    x_max: float = 10.0
    snapshot_times: tuple = DEFAULT_SNAPSHOT_TIMES
    M: float | None = None
    lam: float | None = None
    kernel: KernelSpec | None = None
    rtol: float = IntegratorConfig.rtol
    atol: float = IntegratorConfig.atol
    output_dir: str = "out"

    def __post_init__(self):
        """Build what a run builds from these settings, so a bad one fails here."""
        # x_max, rtol and atol as floats for the headers (build_grid reads epsilon);
        # the tolerances as the IntegratorConfig of the run reads them
        self.x_max = finite_float("x_max", self.x_max)
        self.rtol, self.atol = astuple(self.integrator_config())
        for name, read in (("epsilon_list", positive), ("snapshot_times", nonnegative)):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list of numbers, got {values!r}")
            setattr(self, name, tuple(read(name, v) for v in values))
        if list(self.epsilon_list) != sorted(set(self.epsilon_list), reverse=True):
            raise ValueError("epsilon_list must be strictly decreasing")
        self.snapshot_times = tuple(sorted(set(self.snapshot_times)))
        for a, b in zip(self.snapshot_times, self.snapshot_times[1:]):   # sorted: clashes adjoin
            if snapshot_filename(a) == snapshot_filename(b):
                raise ValueError(f"snapshot times {a!r} and {b!r} share {snapshot_filename(a)}")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a path, got {self.output_dir!r}")
        if self.lam is not None and self.kernel is not None:
            raise ValueError("lam sets case 2's C = lam * K, which a kernel block replaces; "
                             "give one or the other")
        if self.kernel is not None and self.kernel.declared_bounds:
            raise ValueError(f"declared_bounds {', '.join(sorted(self.kernel.declared_bounds))} "
                             f"are read by no run: a run reads A1 and A2 off the kernel registry")
        self.exact_case()
        for eps in self.epsilon_list if self.epsilon is None else (self.epsilon,):
            build_grid(eps, self.x_max)   # the grids a run of these settings builds

    def integrator_config(self) -> IntegratorConfig:
        return IntegratorConfig(rtol=self.rtol, atol=self.atol)

    def exact_case(self) -> ExactCase:
        """The case, with its parameter (``M`` or ``lam``) or that parameter's default."""
        return ExactCase(self.case, M=self.M, lam=self.lam)

    def kernel_pair(self) -> KernelSpec:
        """The kernel block if given, else the case's own pair."""
        return self.kernel or self.exact_case().kernel()


def config_metadata(cfg: RunConfig, resolution: dict, kernel: dict | None = None) -> dict:
    """Header lines for the settings a run used, the case parameter included."""
    case = cfg.exact_case()
    # case 3's M, or case 2's lam unless a kernel block replaces its C = lam * K
    param = {"M": case.M, "lam": None if cfg.kernel else case.lam}
    return {"case": case.id, **{k: v for k, v in param.items() if v is not None},
            **resolution, "x_max": cfg.x_max, **(kernel or {}), "rtol": cfg.rtol, "atol": cfg.atol}


@dataclass
class SimulationRun:
    """Everything produced by one single-epsilon integration."""

    config: RunConfig
    dk: DiscreteKernel      # its grid's epsilon and its spec are the run's
    initial: DiscreteState
    snapshots: list
    moments: MomentSeries
    stats: StepStats
    projection_loss: ProjectionLoss
    diagnostics: MomentBoundReport   # the moments' verdict, which found no violation

    def metadata(self) -> dict:
        # kernel_K, kernel_K_value, kernel_C, kernel_C_value, kernel_declared_bounds
        spec, grid = self.dk.spec, self.dk.grid
        kernel = {"kernel_" + f.name.removeprefix("family_"): getattr(spec, f.name)
                  for f in fields(spec)}
        md = config_metadata(self.config, {"epsilon": grid.epsilon, "m": grid.m}, kernel)
        probe = probe_hypotheses(spec)
        md.update({
            "projection_dust": self.projection_loss.dust,
            "projection_tail": self.projection_loss.tail,
            "hypotheses": "verified" if probe.ch1_pass and probe.ch2_pass
                          else "hypotheses-unverified",
            # only when the verdict checked the Riccati bound: both growth constants, M2(0) > 0
            **({} if self.diagnostics.riccati_horizon is None
               else {"riccati_horizon": self.diagnostics.riccati_horizon}),
            **{f.name: getattr(self.stats, f.name) for f in fields(self.stats)
               if f.name != "defect_integrals"},
        })
        return md


def run_simulation(cfg: RunConfig) -> SimulationRun:
    """Project the initial data, integrate at ``cfg.epsilon``, collect snapshots and
    moments, and check the moments once with ``moment_diagnostics`` at ``cfg.rtol``:
    ``AprioriBoundError`` naming each violation's kind and time if it finds any.
    ``build_grid`` rejects an unset ``cfg.epsilon``."""
    grid = build_grid(cfg.epsilon, cfg.x_max)
    dk = discretize(cfg.kernel_pair(), grid)
    state0, loss = project_initial(initial_profile(cfg.exact_case()), grid)
    snapshots, stats = integrate(state0, dk, cfg.integrator_config(), cfg.snapshot_times)

    moments = MomentSeries()
    for st, dint in zip((state0, *snapshots), (0.0, *stats.defect_integrals)):
        moments.append(st, dint)
    report = moment_diagnostics(moments, dk.spec, grid.epsilon, rtol=cfg.rtol)
    if report.violations:
        raise AprioriBoundError("moment verdict failed: " + ", ".join(
            f"{kind} at t={t}" for kind, t in report.violations))

    return SimulationRun(config=cfg, dk=dk, initial=state0, snapshots=snapshots, moments=moments,
                         stats=stats, projection_loss=loss, diagnostics=report)


@dataclass
class SweepResult:
    tables: dict            # snapshot time -> (epsilon, E1) rows
    runs: dict              # epsilon -> SimulationRun
    failures: dict = field(default_factory=dict)   # epsilon -> message


def sweep_case(cfg: RunConfig) -> ExactCase:
    """The closed-form case a sweep of ``cfg`` measures against; ValueError if none."""
    if cfg.epsilon is not None:   # RunConfig checked the ladder's grids only without it
        raise ValueError("sweep runs each entry of epsilon_list; epsilon sets a single run")
    if len(cfg.epsilon_list) < 2:
        raise ValueError("sweep needs at least 2 epsilon values")
    if not cfg.snapshot_times:
        raise ValueError("sweep needs at least one snapshot time")
    if cfg.kernel is not None:
        raise ValueError("sweep measures against the closed form of the case's own kernels; "
                         "a kernel block replaces them")
    case = cfg.exact_case()
    # rel_l1_error raises when the case has no closed form, or it has no mass on [0, x_max]
    grid = build_grid(cfg.epsilon_list[0], cfg.x_max)
    for t in cfg.snapshot_times:
        rel_l1_error(DiscreteState(grid, np.zeros(grid.m), t), case)
    return case


def run_sweep(cfg: RunConfig) -> SweepResult:
    """Run the epsilon ladder and tabulate errors against the closed form of ``cfg``'s case."""
    case = sweep_case(cfg)
    tables = {t: [] for t in cfg.snapshot_times}
    runs, failures = {}, {}
    for eps in cfg.epsilon_list:
        try:
            run = runs[eps] = run_simulation(replace(cfg, epsilon=eps))
        except (IntegrationError, AprioriBoundError) as exc:  # keep remaining epsilons alive
            failures[eps] = f"{type(exc).__name__}: {exc}"
            continue
        for st in run.snapshots:
            tables[st.t].append((eps, rel_l1_error(st, case).E1))
    return SweepResult(tables=tables, runs=runs, failures=failures)
