"""Programmatic simulation and sweep pipelines shared by the CLI and tests."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .analysis import ConvergenceTable, rel_l1_error
from .exact import ExactCase, has_closed_form, initial_profile
from .grid import build_grid
from .integrator import IntegrationError, IntegratorConfig, StepStats, integrate
from .kernels import DiscreteKernel, KernelSpec, discretize, finite_float, probe_hypotheses
from .state import (AprioriBoundError, DiscreteState, MomentSeries,
                    ProjectionLoss, check_apriori_bounds, project_initial, reconstruct,
                    weighted_initial_norm)

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
    rtol: float = 1e-6
    atol: float = 1e-10
    output_dir: str = "out"

    def __post_init__(self):
        """Build what a run builds from these settings, so a bad one fails here."""
        for name in ("epsilon", "x_max", "M", "lam", "rtol", "atol"):
            if getattr(self, name) is not None:
                setattr(self, name, finite_float(name, getattr(self, name)))
        for name in ("epsilon_list", "snapshot_times"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list of numbers, got {values!r}")
            setattr(self, name, tuple(finite_float(name, v) for v in values))
        if list(self.epsilon_list) != sorted(set(self.epsilon_list), reverse=True):
            raise ValueError("epsilon_list must be strictly decreasing")
        if any(t < 0.0 for t in self.snapshot_times):
            raise ValueError("snapshot times must be nonnegative")
        if self.lam is not None and self.case != "case2":
            raise ValueError(f"lam applies to case 'case2' only; "
                             f"case {self.case!r} runs its own kernel")
        if self.lam is not None and self.kernel is not None:
            raise ValueError("lam sets case 2's C = lam * K, which a kernel block replaces; "
                             "give one or the other")
        bounds = self.kernel.declared_bounds if self.kernel is not None else {}
        unread = sorted(set(bounds) - {"M_cal"})
        if unread:
            raise ValueError(f"declared_bounds {', '.join(unread)} feed only the library's "
                             f"moment_diagnostics, which no run calls; a run reads M_cal only")
        if self.M is not None and self.case != "case3":
            raise ValueError(f"M applies to case 'case3' only; "
                             f"case {self.case!r} starts from x*exp(-x)")
        exact_case_for(self)      # rejects an unknown case before kernel_for_case looks it up
        kernel_for_case(self)
        self.integrator_config()
        for eps in (self.epsilon, *self.epsilon_list):
            if eps is not None:
                build_grid(eps, self.x_max)

    def integrator_config(self) -> IntegratorConfig:
        return IntegratorConfig(rtol=self.rtol, atol=self.atol)


def kernel_for_case(cfg: RunConfig) -> KernelSpec:
    """The kernel block if given, else the case's own pair K = 1, C = lam."""
    if cfg.kernel is not None:
        return cfg.kernel
    lam = {"case1": 1.0, "case2": _case2_lam(cfg), "case3": 0.0}[cfg.case]
    return KernelSpec(C_value=lam)


def exact_case_for(cfg: RunConfig) -> ExactCase:
    """The case's initial profile and closed form; case 3's M is ``ExactCase``'s unless set."""
    lam = _case2_lam(cfg) if cfg.case == "case2" else None
    if cfg.M is None:
        return ExactCase(cfg.case, lam=lam)
    return ExactCase(cfg.case, M=cfg.M, lam=lam)


def _case2_lam(cfg: RunConfig) -> float:
    """Case 2 runs C = lam * K at lam = 1 unless ``lam`` is set."""
    return cfg.lam if cfg.lam is not None else 1.0


def config_metadata(cfg: RunConfig, resolution: dict, kernel: dict | None = None) -> dict:
    """Header lines for the settings a run used, the case parameter included."""
    md = {"case": cfg.case}
    if cfg.case == "case3":
        md["M"] = exact_case_for(cfg).M
    elif cfg.case == "case2" and cfg.kernel is None:
        md["lam"] = _case2_lam(cfg)
    return {**md, **resolution, "x_max": cfg.x_max, **(kernel or {}),
            "rtol": cfg.rtol, "atol": cfg.atol}


@dataclass
class SimulationRun:
    """Everything produced by one single-epsilon integration."""

    config: RunConfig
    epsilon: float
    spec: KernelSpec
    dk: DiscreteKernel
    initial: DiscreteState
    snapshots: list
    moments: MomentSeries
    stats: StepStats
    projection_loss: ProjectionLoss
    initial_norm: float
    hypotheses_verified: bool

    def metadata(self) -> dict:
        # kernel_K, kernel_K_value, kernel_C, kernel_C_value, kernel_declared_bounds
        kernel = {"kernel_" + f.name.removeprefix("family_"): getattr(self.spec, f.name)
                  for f in fields(self.spec)}
        md = config_metadata(self.config, {"epsilon": self.epsilon, "m": self.dk.grid.m}, kernel)
        md.update({
            "projection_dust": self.projection_loss.dust,
            "projection_tail": self.projection_loss.tail,
            "hypotheses": "verified" if self.hypotheses_verified else "hypotheses-unverified",
            **self.stats.metadata(),
        })
        return md


def run_simulation(cfg: RunConfig, epsilon: float | None = None) -> SimulationRun:
    """Project the initial data, integrate, and collect snapshots and moments."""
    eps = epsilon if epsilon is not None else cfg.epsilon
    if eps is None:
        raise ValueError("no epsilon given")
    spec = kernel_for_case(cfg)
    grid = build_grid(eps, cfg.x_max)
    dk = discretize(spec, grid)

    f_in = initial_profile(exact_case_for(cfg))
    state0, loss = project_initial(f_in, grid)
    norm = weighted_initial_norm(f_in, cfg.x_max)

    probe = probe_hypotheses(spec)
    verified = probe.ch1_pass and probe.ch2_pass

    snap_times = sorted(set(cfg.snapshot_times))
    snapshots, stats = integrate(state0, dk, cfg.integrator_config(), snap_times)

    moments = MomentSeries()
    moments.append(state0, 0.0)
    for st, dint in zip(snapshots, stats.defect_integrals):
        check_apriori_bounds(st, norm, slack=100.0 * cfg.rtol)
        moments.append(st, dint)

    return SimulationRun(config=cfg, epsilon=eps, spec=spec, dk=dk,
                         initial=state0, snapshots=snapshots, moments=moments,
                         stats=stats, projection_loss=loss, initial_norm=norm,
                         hypotheses_verified=verified)


@dataclass
class SweepResult:
    tables: dict            # snapshot time -> ConvergenceTable
    runs: dict              # epsilon -> SimulationRun
    failures: dict = field(default_factory=dict)   # epsilon -> message


def sweep_case(cfg: RunConfig) -> ExactCase:
    """The closed-form case a sweep of ``cfg`` measures against; ValueError if none."""
    if len(cfg.epsilon_list) < 2:
        raise ValueError("sweep needs at least 2 epsilon values")
    if not cfg.snapshot_times:
        raise ValueError("sweep needs at least one snapshot time")
    if cfg.kernel is not None:
        raise ValueError("sweep measures against the closed form of the case's own kernels; "
                         "a kernel block replaces them")
    case = exact_case_for(cfg)
    if not has_closed_form(case):
        raise ValueError("sweep requires a case with a closed-form solution")
    return case


def run_sweep(cfg: RunConfig) -> SweepResult:
    """Run the epsilon ladder and tabulate errors against the closed form."""
    case = sweep_case(cfg)
    tables = {t: ConvergenceTable(t=t) for t in sorted(set(cfg.snapshot_times))}
    runs, failures = {}, {}
    for eps in cfg.epsilon_list:
        try:
            run = runs[eps] = run_simulation(cfg, epsilon=eps)
        except (IntegrationError, AprioriBoundError) as exc:  # keep remaining epsilons alive
            failures[eps] = f"{type(exc).__name__}: {exc}"
            continue
        for st in run.snapshots:
            tables[st.t].add(rel_l1_error(reconstruct(st), case, st.t))
    return SweepResult(tables=tables, runs=runs, failures=failures)
