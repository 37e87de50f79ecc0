"""Programmatic simulation and sweep pipelines shared by the CLI and tests."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .analysis import ConvergenceTable, rel_l1_error
from .exact import ExactCase, has_closed_form, initial_profile
from .grid import build_grid
from .integrator import IntegrationError, IntegratorConfig, StepStats, integrate
from .kernels import DiscreteKernel, KernelSpec, discretize, probe_hypotheses
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
    t_max: float = 2.5
    snapshot_times: tuple = DEFAULT_SNAPSHOT_TIMES
    M: float = 3.0
    lam: float | None = None
    kernel: KernelSpec | None = None
    rtol: float = 1e-6
    atol: float = 1e-10
    negativity_policy: str = "clamp_tiny"
    output_dir: str = "out"
    threads: int = 1

    def __post_init__(self):
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if any(not 0.0 < e < 1.0 for e in self.epsilon_list):
            raise ValueError("epsilon_list values must lie in (0, 1)")
        if list(self.epsilon_list) != sorted(self.epsilon_list, reverse=True):
            raise ValueError("epsilon_list must be strictly decreasing")
        if any(t < 0.0 or t > self.t_max for t in self.snapshot_times):
            raise ValueError("snapshot times must lie in [0, t_max]")

    def integrator_config(self) -> IntegratorConfig:
        return IntegratorConfig(rtol=self.rtol, atol=self.atol,
                                negativity_policy=self.negativity_policy)


def kernel_for_case(cfg: RunConfig) -> KernelSpec:
    """Kernel pair implied by the selected test case (or the custom block)."""
    if cfg.case == "case1":
        return KernelSpec(family_K="constant", K_value=1.0, lam=1.0)
    if cfg.case == "case2":
        lam = cfg.lam if cfg.lam is not None else 1.0
        return KernelSpec(family_K="constant", K_value=1.0, lam=lam)
    if cfg.case == "case3":
        return KernelSpec(family_K="constant", K_value=1.0, lam=0.0)
    if cfg.case == "custom":
        if cfg.kernel is None:
            raise ValueError("custom case requires an explicit kernel block")
        return cfg.kernel
    raise ValueError(f"unknown case {cfg.case!r}")


def exact_case_for(cfg: RunConfig) -> ExactCase | None:
    if cfg.case == "custom":
        return None
    lam = cfg.lam if cfg.case == "case2" else None
    return ExactCase(cfg.case, M=cfg.M, lam=lam)


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
        md = {
            "case": self.config.case,
            "epsilon": self.epsilon,
            "m": self.dk.grid.m,
            "x_max": self.config.x_max,
            "kernel_K": self.spec.family_K,
            "kernel_K_value": self.spec.K_value,
            "kernel_lambda": self.spec.lam,
            "kernel_C": None if self.spec.lam is not None else self.spec.family_C,
            "rtol": self.config.rtol,
            "atol": self.config.atol,
            "projection_dust": self.projection_loss.dust,
            "projection_tail": self.projection_loss.tail,
            "hypotheses": "verified" if self.hypotheses_verified else "hypotheses-unverified",
        }
        md.update(self.stats.metadata())
        return md


def run_simulation(cfg: RunConfig, epsilon: float | None = None,
                   spec: KernelSpec | None = None) -> SimulationRun:
    """Project the initial data, integrate, and collect snapshots and moments."""
    eps = epsilon if epsilon is not None else cfg.epsilon
    if eps is None:
        raise ValueError("no epsilon given")
    spec = spec if spec is not None else kernel_for_case(cfg)
    grid = build_grid(eps, cfg.x_max)
    dk = discretize(spec, grid)

    case = exact_case_for(cfg)
    if case is not None:
        f_in = initial_profile(case)
    else:
        raise ValueError("custom runs need a named initial profile; use the case field")
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


def _sweep_one(args):
    cfg, eps = args
    try:
        run = run_simulation(cfg, epsilon=eps)
    except (IntegrationError, AprioriBoundError) as exc:  # keep remaining epsilons alive
        return eps, None, f"{type(exc).__name__}: {exc}"
    return eps, run, None


@dataclass
class SweepResult:
    tables: dict            # snapshot time -> ConvergenceTable
    runs: dict              # epsilon -> SimulationRun
    failures: dict = field(default_factory=dict)   # epsilon -> message


def run_sweep(cfg: RunConfig) -> SweepResult:
    """Run the epsilon ladder and tabulate errors against the closed form."""
    if len(cfg.epsilon_list) < 2:
        raise ValueError("sweep needs at least 2 epsilon values")
    case = exact_case_for(cfg)
    if case is None or not has_closed_form(case):
        raise ValueError("sweep requires a case with a closed-form solution")

    jobs = [(cfg, eps) for eps in cfg.epsilon_list]
    if cfg.threads > 1:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(j) for j in jobs]

    runs, failures = {}, {}
    for eps, run, err in results:
        if err is None:
            runs[eps] = run
        else:
            failures[eps] = err

    tables = {t: ConvergenceTable(t=t) for t in sorted(set(cfg.snapshot_times))}
    for eps in cfg.epsilon_list:
        run = runs.get(eps)
        if run is None:
            continue
        for st in run.snapshots:
            tables[st.t].add(rel_l1_error(reconstruct(st), case, st.t))
    return SweepResult(tables=tables, runs=runs, failures=failures)
