"""Condensing-aggregation solver on an epsilon-cell grid."""

from .analysis import (ErrorReport, MomentBoundReport, estimate_order, moment_diagnostics,
                       rel_l1_error)
from .exact import ExactCase, exact_solution, has_closed_form, initial_profile
from .grid import Grid, build_grid
from .integrator import IntegrationError, IntegratorConfig, StepStats, integrate
from .kernels import (DiscreteKernel, HypothesisReport, KernelSpec, discretize,
                      probe_hypotheses)
from .rhs import mass_defect_rate, rhs_vector
from .runs import RunConfig, SimulationRun, SweepResult, run_simulation, run_sweep
from .state import DiscreteState, MomentSeries, ProjectionLoss, moment, project_initial

__version__ = "0.1.0"
