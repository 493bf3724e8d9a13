"""Random feature method solver for linear PDEs on simple 1D/2D geometries."""

# rfm.cli is left to its own import, so that ``python -m rfm.cli`` runs the
# module once, as __main__; ``from rfm import cli`` still imports it.
from . import assembly, basis, blas, evaluation, experiments, geometry, problems, solver
from .assembly import assemble
from .basis import FeatureSampler, RfmModel, build_model
from .evaluation import evaluate_error, self_convergence
from .experiments import (
    SUITE_NAMES,
    ExperimentConfig,
    RunRecord,
    load_suite,
    rescale_ablation,
    run_experiment,
    run_table,
)
from .solver import solve_min_norm, solve_system

__version__ = "0.1.0"
__all__ = [
    "assembly",
    "basis",
    "blas",
    "cli",
    "evaluation",
    "experiments",
    "geometry",
    "problems",
    "solver",
    "ExperimentConfig",
    "RunRecord",
    "run_experiment",
    "run_table",
    "rescale_ablation",
    "load_suite",
    "SUITE_NAMES",
    "build_model",
    "FeatureSampler",
    "RfmModel",
    "assemble",
    "solve_system",
    "solve_min_norm",
    "evaluate_error",
    "self_convergence",
]
