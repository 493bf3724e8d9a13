"""Random feature method solver for linear PDEs on simple 1D/2D geometries.

Submodules are imported lazily so the command-line entry point can pin the
BLAS thread count before any numerical library loads.
"""

_SUBMODULES = (
    "assembly",
    "basis",
    "blas",
    "cli",
    "evaluation",
    "experiments",
    "geometry",
    "problems",
    "solver",
)

_EXPORTS = {
    "ExperimentConfig": "experiments",
    "RunRecord": "experiments",
    "run_experiment": "experiments",
    "run_table": "experiments",
    "rescale_ablation": "experiments",
    "load_suite": "experiments",
    "SUITE_NAMES": "experiments",
    "build_model": "basis",
    "FeatureSampler": "basis",
    "RfmModel": "basis",
    "assemble": "assembly",
    "solve_system": "solver",
    "solve_min_norm": "solver",
    "evaluate_error": "evaluation",
    "self_convergence": "evaluation",
}

__version__ = "0.1.0"
__all__ = list(_SUBMODULES) + list(_EXPORTS)


def __getattr__(name):
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    if name in _EXPORTS:
        module = importlib.import_module("." + _EXPORTS[name], __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
