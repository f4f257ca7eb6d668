"""Kernel-based significance testing for covariate subsets in nonparametric
regression, with wild-bootstrap critical values, competitor tests, and a
Monte Carlo experiment harness.

The harness's names (``DgpSpec``, ``run_experiment`` and the rest of
``simulation``) are imported on first access, so importing the package for
one test does not load it."""

import importlib

from .bootstrap import TestConfig, TestResult, decide_scaled, draw_multipliers, run_test
from .data import (
    ColumnKind,
    ColumnSchema,
    DataError,
    Dataset,
    load_dataset,
    save_dataset,
    standardize,
)
from .kernels import Bandwidths, default_bandwidths
from .smoother import SmootherOutput, compute_smoother
from .statistics import CvmEngine, DegenerateStatisticError, StatEngine, fisher_test

__version__ = "0.1.0"

# names that __getattr__ takes from the simulation module on first access
_SIMULATION_NAMES = frozenset({
    "Cell",
    "DgpSpec",
    "ExperimentConfig",
    "ResultTable",
    "TestTemplate",
    "generate",
    "grid_cells",
    "run_experiment",
})


def __getattr__(name: str):
    if name != "simulation" and name not in _SIMULATION_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    simulation = importlib.import_module(".simulation", __name__)
    value = simulation if name == "simulation" else getattr(simulation, name)
    globals()[name] = value  # later look-ups skip this function
    return value


__all__ = [
    "Bandwidths",
    "Cell",
    "ColumnKind",
    "ColumnSchema",
    "CvmEngine",
    "DataError",
    "Dataset",
    "DegenerateStatisticError",
    "DgpSpec",
    "ExperimentConfig",
    "ResultTable",
    "SmootherOutput",
    "StatEngine",
    "TestConfig",
    "TestResult",
    "TestTemplate",
    "compute_smoother",
    "decide_scaled",
    "default_bandwidths",
    "draw_multipliers",
    "fisher_test",
    "generate",
    "grid_cells",
    "load_dataset",
    "run_experiment",
    "run_test",
    "save_dataset",
    "standardize",
]
