"""Kernel-based significance testing for covariate subsets in nonparametric
regression, with wild-bootstrap critical values, competitor tests, and a
Monte Carlo experiment harness."""

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
from .simulation import (
    Cell,
    DgpSpec,
    ExperimentConfig,
    ResultTable,
    TestTemplate,
    generate,
    grid_cells,
    run_experiment,
)
from .smoother import SmootherOutput, compute_smoother
from .statistics import CvmEngine, DegenerateStatisticError, StatEngine, fisher_test

__version__ = "0.1.0"

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
