"""Cellwise-robust ensemble variable selection and regression.

The pipeline has three stages: deviating cells in the joint data matrix
are detected and imputed; a correlation-space least-angle engine
proposes candidate predictors for K competing sub-models arbitrated by
cross-validation; and each sub-model's final coefficients come from a
high-breakdown two-stage robust fit. Predictions average the K
sub-models. Simulators for block-correlated designs with cellwise,
casewise, and mixed corruption, plus evaluation metrics and a
config-driven experiment runner, round out the package.

Diagnostics go to the ``cellens`` logger, which has only a
``NullHandler`` until the application configures logging.
"""

import logging

from .cellwise import (CorrelationStructure, DdcConfig, ImputationResult,
                       RobustScale, correlation_structure, ddc_impute,
                       robust_standardize)
from .data import Dataset, GroundTruth, dataset_from_csv, dataset_to_csv
from .errors import (CellensError, DegenerateColumn, EmptyTruth, InvalidConfig,
                     InvariantViolation, NonFiniteValue, NotPositiveDefinite,
                     RankDeficient, SelftestFailed, ShapeMismatch,
                     TooFewColumns, WorkerLost)
from .linalg import ols_fit, pivot_ratios, solve_spd
from .metrics import EvalReport, mspe, selection_scores, timed
from .pipeline import FitResult, fit_ensemble, passthrough_imputation
from .robustfit import (EnsembleModel, RobustFit, fit_ensemble_models, mm_fit,
                        model_from_json, model_to_json, predict, s_scale)
from .rng import make_rng, split_seed
from .selection import (CompetitionRecord, SelectionConfig, SelectionResult,
                        cv_error, fold_assignment, run_selection, trace_to_csv)
from .simulate import (SCENARIOS, ContaminationSpec, SimConfig,
                       block_covariance, contaminate, generate_clean,
                       make_test_set)

logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"

__all__ = [
    "CellensError", "CompetitionRecord", "ContaminationSpec",
    "CorrelationStructure", "Dataset", "DdcConfig", "DegenerateColumn",
    "EmptyTruth", "EnsembleModel", "EvalReport", "FitResult", "GroundTruth",
    "ImputationResult", "InvalidConfig", "InvariantViolation",
    "NonFiniteValue", "NotPositiveDefinite", "RankDeficient", "RobustFit", "RobustScale",
    "SCENARIOS", "SelectionConfig", "SelectionResult", "SelftestFailed",
    "ShapeMismatch",
    "SimConfig", "TooFewColumns", "WorkerLost", "block_covariance", "contaminate",
    "correlation_structure", "cv_error", "dataset_from_csv",
    "dataset_to_csv", "ddc_impute", "fit_ensemble", "fit_ensemble_models",
    "fold_assignment", "generate_clean", "make_rng", "make_test_set",
    "mm_fit", "model_from_json", "model_to_json", "mspe", "ols_fit",
    "passthrough_imputation", "pivot_ratios", "predict", "robust_standardize",
    "run_selection", "s_scale", "selection_scores", "solve_spd",
    "split_seed", "timed", "trace_to_csv",
]
