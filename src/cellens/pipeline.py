"""End-to-end fit: clean the cells, select by competition, fit robustly."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cellwise import (CorrelationStructure, DdcConfig, ImputationResult,
                       RobustScale, correlation_structure, ddc_impute)
from .data import (real_array, regression_arrays, require_finite,
                   require_matrix)
from .robustfit import EnsembleModel, fit_ensemble_models, predict
from .selection import SelectionConfig, SelectionResult, run_selection


@dataclass
class FitResult:
    """Everything produced by one end-to-end fit."""

    model: EnsembleModel
    selection: SelectionResult
    imputation: ImputationResult
    structure: CorrelationStructure

    def predict(self, Xnew: np.ndarray) -> np.ndarray:
        return predict(self.model, Xnew)

    def selected_union(self) -> set[int]:
        return self.selection.union()


def passthrough_imputation(Z: np.ndarray) -> ImputationResult:
    """An ImputationResult that leaves the data untouched (no cleaning).

    Used by ablations that skip the detection stage; correlations are
    then computed on the raw, possibly contaminated matrix. A ``Z`` that
    is not a real matrix raises :class:`ShapeMismatch`, and a NaN or
    infinite cell :class:`NonFiniteValue` naming its column.
    """
    Z = real_array(Z)
    require_matrix(Z)
    require_finite(Z[:, 0], Z[:, 1:])
    n, C = Z.shape
    return ImputationResult(
        Z_imp=Z.copy(),
        flags=np.zeros((n, C), dtype=bool),
        scales=RobustScale(location=np.zeros(C), scale=np.ones(C)),
    )


def fit_ensemble(y: np.ndarray, X: np.ndarray, cfg: SelectionConfig,
                 ddc: Optional[DdcConfig] = None,
                 impute: bool = True) -> FitResult:
    """Run the full three-stage procedure on raw data.

    Parameters
    ----------
    y, X : response and predictor matrix
    cfg : SelectionConfig
    ddc : DdcConfig, optional
        Detection tuning; defaults apply when omitted.
    impute : bool
        When False the detection stage is skipped and the selection runs
        on correlations of the raw data (ablation mode).

    Raises
    ------
    ShapeMismatch
        Unless ``y`` is a vector (or one column) and ``X`` a matrix (or a
        vector, one predictor) with the same nonzero number of rows.
    NonFiniteValue
        Naming the first column of ``[y, X]`` that holds a NaN or infinite
        cell (0 is ``y``, ``j`` is ``x_j``).
    """
    y, X = regression_arrays(y, X)
    Z = np.column_stack([y, X])
    if impute:
        imp = ddc_impute(Z, ddc)
    else:
        imp = passthrough_imputation(Z)
    structure = correlation_structure(imp)
    selection = run_selection(structure, imp, cfg)
    model = fit_ensemble_models(imp.y_imp, imp.X_imp, selection.sets,
                                intercept=cfg.intercept, seed=cfg.seed)
    return FitResult(model=model, selection=selection, imputation=imp,
                     structure=structure)
