"""Evaluation metrics and timing instrumentation."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

import numpy as np

from .errors import EmptyTruth, InvalidConfig, ShapeMismatch, is_number

T = TypeVar("T")


@dataclass
class EvalReport:
    """Per-fit evaluation row.

    ``precision`` is None (reported as missing) when nothing was
    selected, so sweep medians are not biased by degenerate fits.
    """

    mspe: float
    recall: float
    precision: Optional[float]
    cpu_seconds: float
    selected_count: int


def mspe(y_true: np.ndarray, y_hat: np.ndarray, noise_var: float = 1.0) -> float:
    """Mean squared prediction error, optionally normalized by noise variance.

    With ``noise_var`` set to the true error variance the optimum is 1.0.

    Raises
    ------
    InvalidConfig
        Unless ``noise_var`` is a finite positive number.
    ShapeMismatch
        If the two arrays differ in shape or hold no value.
    """
    if not is_number(noise_var) or not 0 < noise_var < math.inf:
        raise InvalidConfig(f"noise_var={noise_var!r} must be finite and "
                            f"positive")
    y_true = np.asarray(y_true, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y_true.shape != y_hat.shape:
        raise ShapeMismatch(f"shapes {y_true.shape} and {y_hat.shape} differ")
    if not y_true.size:
        raise ShapeMismatch(f"no values to compare, got shape {y_true.shape}")
    return float(np.mean((y_true - y_hat) ** 2) / noise_var)


def selection_scores(true_active, selected):
    """Recall and precision of a selected index set.

    Returns
    -------
    (recall, precision) : (float, float or None)
        ``precision`` is None when ``selected`` is empty.

    Raises
    ------
    EmptyTruth
        If the true active set is empty.
    """
    true_set = set(int(j) for j in true_active)
    sel_set = set(int(j) for j in selected)
    if not true_set:
        raise EmptyTruth("true active set is empty")
    hit = len(sel_set & true_set)
    recall = hit / len(true_set)
    precision = hit / len(sel_set) if sel_set else None
    return recall, precision


def timed(work: Callable[[], T]) -> tuple[T, float]:
    """Run ``work`` and return (result, wall seconds on the monotonic clock)."""
    t0 = time.perf_counter()
    result = work()
    return result, time.perf_counter() - t0
