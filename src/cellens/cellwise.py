"""Cellwise outlier detection, imputation, and the correlation structure.

The cleaning step works on the joint matrix ``Z = [y, X]`` (response in
column 0) and runs in three phases per column:

1. robust standardization by column median and 1.4826 * MAD;
2. prediction of each standardized cell from the column's most
   correlated partner columns, using robust slopes (medians of ratios)
   combined by correlation-weighted averaging;
3. flagging of cells whose standardized residual exceeds a fixed cutoff,
   and replacement of flagged cells by the destandardized prediction.

Each phase commutes with per-column affine maps ``c*x + a`` (standard
scores flip sign with ``c``, slopes flip with the product of signs, and
destandardization restores the transform), so the imputation is
per-column affine equivariant and commutes with column permutations.

Correlations feeding the downstream selection engine are plain sample
correlations of the imputed matrix, which keeps the predictor matrix
positive semi-definite by construction.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateColumn, InvalidConfig, TooFewColumns,
                     require_integers)
from .linalg import prepare_design

# abs standardized residual above which a cell is flagged; equals the
# 99.5% standard normal quantile, i.e. sqrt of the chi-square(1) 0.99 point
FLAG_CUTOFF = 2.5758293035489004

# partner-correlation products (n * C**2) from which the pairs run on every
# available CPU, and products per task block, which bounds each thread's
# buffers (see robust_partner_correlations)
PARTNER_PARALLEL_PRODUCTS = 2**24
PARTNER_BLOCK_PRODUCTS = 2**15


@dataclass(frozen=True)
class DdcConfig:
    """Tuning constants for cell detection.

    k_neighbors : most-correlated partner columns used per target column
    min_abs_corr : partners below this robust correlation are ignored
    trim : fraction of largest products trimmed in the robust correlation
    ratio_floor : rows with |partner z-score| at or below this are skipped
        when estimating the median-of-ratios slope
    flag_cutoff : standardized-residual flag threshold
    """

    k_neighbors: int = 15
    min_abs_corr: float = 0.5
    trim: float = 0.10
    ratio_floor: float = 0.1
    flag_cutoff: float = FLAG_CUTOFF

    def validate(self) -> None:
        """Raise InvalidConfig naming the first out-of-range field.

        Written as positive range tests so that NaN fails every one.
        """
        if not 0 <= self.trim < 1:
            raise InvalidConfig(f"trim={self.trim} outside [0, 1)")
        require_integers(self, ("k_neighbors",))
        if not self.k_neighbors >= 1:
            raise InvalidConfig(f"k_neighbors={self.k_neighbors} must be >= 1")
        if not 0 <= self.min_abs_corr <= 1:
            raise InvalidConfig(
                f"min_abs_corr={self.min_abs_corr} outside [0, 1]")
        if not self.ratio_floor >= 0:
            raise InvalidConfig(f"ratio_floor={self.ratio_floor} must be >= 0")
        if not self.flag_cutoff > 0:
            raise InvalidConfig(
                f"flag_cutoff={self.flag_cutoff} must be positive")


@dataclass
class RobustScale:
    """Per-column robust location and scale (median, 1.4826 * MAD)."""

    location: np.ndarray
    scale: np.ndarray


@dataclass
class ImputationResult:
    """Cleaned joint matrix with provenance.

    Z_imp : ndarray of shape (n, p+1)
        Imputed joint matrix, response in column 0. Unflagged cells are
        bit-identical to the input.
    flags : ndarray of shape (n, p+1), bool
        True where a cell was replaced.
    scales : RobustScale
        Standardization used during detection.
    marginal : ndarray of shape (p+1,), bool
        True for a column that had no usable partner and so fell back to
        marginal detection. All False when omitted.
    """

    Z_imp: np.ndarray
    flags: np.ndarray
    scales: RobustScale
    marginal: np.ndarray | None = None

    def __post_init__(self):
        if self.marginal is None:
            self.marginal = np.zeros(self.Z_imp.shape[1], dtype=bool)

    @property
    def y_imp(self) -> np.ndarray:
        return self.Z_imp[:, 0]

    @property
    def X_imp(self) -> np.ndarray:
        return self.Z_imp[:, 1:]


@dataclass
class CorrelationStructure:
    """Predictor correlation matrix and predictor-response correlations."""

    R_X: np.ndarray
    r_y: np.ndarray

    def validate(self, atol: float = 1e-8) -> None:
        R, r = self.R_X, self.r_y
        if not np.allclose(R, R.T, atol=atol):
            raise ValueError("R_X is not symmetric within tolerance")
        if not np.allclose(np.diag(R), 1.0, atol=atol):
            raise ValueError("R_X diagonal is not 1 within tolerance")
        if np.max(np.abs(R)) > 1 + atol or np.max(np.abs(r)) > 1 + atol:
            raise ValueError("correlation entries exceed 1 in magnitude")


def robust_standardize(Z: np.ndarray):
    """Center by column medians and scale by 1.4826 * MAD.

    Returns
    -------
    (Zstd, scales) : (ndarray, RobustScale)

    Raises
    ------
    DegenerateColumn
        For any column with zero MAD (constant or near-constant).
    """
    Z = np.asarray(Z, dtype=float)
    med = np.median(Z, axis=0)
    mad = np.median(np.abs(Z - med), axis=0)
    bad = np.flatnonzero(mad <= 0)
    if bad.size:
        raise DegenerateColumn(int(bad[0]))
    scale = 1.4826 * mad
    return (Z - med) / scale, RobustScale(location=med, scale=scale)


def _trimmed_second_moments(Zs: np.ndarray, trim: float) -> np.ndarray:
    """Per-column mean of squared scores after trimming the largest squares."""
    n = Zs.shape[0]
    keep = n - int(np.floor(trim * n))
    sq = Zs**2
    thr = np.partition(sq, keep - 1, axis=0)[keep - 1]
    mask = sq <= thr
    return (sq * mask).sum(axis=0) / mask.sum(axis=0)


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _partner_workers(n: int, C: int) -> int:
    """Threads for the partner loop of an ``(n, C)`` input.

    One below ``PARTNER_PARALLEL_PRODUCTS`` products, where starting
    threads costs more than it saves, and in a ``multiprocessing`` child,
    whose parent's pool already fills the CPUs; otherwise every available
    CPU.
    """
    if n * C * C < PARTNER_PARALLEL_PRODUCTS:
        return 1
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return 1
    return _available_cpus()


def _fill_partner_blocks(Zs, t2, keep, corr, tasks, width):
    """Compute the tasks drawn from ``tasks`` into ``corr``.

    ``tasks`` is one list iterator shared by all threads; each ``next`` on
    it is atomic, so every task is drawn exactly once.

    Every block is computed over at least two columns (the one before
    ``a`` when a block has one), in C-ordered buffers allocated once, so
    each column's axis-0 sum adds the rows in order: numpy sums a
    one-column slice, or a column of an F-ordered array, pairwise.
    """
    n = Zs.shape[0]
    P_buf = np.empty(n * width)
    A_buf = np.empty(n * width)
    M_buf = np.empty(n * width, dtype=bool)
    for j, a, b in tasks:
        lo = max(0, min(a, b - 2))
        w = b - lo
        P = P_buf[: n * w].reshape(n, w)
        A = A_buf[: n * w].reshape(n, w)
        M = M_buf[: n * w].reshape(n, w)
        np.multiply(Zs[:, lo:b], Zs[:, j:j + 1], out=P)
        np.abs(P, out=A)
        A.partition(keep - 1, axis=0)
        thr = A[keep - 1].copy()
        # the first keep magnitudes are at most thr, the rest at least thr
        kept = keep + (A[keep:] == thr).sum(axis=0)
        np.less_equal(np.abs(P, out=A), thr, out=M)
        np.multiply(P, M, out=P)
        row = P.sum(axis=0) / kept
        row /= np.sqrt(t2[j] * t2[lo:b])
        corr[j, a:b] = row[a - lo:]
        corr[a:b, j] = row[a - lo:]


def robust_partner_correlations(Zs: np.ndarray,
                                trim: float = DdcConfig.trim) -> np.ndarray:
    """Outlier-resistant correlation matrix of standardized columns.

    For each pair, the mean of cross products is taken after trimming the
    ``trim`` fraction of largest absolute products, then normalized by the
    same-trimmed second moments so the estimate is near the true
    correlation for Gaussian data. Trimming by absolute magnitude makes
    the estimate flip sign exactly under per-column sign flips.

    Each of the C(C+1)/2 pairs is computed once, in tasks of one row ``j``
    and a block of at most ``max(2, PARTNER_BLOCK_PRODUCTS // n)`` of its
    columns ``j..C-1``. A task's products, magnitudes and mask fill
    buffers its thread allocated once; each column's mean adds the rows in
    order, is divided by ``sqrt(t2[j] * t2[h])`` and is written to
    ``corr[j, h]`` and ``corr[h, j]``. The result is exactly symmetric and
    the C x C output is the only C x C array held.

    From ``PARTNER_PARALLEL_PRODUCTS`` products ``n * C**2`` on, the tasks
    run on one thread per CPU in the process's affinity mask (numpy
    releases the GIL inside each operation), except in a
    ``multiprocessing`` child. Every entry comes from the same operations
    whichever thread computes it, so the result is bitwise the same for
    any CPU count and any memory layout of ``Zs``.
    """
    Zs = np.ascontiguousarray(Zs, dtype=float)
    n, C = Zs.shape
    keep = n - int(np.floor(trim * n))
    t2 = _trimmed_second_moments(Zs, trim)
    corr = np.empty((C, C))
    width = min(max(2, PARTNER_BLOCK_PRODUCTS // n), C)
    # (j, a, b): row j's columns a..b-1 of the upper triangle
    tasks = [(j, a, min(a + width, C))
             for j in range(C) for a in range(j, C, width)]
    workers = min(_partner_workers(n, C), len(tasks))
    args = (Zs, t2, keep, corr, iter(tasks), width)
    if workers == 1:
        _fill_partner_blocks(*args)
        return corr
    errors = []

    def work():
        try:
            _fill_partner_blocks(*args)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return corr


def median_ratio_slopes(z: np.ndarray, Zh: np.ndarray,
                        usable: np.ndarray) -> np.ndarray:
    """Median-of-ratios slopes of ``z`` on each column of ``Zh`` at once.

    Column ``i`` of the result is ``np.median(z[u] / Zh[u, i])`` with
    ``u = usable[:, i]``, bit for bit: the ratios are sorted with ``inf`` in
    the unusable rows, and the median of the ``m`` usable ones is
    ``(R[(m-1)//2] + R[m//2]) / 2``. Every column needs at least one usable
    row.
    """
    R = np.divide(z[:, None], Zh, out=np.full(Zh.shape, np.inf), where=usable)
    R.sort(axis=0)
    m = usable.sum(axis=0)
    cols = np.arange(Zh.shape[1])
    return (R[(m - 1) // 2, cols] + R[m // 2, cols]) / 2


def ddc_impute(Z: np.ndarray, cfg: DdcConfig | None = None) -> ImputationResult:
    """Detect deviating cells in the joint matrix and impute them.

    Parameters
    ----------
    Z : ndarray of shape (n, C)
        Joint data matrix, response in column 0. ``C >= 2`` and no
        constant columns.
    cfg : DdcConfig, optional

    Returns
    -------
    ImputationResult

    Raises
    ------
    InvalidConfig
        Naming the field, when ``cfg`` fails :meth:`DdcConfig.validate`.

    Notes
    -----
    A column with no partner above ``min_abs_corr`` degrades to marginal
    detection: its predicted standardized value is 0 (the robust center),
    so only cells that are univariately wild get flagged and pulled to
    the column median; ``ImputationResult.marginal`` records which columns
    did so. Detection runs in a single pass. A column's partners are its
    ``k_neighbors`` largest ``|corr|`` at or above ``min_abs_corr`` (ties to
    the lowest index); their slopes come from one batched
    :func:`median_ratio_slopes` call, and partners with no row above
    ``ratio_floor`` are skipped.
    """
    if cfg is None:
        cfg = DdcConfig()
    cfg.validate()
    Z = np.ascontiguousarray(Z, dtype=float)
    n, C = Z.shape
    if C < 2:
        raise TooFewColumns(f"need at least 2 columns, got {C}")
    Zs, scales = robust_standardize(Z)
    corr = robust_partner_correlations(Zs, cfg.trim)
    flags = np.zeros((n, C), dtype=bool)
    marginal = np.zeros(C, dtype=bool)
    Z_imp = Z.copy()
    usable = np.abs(Zs) > cfg.ratio_floor
    has_usable = usable.any(axis=0)
    for j in range(C):
        c = corr[j].copy()
        c[j] = 0.0
        cand = np.flatnonzero(np.abs(c) >= cfg.min_abs_corr)
        order = cand[np.argsort(-np.abs(c[cand]), kind="stable")]
        partners = order[: cfg.k_neighbors]
        partners = partners[has_usable[partners]]
        slopes = median_ratio_slopes(Zs[:, j], Zs[:, partners],
                                     usable[:, partners])
        pred = np.zeros(n)
        wsum = 0.0
        for h, slope in zip(partners, slopes):
            w = abs(c[h])
            pred += w * slope * Zs[:, h]
            wsum += w
        # no usable partner: zhat stays 0, i.e. marginal detection only
        marginal[j] = wsum == 0.0
        zhat = pred if marginal[j] else pred / wsum
        resid = Zs[:, j] - zhat
        flagged = np.abs(resid) > cfg.flag_cutoff
        if flagged.any():
            flags[flagged, j] = True
            Z_imp[flagged, j] = zhat[flagged] * scales.scale[j] + scales.location[j]
    return ImputationResult(Z_imp=Z_imp, flags=flags, scales=scales,
                            marginal=marginal)


def correlation_structure(imp: ImputationResult) -> CorrelationStructure:
    """Sample correlations of the imputed matrix.

    Returns the p x p predictor correlation matrix and the p-vector of
    predictor-response correlations. The matrix is a Gram matrix of
    centered, normalized columns and therefore positive semi-definite.
    ``R_X`` and ``r_y`` are views of the one ``(p+1, p+1)`` Gram matrix
    ``U.T @ U``, clipped to [-1, 1] and given a unit ``R_X`` diagonal in
    place, so no second C x C array is made.

    Raises
    ------
    DegenerateColumn
        If any imputed column has zero variance.
    """
    # no sum of squares overflows, or underflows to zero, at any scale
    centered = prepare_design(imp.Z_imp, intercept=True)[0]
    norms = np.sqrt((centered**2).sum(axis=0))
    bad = np.flatnonzero(norms <= 0)
    if bad.size:
        raise DegenerateColumn(int(bad[0]))
    U = centered / norms
    R_full = U.T @ U
    R_X = R_full[1:, 1:]
    r_y = R_full[1:, 0]
    np.clip(R_X, -1.0, 1.0, out=R_X)
    np.clip(r_y, -1.0, 1.0, out=r_y)
    np.fill_diagonal(R_X, 1.0)
    return CorrelationStructure(R_X=R_X, r_y=r_y)


def flags_to_csv(imp: ImputationResult, path: str) -> None:
    """Write the 0/1 imputation flags in the data CSV layout."""
    import csv

    n, C = imp.flags.shape
    header = ["y"] + [f"x{j}" for j in range(1, C)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n):
            writer.writerow([int(v) for v in imp.flags[i]])
