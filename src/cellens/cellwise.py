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

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateColumn, InvalidConfig, TooFewColumns,
                     require_integers)

# abs standardized residual above which a cell is flagged; equals the
# 99.5% standard normal quantile, i.e. sqrt of the chi-square(1) 0.99 point
FLAG_CUTOFF = 2.5758293035489004


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


def robust_partner_correlations(Zs: np.ndarray,
                                trim: float = DdcConfig.trim) -> np.ndarray:
    """Outlier-resistant correlation matrix of standardized columns.

    For each pair, the mean of cross products is taken after trimming the
    ``trim`` fraction of largest absolute products, then normalized by the
    same-trimmed second moments so the estimate is near the true
    correlation for Gaussian data. Trimming by absolute magnitude makes
    the estimate flip sign exactly under per-column sign flips.

    Each of the C(C+1)/2 pairs is computed once. Row ``j`` is formed over
    columns ``j..C-1`` in the ``(n, C - j)`` layout, whose axis-0 sums add
    the rows in order for every column; it is normalized in place by
    ``sqrt(t2[j] * t2[j:])`` and written to row and column ``j``. The
    result is therefore exactly symmetric, and the C x C output is the only
    C x C array held. The last row keeps a two-column slice, because numpy
    sums a one-column slice in another order.
    """
    n, C = Zs.shape
    keep = n - int(np.floor(trim * n))
    t2 = _trimmed_second_moments(Zs, trim)
    corr = np.empty((C, C))
    for j in range(C):
        lo = min(j, C - 2) if C > 1 else 0
        P = Zs[:, lo:] * Zs[:, [j]]
        A = np.abs(P)
        thr = np.partition(A, keep - 1, axis=0)[keep - 1]
        mask = A <= thr
        row = (P * mask).sum(axis=0) / mask.sum(axis=0)
        row /= np.sqrt(t2[j] * t2[lo:])
        corr[j, lo:] = row
        corr[lo:, j] = row
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
    Z = np.asarray(Z, dtype=float)
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
    Z = imp.Z_imp
    centered = Z - Z.mean(axis=0)
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
