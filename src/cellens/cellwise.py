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

No phase holds a C x C array: partners come from a (C, k_neighbors)
table (:func:`partner_table`), and the selection engine reads predictor
correlations one column at a time (:class:`CorrelationStructure`).

On large inputs the partner table screens its pairs in float32 first and
computes float64 correlations only for pairs that may reach
``min_abs_corr``; a proven rounding margin makes the screen exact, so
the table keeps the bits of the float64 rule (see :func:`_screen_block`).
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateColumn, InvalidConfig, TooFewColumns,
                     require_integers, require_numbers)
from .linalg import prepare_design

# abs standardized residual above which a cell is flagged; equals the
# 99.5% standard normal quantile, i.e. sqrt of the chi-square(1) 0.99 point
FLAG_CUTOFF = 2.5758293035489004

# partner-correlation products (n * C**2) from which the pairs run on every
# available CPU, and products per task block, which bounds each thread's
# buffers (see _partner_pass)
PARTNER_PARALLEL_PRODUCTS = 2**24
PARTNER_BLOCK_PRODUCTS = 2**17
# table slots re-ranked at once when partner offers are merged, which
# bounds each merge's buffers (see partner_table)
PARTNER_MERGE_SLOTS = 2**12

# float32 screen of partner_table (see _screen_block): the float32 unit
# roundoff, the half-width of the threshold's band (8 units), and the
# magnitudes outside which no pair is screened
_U32 = 2.0**-24
_BAND = 8 * _U32
_SCREEN_MIN_THR = 2.0**-60
_SCREEN_MAX_ABS = 2.0**60
_SCREEN_MAX_ROWS = 2**20
# most float64 blocks a thread runs between two screens (see
# _screen_partner_blocks)
_SCREEN_MAX_SKIP = 64


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
        require_numbers(self, ("trim", "min_abs_corr", "ratio_floor",
                               "flag_cutoff"))
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


class CorrelationStructure:
    """Predictor-response correlations, and predictor correlations on demand.

    U : ndarray of shape (n, p+1)
        The imputed joint matrix prepared by :func:`correlation_structure`:
        centered columns of unit norm, response in column 0.
    r_y : ndarray of shape (p,)
        Correlation of each predictor with the response.

    The p x p predictor correlation matrix ``R_X`` is never formed: the
    selection engine reads it through :meth:`columns`, which computes each
    column once (by ``np.einsum``, which sums the products down axis 0 in
    row order without BLAS) and keeps it. So every entry is exactly
    symmetric, ``R_X[i, j] == R_X[j, i]``, and its bits do not depend on
    the BLAS thread count.
    Columns are clipped to [-1, 1] and have a unit diagonal, and ``r_y``
    is formed and clipped the same way.
    """

    def __init__(self, U: np.ndarray, r_y: np.ndarray):
        self.U = U
        self.r_y = r_y
        self._columns: dict[int, np.ndarray] = {}

    def _column(self, j: int) -> np.ndarray:
        """Column ``j`` of ``R_X``, computed afresh."""
        col = np.einsum("ij,i->j", self.U[:, 1:], self.U[:, j + 1])
        np.clip(col, -1.0, 1.0, out=col)
        col[j] = 1.0
        return col

    def columns(self, idx) -> np.ndarray:
        """``R_X[:, idx]`` as a (p, len(idx)) array; each column is computed
        on its first request and kept for the life of the structure."""
        for j in idx:
            if j not in self._columns:
                self._columns[j] = self._column(j)
        return np.stack([self._columns[j] for j in idx], axis=1)


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
    Zs = Z - med
    mad = np.median(np.abs(Zs), axis=0, overwrite_input=True)
    bad = np.flatnonzero(mad <= 0)
    if bad.size:
        raise DegenerateColumn(int(bad[0]))
    scale = 1.4826 * mad
    Zs /= scale
    return Zs, RobustScale(location=med, scale=scale)


def _block_buffers(n: int, width: int):
    """One thread's work buffers for (n, w) blocks, ``w <= width``: two
    float buffers (the products, and their magnitudes) and one bool buffer
    (the mask), each of ``n * width`` entries."""
    return (np.empty(n * width), np.empty(n * width),
            np.empty(n * width, dtype=bool))


def _trimmed_block_means(P, A_buf, M_buf, keep: int) -> np.ndarray:
    """Each column's trimmed mean of the C-ordered (n, w) block ``P``.

    A column keeps its ``keep`` smallest magnitudes and every magnitude
    tied with the largest of them, the threshold; their sum over axis 0,
    which adds the rows in order when ``w >= 2``, is divided by their
    count. ``P`` is overwritten, and ``A_buf`` and ``M_buf`` are the float
    and bool work buffers of :func:`_block_buffers`.

    The threshold is read from a sorted (w, n) transposed copy of the
    magnitudes, whose rows numpy sorts contiguously (with its SIMD sort
    where it has one). It is that value whatever algorithm finds it, so
    the bits do not depend on the sort. The copy's buffer then holds the
    (n, w) magnitudes for the mask.
    """
    n, w = P.shape
    T = A_buf[: n * w].reshape(w, n)
    np.abs(P.T, out=T)
    T.sort(axis=1)
    thr = T[:, keep - 1].copy()
    # magnitudes tied with thr past position keep - 1 follow it in a
    # sorted row, so there are some only where T[:, keep] == thr
    kept = np.full(w, keep)
    if keep < n:
        tied = np.flatnonzero(T[:, keep] == thr)
        if tied.size:
            kept[tied] += (T[tied, keep:] == thr[tied, None]).sum(axis=1)
    A = A_buf[: n * w].reshape(n, w)
    M = M_buf[: n * w].reshape(n, w)
    np.less_equal(np.abs(P, out=A), thr, out=M)
    np.multiply(P, M, out=P)
    return P.sum(axis=0) / kept


def _trimmed_second_moments(Zs: np.ndarray, trim: float) -> np.ndarray:
    """Per-column mean of squared scores after trimming the largest squares.

    Runs over blocks of the partner pass's width (see :func:`_partner_pass`)
    in buffers of its size, each block of at least two columns, so each
    column's sum adds the rows in order, as over the whole array.
    """
    n, C = Zs.shape
    keep = n - int(np.floor(trim * n))
    width = _partner_width(n, C)
    P_buf, A_buf, M_buf = _block_buffers(n, width)
    t2 = np.empty(C)
    for a in range(0, C, width):
        b = min(a + width, C)
        lo = max(0, min(a, b - 2))
        P = P_buf[: n * (b - lo)].reshape(n, b - lo)
        np.square(Zs[:, lo:b], out=P)
        t2[a:b] = _trimmed_block_means(P, A_buf, M_buf, keep)[a - lo:]
    return t2


def _partner_width(n: int, C: int) -> int:
    """Columns per task block of the partner pass over an ``(n, C)`` input."""
    return min(max(2, PARTNER_BLOCK_PRODUCTS // n), C)


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


def _fill_partner_blocks(Zs, t2, keep, emit, tasks, width):
    """Compute the tasks drawn from ``tasks``, handing each to ``emit``.

    ``tasks`` is one list iterator shared by all threads; each ``next`` on
    it is atomic, so every task is drawn exactly once. Task ``(j, a, b)``
    calls ``emit(j, a, row)`` with ``row[i]`` the correlation of columns
    ``j`` and ``a + i``, a fresh array.

    Every block is computed over at least two columns (the one before
    ``a`` when a block has one), in C-ordered buffers allocated once (see
    :func:`_trimmed_block_means`), so each column's axis-0 sum adds the
    rows in order: numpy sums a one-column slice, or a column of an
    F-ordered array, pairwise.
    """
    n = Zs.shape[0]
    P_buf, A_buf, M_buf = _block_buffers(n, width)
    for j, a, b in tasks:
        lo = max(0, min(a, b - 2))
        P = P_buf[: n * (b - lo)].reshape(n, b - lo)
        np.multiply(Zs[:, lo:b], Zs[:, j:j + 1], out=P)
        row = _trimmed_block_means(P, A_buf, M_buf, keep)
        row /= np.sqrt(t2[j] * t2[lo:b])
        emit(j, a, row[a - lo:])


def _screens(Zs: np.ndarray) -> bool:
    """Whether :func:`partner_table` screens the pairs of ``Zs`` in float32.

    From ``PARTNER_PARALLEL_PRODUCTS`` products on, below which the
    screen costs more than it saves, and only for finite inputs of at most
    ``_SCREEN_MAX_ROWS`` rows whose magnitudes stay within
    ``_SCREEN_MAX_ABS`` (see :func:`_screen_block`) and small enough that
    no float32 sum of ``n`` products overflows.
    """
    n, C = Zs.shape
    if n * C * C < PARTNER_PARALLEL_PRODUCTS or n > _SCREEN_MAX_ROWS:
        return False
    big = max(Zs.max(), -Zs.min())  # NaN fails both comparisons
    return bool(big <= _SCREEN_MAX_ABS and n * big * big < 2.0**127)


def _screen_buffers(n: int, width: int):
    """One thread's work buffers for the screened pass: two float64
    buffers of ``n * h`` entries and one bool buffer of ``n * width``.

    ``h``, the most columns of a float64 chunk, is the whole width where
    the two float64 buffers together hold at most
    ``PARTNER_BLOCK_PRODUCTS`` entries, and half of it (at least 2)
    elsewhere; read as float32, each float64 buffer holds an (n, width)
    block. On wide blocks the three come to about half the bytes of
    :func:`_block_buffers`, which pays for the float32 copy of the input.
    """
    h = min(width, max(2, -(-width // 2), PARTNER_BLOCK_PRODUCTS // (2 * n)))
    return (np.empty(n * h), np.empty(n * h), np.empty(n * width, dtype=bool))


def _screen_block(Z32, j, a, b, keep, floor, rt, bufs):
    """Screen the pairs of column ``j`` with columns ``a..b-1`` in float32.

    Returns the block positions of the pairs whose float64 correlation
    may reach ``floor``; every other one is proven below it. ``Z32`` is
    the float32 copy of the finite input ``Zs``, whose magnitudes are at
    most 2**60 (:func:`_screens`), and ``rt`` holds the square roots of
    the trimmed second moments ``t2``.

    The block's float32 products ``p32`` are formed, and their magnitudes
    ``b_i`` sorted as in :func:`_trimmed_block_means`; ``thr32`` is the
    ``keep``-th smallest. With ``u = 2**-24``, a float32 product of the
    rounded factors is within ``3.01 u a_i + 2**-88`` of the float64
    magnitude ``a_i`` (two conversions and one product, subnormals
    included). So where ``thr32 >= 2**-60``, which makes ``2**-88`` at
    most ``u / 16`` of it, ``b_i <= thr32`` gives ``a_i < thr32 (1 + 3.1 u)``
    and ``b_i >= thr32`` gives ``a_i > thr32 (1 - 3.1 u)``; the float64
    threshold ``thr64`` lies between those two values, because ``keep``
    magnitudes lie below the one and ``n - keep + 1`` above the other.
    Hence a magnitude below the band ``thr32 (1 -/+ 8 u)`` is kept in
    float64 and one above it is trimmed.

    * Gap test, ``T[:, keep] > thr32 (1 + 8 u)`` (exact in float64, and
      true when ``keep == n``): every magnitude outside the ``keep`` of
      the float32 mask ``M`` lies above the band, so float64 trims it;
      the float64 kept set has at least ``keep`` members, so it is
      exactly ``M``, and the kept count is ``keep``.
    * Otherwise the float64 kept set lies between ``L``, the magnitudes
      below the band, and ``L`` with the ``nu`` magnitudes inside it.
      Both the float32 masked sum and the float64 kept sum differ from the
      sum over ``L`` by at most ``nu`` band terms of magnitude at most
      ``thr32 (1 + 16 u)``, so the bound adds ``2 nu thr32 (1 + 16 u)``.

    The masked sum ``s32`` adds ``n`` float32 terms (in row order, or
    pairwise in a one-column block), so it is within ``gamma_{n-1}``
    times the sum of the ``m`` kept magnitudes (``m = keep`` where the
    gap holds, at most ``n`` elsewhere) of their exact sum, and the
    conversions move each kept term by at most ``3.1 u thr32``;
    ``3.25 u`` covers the latter with the float64 sum, mean and
    normalization. The margin per kept term is thus
    ``gamma_{n-1} + 3.25 u`` times ``thr32``, and the float64 kept count is
    at least ``keep``, so with ``s = sqrt(t2[j] * t2[h])``, ``|r64|`` is at
    most::

        (|s32| + thr32 (m (gamma_{n-1} + 3.25 u) + 2 nu (1 + 16 u)))
            / (keep * s)

    A pair is ruled out only where this bound, with a relative slack of
    ``2**-40`` for its own roundings (``s`` is taken as
    ``rt[j] * rt[h]``), is below ``floor``. A NaN or infinite bound keeps
    the pair, and so does ``thr32 < 2**-60``.
    """
    n = Z32.shape[0]
    w = b - a
    X1, X2, M_buf = bufs
    P = X1.view(np.float32)[: n * w].reshape(n, w)
    np.multiply(Z32[:, a:b], Z32[:, j:j + 1], out=P)
    T = X2.view(np.float32)[: n * w].reshape(w, n)
    np.abs(P.T, out=T)
    T.sort(axis=1)
    thr32 = T[:, keep - 1].copy()
    thr = thr32.astype(float)  # thr * (1 +/- 8u) is exact in float64
    gamma = (n - 1) * _U32 / (1 - (n - 1) * _U32) + 3.25 * _U32
    margin = thr * (keep * gamma)
    gap = (T[:, keep] > thr * (1 + _BAND) if keep < n
           else np.ones(w, dtype=bool))
    if not gap.all():
        # the band counts are read from T before its buffer is reused,
        # a few rows at a time to bound the temporaries
        low = np.flatnonzero(~gap)
        step = max(1, w // 8)
        for c in range(0, low.size, step):
            r = low[c:c + step]
            Tr = T[r]
            band = np.count_nonzero(
                (Tr >= (thr[r] * (1 - _BAND))[:, None])
                & (Tr <= (thr[r] * (1 + _BAND))[:, None]), axis=1)
            margin[r] = thr[r] * (n * gamma + 2 * band * (1 + 16 * _U32))
    A = X2.view(np.float32)[: n * w].reshape(n, w)
    M = M_buf[: n * w].reshape(n, w)
    np.less_equal(np.abs(P, out=A), thr32, out=M)
    np.multiply(P, M, out=P)
    margin += np.abs(P.sum(axis=0))
    ruled_out = margin < rt[a:b] * (floor * keep * rt[j] / (1 + 2.0**-40))
    ruled_out &= thr32 >= _SCREEN_MIN_THR
    return np.flatnonzero(~ruled_out)


def _exact_partners(Zs, j, a, pos, keep, bufs):
    """Trimmed means of the float64 products of column ``j`` with columns
    ``a + pos``, bit for bit those of :func:`_fill_partner_blocks`.

    ``pos`` is an array of block positions, or ``slice(w)`` for a whole
    block of ``w >= 2`` columns. The columns run in C-ordered chunks of
    at most ``len(bufs[0]) // n`` columns in the buffers of
    :func:`_screen_buffers`, each of at least two columns (a lone gathered
    column is taken twice, a lone sliced one with the column before it),
    so each column's axis-0 sum adds the rows in order, and each chunk
    goes through :func:`_trimmed_block_means`.
    A slice is read in place: gathering every column of a block made the
    float64 blocks of one-factor inputs about a tenth slower.
    """
    n = Zs.shape[0]
    X1, X2, M_buf = bufs
    step = X1.size // n
    if isinstance(pos, slice):
        parts = []
        for c in range(a, a + pos.stop, step):
            e = min(c + step, a + pos.stop)
            s = min(c, e - 2)
            P = X1[: n * (e - s)].reshape(n, e - s)
            np.multiply(Zs[:, s:e], Zs[:, j:j + 1], out=P)
            parts.append(_trimmed_block_means(P, X2, M_buf, keep)[c - s:])
        return parts[0] if len(parts) == 1 else np.concatenate(parts)
    out = np.empty(pos.size)
    for c in range(0, pos.size, step):
        idx = pos[c:c + step]
        if idx.size == 1:
            idx = np.repeat(idx, 2)
        P = X1[: n * idx.size].reshape(n, idx.size)
        np.take(Zs, a + idx, axis=1, out=P, mode="clip")
        np.multiply(P, Zs[:, j:j + 1], out=P)
        means = _trimmed_block_means(P, X2, M_buf, keep)
        out[c:c + step] = means[:out.size - c]
    return out


def _screen_partner_blocks(Zs, Z32, t2, keep, floor, emit, tasks, width):
    """:func:`_fill_partner_blocks` for :func:`partner_table`, with each
    task's block screened in float32 first (:func:`_screen_block`).

    Only the candidates get float64 values (:func:`_exact_partners`).
    Every other pair, and the diagonal, is NaN in the row handed to
    ``emit``, so it never reaches ``floor``; a task with no candidate
    emits nothing.

    A screen gains little when more than a quarter of its block are
    candidates, whose float64 values need the sort. The thread then runs
    its next tasks as float64 blocks over all their columns, with no
    screen: one task after the first such screen, and twice as many after
    each further one in a row, up to ``_SCREEN_MAX_SKIP``; a screen that
    gains starts the count again. So an input on which most pairs pass
    (one common factor) pays for few screens.
    """
    bufs = _screen_buffers(Zs.shape[0], width)
    rt = np.sqrt(t2)
    skip = 0  # float64 blocks left to run before the next screen
    span = 1  # float64 blocks after the next screen that gains little
    for j, a, b in tasks:
        if skip:
            skip -= 1
            lo = max(0, min(a, b - 2))
            row = _exact_partners(Zs, j, lo, slice(b - lo), keep, bufs)
            row /= np.sqrt(t2[j] * t2[lo:b])
            emit(j, a, row[a - lo:])
            continue
        cand = _screen_block(Z32, j, a, b, keep, floor, rt, bufs)
        cand = cand[cand > 0] if a == j else cand  # not the diagonal
        if 4 * cand.size > b - a:
            skip, span = span, min(2 * span, _SCREEN_MAX_SKIP)
        else:
            span = 1
        if not cand.size:
            continue
        row = np.full(b - a, np.nan)
        row[cand] = _exact_partners(Zs, j, a, cand, keep, bufs)
        row[cand] /= np.sqrt(t2[j] * t2[a + cand])
        emit(j, a, row)


def _partner_pass(Zs: np.ndarray, trim: float, emit,
                  floor: float | None = None) -> None:
    """Compute each of the C(C+1)/2 pair correlations of ``Zs`` once.

    ``Zs`` is C-ordered. The pairs run in tasks of one row ``j`` and a
    block of at most ``max(2, PARTNER_BLOCK_PRODUCTS // n)`` of its columns
    ``j..C-1`` (see :func:`_fill_partner_blocks`, which hands each task's
    row to ``emit``). For each pair, the mean of cross products is taken
    after trimming the ``trim`` fraction of largest absolute products and
    divided by ``sqrt(t2[j] * t2[h])``, the same-trimmed second moments.
    Both trimmed means come from :func:`_trimmed_block_means`, whose
    threshold is read from a sort, in each thread's two float buffers and
    one bool buffer of ``n * width`` entries, about
    ``PARTNER_BLOCK_PRODUCTS`` each.

    With ``floor`` (:func:`partner_table`'s ``min_abs_corr``), where
    :func:`_screens` allows, the tasks run through
    :func:`_screen_partner_blocks` on a float32 copy of ``Zs`` instead:
    each row holds NaN for a pair proven below ``floor``, and the float64
    value of every other pair, the same bits.

    From ``PARTNER_PARALLEL_PRODUCTS`` products ``n * C**2`` on, the tasks
    run on one thread per CPU in the process's affinity mask (numpy
    releases the GIL inside each operation), except in a
    ``multiprocessing`` child; ``emit`` is then called from every thread,
    in no fixed order. Every row comes from the same operations whichever
    thread computes it.
    """
    n, C = Zs.shape
    keep = n - int(np.floor(trim * n))
    t2 = _trimmed_second_moments(Zs, trim)
    width = _partner_width(n, C)
    # (j, a, b): row j's columns a..b-1 of the upper triangle
    tasks = [(j, a, min(a + width, C))
             for j in range(C) for a in range(j, C, width)]
    workers = min(_partner_workers(n, C), len(tasks))
    if floor is not None and _screens(Zs):
        args = (Zs, Zs.astype(np.float32), t2, keep, floor, emit,
                iter(tasks), width)

        def fill():
            _screen_partner_blocks(*args)
    else:
        args = (Zs, t2, keep, emit, iter(tasks), width)

        def fill():
            _fill_partner_blocks(*args)
    if workers == 1:
        fill()
        return
    errors = []

    def work():
        try:
            fill()
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


def robust_partner_correlations(Zs: np.ndarray,
                                trim: float = DdcConfig.trim) -> np.ndarray:
    """Outlier-resistant correlation matrix of standardized columns.

    For each pair, the mean of cross products is taken after trimming the
    ``trim`` fraction of largest absolute products, then normalized by the
    same-trimmed second moments so the estimate is near the true
    correlation for Gaussian data. Trimming by absolute magnitude makes
    the estimate flip sign exactly under per-column sign flips.

    This is the dense form of the pairs :func:`partner_table` selects
    from, for tests and inspection; a fit never holds it. Each pair is
    computed once by :func:`_partner_pass` and written to ``corr[j, h]``
    and ``corr[h, j]``, so the result is exactly symmetric, and bitwise
    the same for any CPU count and any memory layout of ``Zs``.
    """
    Zs = np.ascontiguousarray(Zs, dtype=float)
    C = Zs.shape[1]
    corr = np.empty((C, C))

    def emit(j, a, row):
        corr[j, a:a + len(row)] = row
        corr[a:a + len(row), j] = row

    _partner_pass(Zs, trim, emit)
    return corr


def _merge_partners(index, value, t, h, v) -> None:
    """Merge entries ``(t[i], h[i], v[i])`` (target column, partner, value)
    into the ranked rows of a partner table, in place.

    Each row keeps its best ``k`` entries by ``|value|`` descending, ties to
    the lower partner index; unused slots (index -1, value NaN) trail the
    used ones. An entry that does not beat its row's last slot is dropped
    first. The rest are ranked together with their rows' used slots, at
    most ``PARTNER_MERGE_SLOTS // k`` rows at a time, which bounds the
    memory of a merge that reaches every row. A row only gains entries, so
    its unused slots beyond the new count stay unused.
    """
    k = index.shape[1]
    last_v, last_h = np.abs(value[t, k - 1]), index[t, k - 1]
    mag = np.abs(v)
    beats = np.isnan(last_v) | (mag > last_v) | ((mag == last_v) & (h < last_h))
    keep = np.flatnonzero(beats)
    keep = keep[np.argsort(t[keep], kind="stable")]
    t, h, v = t[keep], h[keep], v[keep]
    rows = np.unique(t)
    step = max(1, PARTNER_MERGE_SLOTS // k)
    for c in range(0, rows.size, step):
        r = rows[c:c + step]
        lo, hi = np.searchsorted(t, [r[0], r[-1] + 1])
        old_h = index[r]
        used = old_h >= 0
        T = np.concatenate([np.broadcast_to(r[:, None], used.shape)[used],
                            t[lo:hi]])
        H = np.concatenate([old_h[used], h[lo:hi]])
        V = np.concatenate([value[r][used], v[lo:hi]])
        order = np.lexsort((H, -np.abs(V), T))
        T = T[order]
        rank = np.arange(T.size) - np.searchsorted(T, T)
        top = rank < k
        order, T, rank = order[top], T[top], rank[top]
        index[T, rank] = H[order]
        value[T, rank] = V[order]


def partner_table(Zs: np.ndarray, cfg: DdcConfig | None = None):
    """Each column's ranked partners among the robust partner correlations.

    Row ``j`` of the ``(C, k)`` tables, ``k = min(k_neighbors, C - 1)``,
    holds the columns ``h != j`` with ``|corr[j, h]| >= min_abs_corr``, at
    most ``k`` of them,
    ordered by ``|corr|`` descending with ties to the lowest index, where
    ``corr`` is :func:`robust_partner_correlations` ``(Zs, trim)``. That
    order is total, so the tables are the same bits whichever thread
    computed which pair first. Unused slots hold index -1 and value NaN.

    From ``PARTNER_PARALLEL_PRODUCTS`` products on (:func:`_screens`),
    each task's block is screened in float32 first, on one float32 copy of
    ``Zs``: the float32 products, their sorted magnitudes' threshold, a
    gap test at position ``keep`` and the masked sum give an upper bound
    on each pair's float64 ``|corr|``, with a proven float32 rounding
    margin of about ``(n + 3) 2**-24`` times the threshold over the
    normalizer, and twice the threshold for each magnitude in the
    threshold's float32 band where the gap test fails. A pair is ruled out
    only where that bound is below ``min_abs_corr``; every other pair gets
    its float64 value by the same operations as the dense pass (see
    :func:`_screen_block` for the proof and :func:`_exact_partners`). So
    the tables are bit for bit those of the dense rule over
    :func:`robust_partner_correlations`. A thread whose screen leaves
    most of a block as candidates runs its next blocks in float64 alone
    (:func:`_screen_partner_blocks`).

    Each task of :func:`_partner_pass` offers its pairs that pass the cut
    to both columns, under a lock: its own row only its top ``k``, and no
    row an entry strictly below that row's last slot. Offers are merged
    into the tables once they reach a quarter of the tables' ``C * k``
    slots, and a merge re-ranks a bounded number of rows at a time (see
    :func:`_merge_partners`), so what is held stays O(C * k) whatever the
    data, and no C x C array is made.

    Returns
    -------
    (index, value) : (int ndarray, float ndarray), both of shape (C, k)
    """
    if cfg is None:
        cfg = DdcConfig()
    Zs = np.ascontiguousarray(Zs, dtype=float)
    C = Zs.shape[1]
    k = min(cfg.k_neighbors, C - 1)
    index = np.full((C, k), -1)
    value = np.full((C, k), np.nan)
    # each row's cut: its last slot's |value| once the row is full, and
    # min_abs_corr before; a row's last slot only rises, so a cut read
    # without the lock only drops offers that the merge would drop too
    cut = np.full(C, float(cfg.min_abs_corr))
    lock = threading.Lock()
    held = []  # pairs offered since the last merge, as (t, h, v) arrays
    count = 0

    def merge():
        nonlocal count
        t, h, v = (np.concatenate(a) for a in zip(*held))
        _merge_partners(index, value, t, h, v)
        np.fmax(np.abs(value[:, k - 1]), cfg.min_abs_corr, out=cut)
        held.clear()
        count = 0

    def emit(j, a, row):
        nonlocal count
        mag = np.abs(row)
        if a == j:  # the task starts at the diagonal
            mag[0] = np.nan
        # row j takes at most k of this task's pairs, and only its top k in
        # the table's order (ties to the lower index: the pairs ascend)
        own = np.flatnonzero(mag >= cut[j])
        if own.size > k:
            own = own[np.argsort(-mag[own], kind="stable")[:k]]
        # each partner row h is offered its pair if it reaches h's cut
        part = np.flatnonzero(mag >= cut[a:a + mag.size])
        if not own.size + part.size:
            return
        t = np.concatenate([np.full(own.size, j), part + a])
        h = np.concatenate([own + a, np.full(part.size, j)])
        v = np.concatenate([row[own], row[part]])
        with lock:
            held.append((t, h, v))
            count += t.size
            if count >= index.size // 4:
                merge()

    _partner_pass(Zs, cfg.trim, emit, cfg.min_abs_corr)
    if held:
        merge()
    return index, value


def median_ratio_slopes(z: np.ndarray, Zh: np.ndarray,
                        usable: np.ndarray) -> np.ndarray:
    """Median-of-ratios slopes of ``z`` on each column of ``Zh`` at once.

    ``z`` is one column (shape (n,)) or one per column of ``Zh`` (its
    shape). Column ``i`` of the result is ``np.median(z_i[u] / Zh[u, i])``
    with ``u = usable[:, i]``, bit for bit: the ratios are sorted with
    ``inf`` in the unusable rows, and the median of the ``m`` usable ones
    is ``(R[(m-1)//2] + R[m//2]) / 2``. Every column needs at least one
    usable row.
    """
    if z.ndim == 1:
        z = z[:, None]
    R = np.divide(z, Zh, out=np.full(Zh.shape, np.inf), where=usable)
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
    did so. Detection runs in a single pass. A column's partners are the
    row of :func:`partner_table`: its ``k_neighbors`` largest ``|corr|`` at
    or above ``min_abs_corr`` (ties to the lowest index); partners with no
    row above ``ratio_floor`` are skipped. The loop runs over the partner
    ranks, for all columns at once: each rank's slopes come from one
    :func:`median_ratio_slopes` call, and each column's weighted
    prediction adds its partners in rank order. No C x C array is held.
    """
    if cfg is None:
        cfg = DdcConfig()
    cfg.validate()
    Z = np.ascontiguousarray(Z, dtype=float)
    n, C = Z.shape
    if C < 2:
        raise TooFewColumns(f"need at least 2 columns, got {C}")
    Zs, scales = robust_standardize(Z)
    index, value = partner_table(Zs, cfg)
    usable = np.abs(Zs) > cfg.ratio_floor
    valid = index >= 0
    valid[valid] = usable.any(axis=0)[index[valid]]
    pred = np.zeros((n, C))
    wsum = np.zeros(C)
    for r in range(index.shape[1]):
        cols = np.flatnonzero(valid[:, r])
        if not cols.size:
            continue
        h = index[cols, r]
        w = np.abs(value[cols, r])
        Zh = Zs[:, h]
        slopes = median_ratio_slopes(Zs[:, cols], Zh, usable[:, h])
        Zh *= w * slopes
        pred[:, cols] += Zh
        wsum[cols] += w
    # no usable partner: zhat stays 0, i.e. marginal detection only
    marginal = wsum == 0.0
    zhat = np.divide(pred, wsum, out=pred, where=~marginal)
    flags = np.abs(Zs - zhat) > cfg.flag_cutoff
    # zhat's buffer becomes Z_imp: the destandardized prediction where a
    # cell is flagged, the input bits elsewhere
    zhat *= scales.scale
    zhat += scales.location
    Z_imp = zhat
    np.copyto(Z_imp, Z, where=~flags)
    return ImputationResult(Z_imp=Z_imp, flags=flags, scales=scales,
                            marginal=marginal)


def correlation_structure(imp: ImputationResult) -> CorrelationStructure:
    """Sample correlations of the imputed matrix.

    Prepares ``U``, the centered, unit-norm columns of ``imp.Z_imp``, and
    the p-vector ``r_y`` of predictor-response correlations. The p x p
    predictor correlation matrix is the Gram matrix of U's predictor
    columns, and therefore positive semi-definite; the returned
    :class:`CorrelationStructure` hands out its columns on demand, so no
    C x C array is made.

    Raises
    ------
    DegenerateColumn
        If any imputed column has zero variance.
    """
    # no sum of squares overflows, or underflows to zero, at any scale
    U = prepare_design(imp.Z_imp, intercept=True)[0]
    norms = np.sqrt((U**2).sum(axis=0))
    bad = np.flatnonzero(norms <= 0)
    if bad.size:
        raise DegenerateColumn(int(bad[0]))
    U /= norms
    r_y = np.einsum("ij,i->j", U[:, 1:], U[:, 0])
    np.clip(r_y, -1.0, 1.0, out=r_y)
    return CorrelationStructure(U=U, r_y=r_y)
