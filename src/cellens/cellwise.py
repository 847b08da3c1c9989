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

Every pair correlation comes from one task loop (:func:`_partner_blocks`)
whose float64 trimmed means all come from one kernel
(:func:`_block_means`). On large inputs the partner table screens each
task's pairs in float32 first, on a (C, n) float32 copy of the input, and
computes float64 correlations only for pairs that may reach
``min_abs_corr``; a proven rounding margin makes the screen exact, so the
table keeps the bits of the float64 rule (see :func:`_screen_block`).
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .data import real_array, require_finite, require_matrix
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
PARTNER_BLOCK_PRODUCTS = 2**18
# table slots re-ranked at once when partner offers are merged, which
# bounds each merge's buffers (see partner_table)
PARTNER_MERGE_SLOTS = 2**12

# float32 screen of partner_table (see _screen_block): the float32 unit
# roundoff, the gap test's margin over the threshold (8 units; a pair
# that fails the test is not ruled out), and the magnitudes outside which
# no pair is ruled out
_U32 = 2.0**-24
_BAND = 8 * _U32
_SCREEN_MIN_THR = 2.0**-60
_SCREEN_MAX_ABS = 2.0**60
_SCREEN_MAX_ROWS = 2**20
# most float64 blocks a thread runs between two screens (see
# _partner_blocks)
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
    ShapeMismatch
        Unless ``Z`` is a real, nonempty matrix or vector (one column).
    NonFiniteValue
        Naming the first column that holds a NaN or infinite cell.
    DegenerateColumn
        For any column with zero MAD (constant or near-constant).
    """
    Z = real_array(Z)
    # a nonempty vector is one column; an empty one is named as given
    cols = Z[:, None] if Z.ndim == 1 and Z.size else Z
    require_matrix(cols)
    require_finite(cols[:, 0], cols[:, 1:])
    med = np.median(Z, axis=0)
    Zs = Z - med
    mad = np.median(np.abs(Zs), axis=0, overwrite_input=True)
    bad = np.flatnonzero(mad <= 0)
    if bad.size:
        raise DegenerateColumn(int(bad[0]))
    scale = 1.4826 * mad
    Zs /= scale
    return Zs, RobustScale(location=med, scale=scale)


def _task_buffers(n: int, width: int):
    """One thread's work buffers for partner tasks of at most ``width``
    columns: two float64 buffers of ``n * h`` entries and one bool buffer
    of ``n * width``.

    ``h``, the most columns of a :func:`_block_means` chunk, is the whole
    width where the two float64 buffers together hold at most
    ``PARTNER_BLOCK_PRODUCTS`` entries, and half of it (at least 2)
    elsewhere; read as float32, each float64 buffer holds a (width, n)
    block for :func:`_screen_block`. On wide blocks the three come to
    about ``9 * PARTNER_BLOCK_PRODUCTS`` bytes.
    """
    h = min(width, max(2, -(-width // 2), PARTNER_BLOCK_PRODUCTS // (2 * n)))
    return (np.empty(n * h), np.empty(n * h), np.empty(n * width, dtype=bool))


def _block_means(Zs, j, cols, keep, bufs) -> np.ndarray:
    """Trimmed means of the float64 products of column ``j`` of ``Zs``
    with each of its columns ``cols`` (a ``range``, read in place, or an
    index array, gathered), or of each of those columns with itself where
    ``j`` is None (``np.multiply(x, x)`` has ``np.square``'s bits).

    The columns run in C-ordered (n, w) chunks in the buffers of
    :func:`_task_buffers`, of at most ``len(bufs[0]) // n`` columns. A
    column keeps its ``keep`` smallest magnitudes and every magnitude tied
    with the largest of them, the threshold; their sum over axis 0 is
    divided by their count. That sum adds the rows in order, as numpy does
    for a block of two or more columns (it sums one column pairwise), so a
    one-column chunk is gathered twice.

    The threshold is read from a sorted (w, n) transposed copy of the
    magnitudes, whose rows numpy sorts contiguously (with its SIMD sort
    where it has one); it is that value whatever algorithm finds it, so
    the bits do not depend on the sort. The copy's buffer then holds the
    (n, w) magnitudes for the mask. Ranges are read in place because
    gathering every column made one-factor inputs' float64 blocks about a
    tenth slower.
    """
    n = Zs.shape[0]
    X1, X2, M_buf = bufs
    step = X1.size // n
    out = np.empty(len(cols))
    for c in range(0, len(cols), step):
        part = cols[c:c + step]
        w = len(part)
        part = np.resize(part, 2) if w == 1 else part
        m = len(part)
        P = X1[: n * m].reshape(n, m)
        if isinstance(part, range):
            x = Zs[:, part.start:part.stop]
        else:
            x = np.take(Zs, part, axis=1, out=P, mode="clip")
        np.multiply(x, x if j is None else Zs[:, j:j + 1], out=P)
        T = X2[: n * m].reshape(m, n)
        np.abs(P.T, out=T)
        T.sort(axis=1)
        thr = T[:, keep - 1].copy()
        # magnitudes tied with thr past position keep - 1 follow it in a
        # sorted row, so there are some only where T[:, keep] == thr
        kept = np.full(m, keep)
        if keep < n:
            tied = np.flatnonzero(T[:, keep] == thr)
            if tied.size:
                kept[tied] += (T[tied, keep:] == thr[tied, None]).sum(axis=1)
        A = X2[: n * m].reshape(n, m)
        M = M_buf[: n * m].reshape(n, m)
        np.less_equal(np.abs(P, out=A), thr, out=M)
        np.multiply(P, M, out=P)
        np.divide(P.sum(axis=0)[:w], kept[:w], out=out[c:c + w])
    return out


def _partner_width(n: int, C: int) -> int:
    """Columns per task block of the partner pass over an ``(n, C)`` input;
    at least 2, which a one-column chunk of :func:`_block_means` takes."""
    return max(2, min(PARTNER_BLOCK_PRODUCTS // n, C))


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


def _screen_block(Z32, j, a, b, keep, floor, rt, bufs):
    """Screen the pairs of column ``j`` with columns ``a..b-1`` in float32.

    Returns the block positions of the pairs whose float64 correlation
    may reach ``floor``; every other one is proven below it. ``Z32`` is
    the C-ordered (C, n) float32 copy of the finite input ``Zs`` (its
    transpose), whose magnitudes are at most 2**60 (:func:`_screens`), and
    ``rt`` holds the square roots of the trimmed second moments ``t2``.

    The block's (w, n) float32 products ``p32`` are formed, and their
    magnitudes ``b_i`` sorted along each row as int32 (finite non-negative
    floats sort alike as int32, and faster); ``thr32`` is the ``keep``-th
    smallest. With ``u = 2**-24``, a float32 product of the rounded
    factors is within ``3.01 u a_i + 2**-88`` of the float64 magnitude
    ``a_i`` (two conversions and one product, subnormals included). So
    where ``thr32 >= 2**-60``, which makes ``2**-88`` at most ``u / 16``
    of it, ``b_i <= thr32`` gives ``a_i < thr32 (1 + 3.1 u)`` and
    ``b_i > thr32 (1 + 8 u)`` gives ``a_i > thr32 (1 + 4.9 u)``.

    Gap test, ``T[:, keep] > thr32 (1 + 8 u)`` (exact in float64, and
    true when ``keep == n``): the float32 mask ``M`` then holds exactly
    ``keep`` magnitudes, and every float64 magnitude outside it exceeds
    every one inside, so the float64 kept set is exactly ``M`` and the
    kept count is ``keep``. The masked sum ``s32``, one reduction of the
    products and ``M``, adds ``n`` float32 terms in any order, so it is
    within ``gamma_{n-1}`` times the sum of the ``keep`` kept magnitudes of
    their exact sum, and the conversions move each kept term by at most
    ``3.1 u thr32``; ``3.25 u`` covers the latter with the float64 sum,
    mean and normalization. So with ``s = sqrt(t2[j] * t2[h])``,
    ``|r64|`` is at most::

        (|s32| + thr32 keep (gamma_{n-1} + 3.25 u)) / (keep * s)

    A pair is ruled out only where its gap test holds, ``thr32 >= 2**-60``
    and this bound, with a relative slack of ``2**-40`` for its own
    roundings (``s`` is taken as ``rt[j] * rt[h]``), is below ``floor``.
    Every other pair is a candidate, a NaN or infinite bound among them.
    """
    n = Z32.shape[1]
    w = b - a
    X1, X2, M_buf = bufs
    P = X1.view(np.float32)[: n * w].reshape(w, n)
    np.multiply(Z32[a:b], Z32[j], out=P)
    T = X2.view(np.float32)[: n * w].reshape(w, n)
    np.abs(P, out=T)
    T.view(np.int32).sort(axis=1)
    thr32 = T[:, keep - 1].copy()
    thr = thr32.astype(float)  # thr * (1 + 8u) is exact in float64
    # the gap test is read from T before its buffer is reused
    ruled_out = thr32 >= _SCREEN_MIN_THR
    if keep < n:
        ruled_out &= T[:, keep] > thr * (1 + _BAND)
    M = M_buf[: n * w].reshape(w, n)
    np.less_equal(np.abs(P, out=T), thr32[:, None], out=M)
    gamma = (n - 1) * _U32 / (1 - (n - 1) * _U32) + 3.25 * _U32
    bound = np.abs(np.einsum("ij,ij->i", P, M)) + thr * (keep * gamma)
    ruled_out &= bound < rt[a:b] * (floor * keep * rt[j] / (1 + 2.0**-40))
    return np.flatnonzero(~ruled_out)


def _partner_blocks(Zs, Z32, t2, keep, floor, emit, tasks, width):
    """Compute the tasks drawn from ``tasks``, handing each to ``emit``.

    ``tasks`` is one list iterator shared by all threads; each ``next`` on
    it is atomic, so every task is drawn exactly once. Task ``(j, a, b)``
    calls ``emit(j, a, row)`` with ``row[i]`` the correlation of columns
    ``j`` and ``a + i``: the trimmed mean of their products over
    ``sqrt(t2[j] * t2[a + i])``. Each thread allocates its buffers once
    (:func:`_task_buffers`).

    With ``Z32`` None, every task is a float64 block of columns read in
    place (:func:`_block_means`). Otherwise ``Z32`` is the (C, n) float32
    copy of ``Zs``, and each task is screened first (:func:`_screen_block`):
    only the candidates get float64 values, from gathered columns.
    Every other pair, and the diagonal, is NaN in the row handed to
    ``emit``, so it never reaches ``floor``; a task with no candidate
    emits nothing.

    A screen gains little when more than a quarter of its block are
    candidates, whose float64 values need the sort. The thread then runs
    its next tasks as float64 blocks, with no screen: one task after the
    first such screen, and twice as many after each further one in a row,
    up to ``_SCREEN_MAX_SKIP``; a screen that gains starts the count
    again. So an input on which most pairs pass (one common factor) pays
    for few screens.
    """
    bufs = _task_buffers(Zs.shape[0], width)
    rt = np.sqrt(t2)
    skip = 0  # float64 blocks left to run before the next screen
    span = 1  # float64 blocks after the next screen that gains little
    for j, a, b in tasks:
        if skip or Z32 is None:
            skip = max(skip - 1, 0)
            row = _block_means(Zs, j, range(a, b), keep, bufs)
            row /= np.sqrt(t2[j] * t2[a:b])
            emit(j, a, row)
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
        row[cand] = _block_means(Zs, j, a + cand, keep, bufs)
        row[cand] /= np.sqrt(t2[j] * t2[a + cand])
        emit(j, a, row)


def _partner_pass(Zs: np.ndarray, trim: float, emit,
                  floor: float | None = None) -> None:
    """Compute each of the C(C+1)/2 pair correlations of ``Zs`` once.

    ``Zs`` is C-ordered. The pairs run in tasks of one row ``j`` and a
    block of at most ``max(2, PARTNER_BLOCK_PRODUCTS // n)`` of its columns
    ``j..C-1``, through :func:`_partner_blocks`, which hands each task's
    row to ``emit``. For each pair, the mean of cross products is taken
    after trimming the ``trim`` fraction of largest absolute products and
    divided by ``sqrt(t2[j] * t2[h])``, the same-trimmed second moments.
    Both trimmed means come from :func:`_block_means`, in the buffers of
    :func:`_task_buffers`.

    With ``floor`` (:func:`partner_table`'s ``min_abs_corr``), where
    :func:`_screens` allows, each task is screened on a (C, n) float32
    copy of ``Zs``: its row holds NaN for a pair proven below ``floor``,
    and the float64 value of every other pair, the same bits.

    From ``PARTNER_PARALLEL_PRODUCTS`` products ``n * C**2`` on, the tasks
    run on one thread per CPU in the process's affinity mask (numpy
    releases the GIL inside each operation), except in a
    ``multiprocessing`` child; ``emit`` is then called from every thread,
    in no fixed order. Every row comes from the same operations whichever
    thread computes it.
    """
    n, C = Zs.shape
    keep = n - int(np.floor(trim * n))
    width = _partner_width(n, C)
    t2 = _block_means(Zs, None, range(C), keep, _task_buffers(n, width))
    # (j, a, b): row j's columns a..b-1 of the upper triangle
    tasks = [(j, a, min(a + width, C))
             for j in range(C) for a in range(j, C, width)]
    workers = min(_partner_workers(n, C), len(tasks))
    screen = floor is not None and _screens(Zs)
    Z32 = np.ascontiguousarray(Zs.T, dtype=np.float32) if screen else None
    args = (Zs, Z32, t2, keep, floor, emit, iter(tasks), width)
    errors = []

    def work():
        try:
            _partner_blocks(*args)
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


def _cleaning_input(Z, cfg: DdcConfig | None):
    """``(Z, cfg)`` at an entry point of the cleaning stage: ``cfg`` (the
    defaults when None) validated, and ``Z`` as a C-contiguous float
    array, once it is known to be a real, nonempty matrix of finite cells.
    Otherwise raises :class:`InvalidConfig`, :class:`ShapeMismatch` or
    :class:`NonFiniteValue` (naming the first such column)."""
    cfg = DdcConfig() if cfg is None else cfg
    cfg.validate()
    Z = real_array(Z)
    require_matrix(Z)
    require_finite(Z[:, 0], Z[:, 1:])
    return np.ascontiguousarray(Z), cfg


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
    the same for any CPU count and any memory layout of ``Zs``. A ``Zs``
    that is not a real, nonempty matrix raises :class:`ShapeMismatch`, a
    NaN or infinite cell :class:`NonFiniteValue` naming its column, and a
    ``trim`` outside [0, 1) :class:`InvalidConfig`.
    """
    Zs, _ = _cleaning_input(Zs, DdcConfig(trim=trim))
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
    each task's block is screened in float32 first, on one (C, n) float32
    copy of ``Zs``: the float32 products, their sorted magnitudes'
    threshold, a gap test at position ``keep`` and the masked sum give an
    upper bound on each pair's float64 ``|corr|``, with a proven float32
    rounding margin of about ``(n + 3) 2**-24`` times the threshold over the
    normalizer. A pair is ruled out only where its gap test holds and
    that bound is below ``min_abs_corr``; every other pair gets
    its float64 value by the same operations as the dense pass (see
    :func:`_screen_block` for the proof and :func:`_block_means`). So
    the tables are bit for bit those of the dense rule over
    :func:`robust_partner_correlations`. A thread whose screen leaves
    more than a quarter of a block as candidates runs its next blocks in
    float64 alone (:func:`_partner_blocks`).

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

    Raises
    ------
    InvalidConfig
        Naming the field, when ``cfg`` fails :meth:`DdcConfig.validate`.
    ShapeMismatch
        Unless ``Zs`` is a real, nonempty matrix.
    NonFiniteValue
        Naming the first column that holds a NaN or infinite cell.
    """
    Zs, cfg = _cleaning_input(Zs, cfg)
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
    ShapeMismatch
        Unless ``Z`` is a real, nonempty matrix.
    NonFiniteValue
        Naming the first column that holds a NaN or infinite cell.

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
    Z, cfg = _cleaning_input(Z, cfg)
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
