"""Dense linear-algebra primitives: SPD solves and least squares.

All routines work on plain ``numpy`` arrays with explicit shapes: one
(m, m) system or one (n, q) design. Only :func:`pivot_ratios` also takes
a stack of matrices along leading axes, for the robust stage's stacked
weighted solves. A system is degenerate when a Cholesky pivot ratio
``L_kk^2 / A_kk`` (:func:`pivot_ratios`) is small: it is 1 - R^2 of
column k regressed on the columns before it, so the rule is unchanged by
rescaling any column (or row and column of ``A``) by a positive factor.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite, RankDeficient, ShapeMismatch

# A pivot counts as zero when L_kk^2 is at most PIVOT_RTOL times A_kk,
# i.e. when column k is collinear with the earlier ones to within 1 - R^2
PIVOT_RTOL = 1e-10


def pivot_ratios(A: np.ndarray) -> np.ndarray:
    """Cholesky pivot ratios ``L_kk^2 / A_kk`` of symmetric matrices.

    Parameters
    ----------
    A : ndarray of shape (..., m, m)
        Symmetric matrix, or a stack of them.

    Returns
    -------
    ratios : ndarray of shape (..., m)
        Ratio k of a slice is 1 - R^2 of column k on the columns before
        it, in (0, 1] for a positive definite slice. Every ratio of a slice
        whose factorization fails (not positive definite) is 0.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ShapeMismatch(f"expected square matrices, got shape {A.shape}")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        # one failed slice fails the whole batched call: factor each alone
        if A.ndim == 2:
            return np.zeros(A.shape[-1])
        return np.stack([pivot_ratios(a) for a in A])
    return L.diagonal(0, -2, -1) ** 2 / A.diagonal(0, -2, -1)


def solve_spd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` for symmetric positive definite ``A``.

    ``A`` has shape (m, m) and ``b`` shape (m,). The system is checked by
    its pivot ratios and then solved by LU.

    Raises
    ------
    ShapeMismatch
        If ``A`` is not a square matrix or ``b`` not a vector of its size.
    NotPositiveDefinite
        Naming the pivot, if any pivot ratio is at most ``PIVOT_RTOL``,
        which signals a degenerate (collinear) system.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != A.shape[:1]:
        raise ShapeMismatch(f"A is {A.shape}, b is {b.shape}")
    ratios = pivot_ratios(A)
    bad = np.flatnonzero(ratios <= PIVOT_RTOL)
    if bad.size:
        raise NotPositiveDefinite(
            f"pivot ratio {ratios[bad[0]]:.3e} at index {bad[0]} is at "
            f"most {PIVOT_RTOL:.0e}"
        )
    # the ratios certify the system; one LU solve then costs a single
    # LAPACK call where two triangular solves take two
    return np.linalg.solve(A, b[:, None])[:, 0]


def prepare_design(X: np.ndarray, intercept: bool):
    """Center (with an intercept) and power-of-two scale design columns.

    The one rule that makes a least-squares design scale-free: with an
    intercept each column of ``X`` (shape (n, q)) is centered at its
    mean, then each is scaled by the ``2**-e`` that puts its largest
    magnitude in [1/2, 1) (``e`` is 0 for a zero column). That is exact
    barring subnormals, so a power-of-two rescaling of a column changes no
    bit of ``D``, and no Gram of ``D`` overflows or underflows. Returns
    ``(D, means, e)``; ``means`` (shape (q,)) is None without an
    intercept. A coefficient ``t`` on ``D`` is ``2**-e * t`` on ``X``.
    """
    means = X.mean(axis=0) if intercept else None
    D = X - means if intercept else X
    e = np.frexp(np.abs(D).max(axis=0, initial=0.0))[1]
    # the centered copy is the function's own: scale it in place
    D = np.ldexp(D, -e, out=D if intercept else None)
    return D, means, e


def ols_fit(X: np.ndarray, y: np.ndarray, intercept: bool = False):
    """Ordinary least squares via the normal equations.

    The Gram is formed from the :func:`prepare_design` design; with an
    intercept ``y`` is centered too, and the constant is recovered from the
    means at the end. So a power-of-two rescaling of a column rescales its
    coefficient exactly and changes no other bit, and shifting a column or
    ``y`` moves only the constant.

    Parameters
    ----------
    X : ndarray of shape (n, q)
        Design matrix, full column rank. ``q`` may be 0, in which case
        only the intercept (or nothing) is fitted.
    y : ndarray of shape (n,)
        Response.
    intercept : bool
        Fit a constant besides the columns of ``X``.

    Returns
    -------
    (coef, intercept_value)
        Least-squares coefficients of shape (q,) for the columns of ``X``
        and the fitted constant (0.0 when ``intercept`` is False).

    Raises
    ------
    ShapeMismatch
        Unless ``X`` is a matrix with one row per entry of the vector
        ``y``.
    RankDeficient
        If the prepared design's Gram matrix is singular within tolerance.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise ShapeMismatch(f"X is {X.shape}, y is {y.shape}")
    b0 = y.mean() if intercept else 0.0
    if X.shape[1] == 0:
        return np.zeros(0), float(b0)
    D, means, e = prepare_design(X, intercept)
    if intercept:
        y = y - b0
    try:
        theta = solve_spd(D.T @ D, (D.T @ y[:, None])[:, 0])
    except NotPositiveDefinite as exc:
        raise RankDeficient(str(exc)) from exc
    coef = np.ldexp(theta, -e)
    if intercept:
        b0 = b0 - (means * coef).sum()
    return coef, float(b0)
