"""Dense linear-algebra primitives: SPD solves and least squares.

All routines work on plain ``numpy`` arrays with explicit shapes. Each
accepts a stack of independent systems along leading axes (``(..., m, m)``
matrices, ``(..., n, q)`` designs) and factors every slice in one batched
LAPACK call; operand shapes must agree exactly, no broadcasting is relied
upon. A system is degenerate when a Cholesky pivot ratio ``L_kk^2 / A_kk``
(:func:`pivot_ratios`) is small: it is 1 - R^2 of column k regressed on the
columns before it, so the rule is unchanged by rescaling any column (or
row and column of ``A``) by a positive factor.
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

    ``A`` has shape (..., m, m). ``b`` holds one right-hand side per
    slice, shape (..., m), or k of them, shape (..., m, k), with the same
    leading axes; ``x`` has the shape of ``b``. Every slice is checked by
    its pivot ratios and then solved by LU, all slices in one call each.

    Raises
    ------
    ShapeMismatch
        If ``A`` is not square or ``b`` has neither shape.
    NotPositiveDefinite
        Naming the slice and pivot, if any pivot ratio is at most
        ``PIVOT_RTOL``, which signals a degenerate (collinear) system.
    """
    b = np.asarray(b, dtype=float)
    A = np.asarray(A, dtype=float)
    ratios = pivot_ratios(A)
    vector = b.shape == A.shape[:-1]
    if not vector and b.shape[:-1] != A.shape[:-1]:
        raise ShapeMismatch(f"A is {A.shape}, b is {b.shape}")
    bad = np.argwhere(ratios <= PIVOT_RTOL)
    if bad.size:
        idx = tuple(bad[0].tolist())
        where = f" of slice {idx[:-1]}" if len(idx) > 1 else ""
        raise NotPositiveDefinite(
            f"pivot ratio {ratios[idx]:.3e} at index {idx[-1]}{where} is at "
            f"most {PIVOT_RTOL:.0e}"
        )
    # the ratios certify every slice; one LU solve then costs a single
    # LAPACK call where two triangular solves take two
    if vector:
        return np.linalg.solve(A, b[..., None])[..., 0]
    return np.linalg.solve(A, b)


def prepare_design(X: np.ndarray, intercept: bool):
    """Center (with an intercept) and power-of-two scale design columns.

    The one rule that makes a least-squares design scale-free: with an
    intercept each column of ``X`` (shape (..., n, q)) is centered at its
    mean, then each is scaled by the ``2**-e`` that puts its largest
    magnitude in [1/2, 1) (``e`` is 0 for a zero column). That is exact
    barring subnormals, so a power-of-two rescaling of a column changes no
    bit of ``D``, and no Gram of ``D`` overflows or underflows. Returns
    ``(D, means, e)``; ``means`` (shape (..., q)) is None without an
    intercept. A coefficient ``t`` on ``D`` is ``2**-e * t`` on ``X``.
    """
    means = X.mean(axis=-2) if intercept else None
    D = X - means[..., None, :] if intercept else X
    e = np.frexp(np.abs(D).max(axis=-2, initial=0.0))[1]
    # the centered copy is the function's own: scale it in place
    D = np.ldexp(D, -e[..., None, :], out=D if intercept else None)
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
    X : ndarray of shape (n, q) or (..., n, q)
        Design matrix, full column rank, or a stack of them. ``q`` may be
        0, in which case only the intercept (or nothing) is fitted. A
        vector is one column.
    y : ndarray of shape (n,) or (..., n)
        Response, with the same leading axes as ``X``.
    intercept : bool
        Fit a constant besides the columns of ``X``.

    Returns
    -------
    (coef, intercept_value)
        Least-squares coefficients of shape (..., q) for the columns of
        ``X`` and the fitted constant (0.0 when ``intercept`` is False):
        a float for one design, an array of shape (...) for a stack.

    Raises
    ------
    RankDeficient
        If any prepared design's Gram matrix is singular within tolerance.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if y.shape != X.shape[:-1]:
        raise ShapeMismatch(f"X is {X.shape}, y is {y.shape}")
    stacked = X.ndim > 2
    b0 = y.mean(axis=-1) if intercept else np.zeros(y.shape[:-1])
    if X.shape[-1] == 0:
        return np.zeros(X.shape[:-2] + (0,)), b0 if stacked else float(b0)
    D, means, e = prepare_design(X, intercept)
    if intercept:
        y = y - b0[..., None]
    Dt = np.swapaxes(D, -1, -2)
    try:
        theta = solve_spd(Dt @ D, (Dt @ y[..., None])[..., 0])
    except NotPositiveDefinite as exc:
        raise RankDeficient(str(exc)) from exc
    coef = np.ldexp(theta, -e)
    if intercept:
        b0 = b0 - (means * coef).sum(axis=-1)
    return coef, b0 if stacked else float(b0)
