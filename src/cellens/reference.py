"""Brute-force reference implementations for verification.

Everything here recomputes results from first principles in the most
transparent way available (data-space residual tracking, explicit
pairwise formulas, per-fold normal equations, grid search) and shares no
code with the production modules it checks. These routines exist for the
test suite and the built-in self-check; they are deliberately slow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient


@dataclass
class OraclePath:
    """Entry order and step sizes of a data-space least-angle path.

    ``step_sizes[0]`` is the correlation level at which the first
    variable enters; subsequent entries are the equiangular move lengths
    at which each later variable joins.
    """

    entry_order: list[int]
    step_sizes: list[float]


def classical_lars_path(X: np.ndarray, y: np.ndarray, steps: int) -> OraclePath:
    """Trace least-angle regression by residual tracking in data space.

    Parameters
    ----------
    X : ndarray of shape (n, p)
        Columns centered to mean zero and scaled to unit Euclidean norm.
    y : ndarray of shape (n,)
    steps : int
        Number of entries to trace, at most min(n - 2, p).

    Raises
    ------
    RankDeficient
        If an active Gram matrix becomes singular.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    steps = min(steps, p)
    residual = y.copy()
    active: list[int] = []
    signs: list[float] = []
    order: list[int] = []
    gammas: list[float] = []

    c = X.T @ residual
    j0 = int(np.argmax(np.abs(c)))
    order.append(j0)
    signs.append(1.0 if c[j0] >= 0 else -1.0)
    active.append(j0)
    gammas.append(float(abs(c[j0])))

    while len(order) < steps:
        c = X.T @ residual
        s = np.asarray(signs)
        XA = X[:, active] * s
        G = XA.T @ XA
        try:
            Gi1 = np.linalg.solve(G, np.ones(len(active)))
        except np.linalg.LinAlgError:
            raise RankDeficient("active Gram matrix singular") from None
        denom = float(np.ones(len(active)) @ Gi1)
        if denom <= 0:
            raise RankDeficient("active Gram matrix not positive definite")
        A = 1.0 / np.sqrt(denom)
        w = A * Gi1
        u = XA @ w
        a = X.T @ u
        C = float(abs(c[active[0]]))
        best = np.inf
        best_j = None
        for j in range(p):
            if j in active:
                continue
            for num, den in ((C - c[j], A - a[j]), (C + c[j], A + a[j])):
                if den > 0:
                    g = num / den
                    if 0 < g < best:
                        best = g
                        best_j = j
        if best_j is None:
            break
        residual = residual - best * u
        cb = float(X[:, best_j] @ residual)
        order.append(best_j)
        signs.append(1.0 if cb >= 0 else -1.0)
        active.append(best_j)
        gammas.append(float(best))
    return OraclePath(entry_order=order, step_sizes=gammas)


def standardize_columns(X: np.ndarray) -> np.ndarray:
    """Center columns and scale them to unit Euclidean norm."""
    X = np.asarray(X, dtype=float)
    Xc = X - X.mean(axis=0)
    norms = np.linalg.norm(Xc, axis=0)
    return Xc / norms


def pearson_matrix(X: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlations by the direct two-pass formula."""
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    out = np.empty((p, p))
    means = [float(np.mean(X[:, j])) for j in range(p)]
    for j in range(p):
        for h in range(j, p):
            dj = X[:, j] - means[j]
            dh = X[:, h] - means[h]
            r = float(np.sum(dj * dh) / np.sqrt(np.sum(dj**2) * np.sum(dh**2)))
            out[j, h] = r
            out[h, j] = r
    return out


def trimmed_correlation_pair(z_j, z_h, trim: float) -> float:
    """Trimmed partner correlation of two standardized columns, by definition.

    With ``keep = n - floor(trim * n)``, a trimmed mean averages the values
    whose magnitude is at most the ``keep``-th smallest magnitude (ties at
    that magnitude are all kept). The correlation is the trimmed mean of
    the cross products over the square root of the product of the two
    trimmed mean squares. Plain Python over sorted lists, one pair at a time.
    """
    z_j = [float(v) for v in z_j]
    z_h = [float(v) for v in z_h]
    n = len(z_j)
    keep = n - int(math.floor(trim * n))

    def trimmed_mean(values):
        cutoff = sorted(abs(v) for v in values)[keep - 1]
        kept = [v for v in values if abs(v) <= cutoff]
        return sum(kept) / len(kept)

    cross = trimmed_mean([a * b for a, b in zip(z_j, z_h)])
    return cross / math.sqrt(trimmed_mean([a * a for a in z_j])
                             * trimmed_mean([b * b for b in z_h]))


def gaussian_elimination_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a dense linear system by partial-pivot elimination."""
    A = np.array(A, dtype=float, copy=True)
    b = np.array(b, dtype=float, copy=True)
    m = A.shape[0]
    for k in range(m):
        piv = k + int(np.argmax(np.abs(A[k:, k])))
        if abs(A[piv, k]) < 1e-14:
            raise RankDeficient("elimination pivot vanished")
        if piv != k:
            A[[k, piv]] = A[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        for i in range(k + 1, m):
            f = A[i, k] / A[k, k]
            A[i, k:] -= f * A[k, k:]
            b[i] -= f * b[k]
    x = np.zeros(m)
    for k in range(m - 1, -1, -1):
        x[k] = (b[k] - A[k, k + 1:] @ x[k + 1:]) / A[k, k]
    return x


def normal_equation_ols(X: np.ndarray, y: np.ndarray, intercept: bool):
    """Least squares through explicitly formed normal equations."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n = X.shape[0]
    D = np.column_stack([np.ones(n), X]) if intercept else X
    theta = gaussian_elimination_solve(D.T @ D, D.T @ y)
    if intercept:
        return theta[1:], float(theta[0])
    return theta, 0.0


def cv_error_oracle(y: np.ndarray, X: np.ndarray, subset, folds: np.ndarray,
                    intercept: bool) -> float:
    """Fold-by-fold out-of-sample MSE via normal equations.

    Mirrors the arbiter's definition: an intercept is absorbed by
    centering at the full-sample means, then every fold fit goes through
    the origin.
    """
    subset = list(subset)
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    n = len(y)
    if intercept:
        y = y - np.mean(y)
        X = X - np.mean(X, axis=0)
    v = int(np.max(folds)) + 1
    total = 0.0
    for f in range(v):
        test = folds == f
        train = ~test
        if subset:
            coef, _ = normal_equation_ols(X[train][:, subset], y[train], False)
            pred = X[test][:, subset] @ coef
        else:
            pred = np.zeros(int(test.sum()))
        total += float(np.sum((y[test] - pred) ** 2))
    return total / n


def s_scale_grid(residuals: np.ndarray, c0: float, tol: float = 1e-8) -> float:
    """S-scale by bracketed grid refinement (no bisection reuse)."""
    r = np.abs(np.asarray(residuals, dtype=float))
    rho_max_frac = 0.5

    def mean_rho(sigma):
        z = np.minimum((r / sigma / c0) ** 2, 1.0)
        return float(np.mean(1.0 - (1.0 - z) ** 3))

    lo, hi = 1e-8, float(np.max(r)) * 10 + 1.0
    for _ in range(200):
        grid = np.linspace(lo, hi, 101)
        vals = np.array([mean_rho(g) for g in grid])
        idx = int(np.argmin(np.abs(vals - rho_max_frac)))
        lo = grid[max(idx - 1, 0)]
        hi = grid[min(idx + 1, len(grid) - 1)]
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)
