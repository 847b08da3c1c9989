"""High-breakdown final fits and ensemble prediction.

Each selected sub-model gets a two-stage robust regression on the
imputed data: an S-estimation stage (minimizing the bisquare residual
scale over an OLS start plus random elemental starts) pins down a
high-breakdown scale, then an M-stage with a wider bisquare tuning
constant polishes the coefficients at fixed scale for high normal
efficiency. Ensemble predictions average the sub-model predictions.
An elemental start is weighted least squares under 0/1 row weights, so
all of them are one stacked solve; the M-stage stops on residual moves
relative to the scale, a test unchanged by rescaling ``y`` or a column.

Tuning constants: ``C_BREAKDOWN = 1.5476`` gives the scale stage a 50%
breakdown point at the Gaussian model, ``C_EFFICIENCY = 4.685`` gives
the location stage 95% efficiency.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue, RankDeficient, ShapeMismatch
from .linalg import ols_fit, pivot_ratios, prepare_design
from .rng import make_rng

C_BREAKDOWN = 1.5476
C_EFFICIENCY = 4.685

N_ELEMENTAL_STARTS = 20
S_STAGE_MAX_ITER = 50
M_STAGE_MAX_ITER = 500
M_STAGE_TOL = 1e-8
# Newton's method reaches any rtol above rounding in a few steps; this
# only bounds a solve asked for an rtol that rounding never reaches
S_SCALE_MAX_ITER = 100
# relative accuracy of a returned S-scale
S_SCALE_RTOL = 1e-10
# a weighted design whose least Cholesky pivot ratio (1 - R^2 of a column
# on the ones before it) is at most this goes to lstsq: the normal
# equations lose about eps / ratio of relative accuracy (so at most about
# 1e-10 above it, well below M_STAGE_TOL), lstsq about eps / sqrt(ratio)
WLS_NORMAL_RATIO = 1e-5


def bisquare_rho(u: np.ndarray, c: float) -> np.ndarray:
    """Tukey bisquare loss normalized to max 1."""
    z = np.minimum((np.asarray(u) / c) ** 2, 1.0)
    return 1.0 - (1.0 - z) ** 3


def bisquare_weight(u: np.ndarray, c: float) -> np.ndarray:
    """IRLS weight psi(u)/u for the bisquare, zero beyond c."""
    z = (np.asarray(u) / c) ** 2
    return np.maximum(1.0 - z, 0.0) ** 2


def _solve_s_scale(R: np.ndarray, c0: float, rtol: float,
                   guess: np.ndarray | None = None) -> np.ndarray:
    """Row-wise Newton solve of the S-scale equation on residuals ``R``.

    ``R`` has shape (m, n): each row is solved on its own and the result
    has shape (m,).

    With a_i = (r_i / c0)^2 and s = 1 / sigma^2, mean
    rho(r / sigma) is ``1 - mean((1 - min(a s, 1))^3)``: concave and
    nondecreasing in s. From the left of the root Newton therefore rises
    to it without overshooting, and from the right its first step lands
    on the left. A step that would not keep s positive (or a zero slope,
    every entry saturated) restarts the row from a point below the root.
    A row stops once its step is below ``rtol`` relative to its s, and its
    s is frozen from then on, so the other rows cannot change its result.
    ``guess`` (positive, shape (m,)) warm-starts each row at that sigma
    (e.g. the scale of the previous IRLS iterate); without it every row
    starts at a point below its root. A row with at least half its
    entries exactly zero gets sigma 0.
    """
    m, n = R.shape
    fit = np.count_nonzero(R, axis=1) > n / 2.0
    if not fit.all():
        sigma = np.zeros(m)
        if fit.any():
            sigma[fit] = _solve_s_scale(R[fit], c0, rtol,
                                        None if guess is None else guess[fit])
        return sigma
    a = (R / c0) ** 2
    # 1 - (1 - x)^3 < 3x, so mean rho < 3 s_low mean(a) = 1/2: s_low lies
    # below the root, and Newton rises from it monotonically
    s_low = n / (6.0 * a.sum(axis=1))
    s = s_low if guess is None else 1.0 / guess ** 2
    going = np.ones(m, dtype=bool)
    # a zero slope (every entry saturated) makes an infinite step, or a
    # NaN one in a frozen row
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(S_SCALE_MAX_ITER):
            # one pass: saturated entries give t = 0, rho = 1 and no slope;
            # the step is (1/2 - mean t^3) / (3 mean(a t^2))
            t = np.maximum(1.0 - a * s[:, None], 0.0)
            t2 = t * t
            step = ((0.5 * n - np.einsum("ij,ij->i", t2, t))
                    / (3.0 * np.einsum("ij,ij->i", a, t2)))
            # every entry saturated, or the step would not keep s > 0
            restart = step >= s
            s = np.where(going, np.where(restart, s_low, s - step), s)
            going &= restart | (np.abs(step) > rtol * s)
            if not going.any():
                break
    return 1.0 / np.sqrt(s)


def s_scale(residuals: np.ndarray, c0: float = C_BREAKDOWN,
            rtol: float = S_SCALE_RTOL) -> float:
    """Bisquare S-scale: sigma with mean rho(r/sigma) equal to half its max.

    Solved by Newton's method in 1/sigma^2 to relative tolerance ``rtol``.
    Returns 0.0 when at least half the residuals are exactly zero
    (exact-fit case, where no positive solution exists).
    """
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ShapeMismatch("empty residual vector")
    return float(_solve_s_scale(r.reshape(1, -1), c0, rtol)[0])


@dataclass
class RobustFit:
    """Fitted sub-model: coefficients over its own indices plus scale."""

    coefficients: np.ndarray
    intercept: float
    scale: float
    converged: bool
    iterations: int


@dataclass
class EnsembleModel:
    """K robust sub-model fits aligned with their disjoint index sets."""

    fits: list[RobustFit]
    sets: list[list[int]]
    p: int
    intercept: bool


def _weighted_ls(D: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted least squares of ``y`` on ``D`` for each row of weights.

    ``w`` has shape (n,) or (m, n); the result has shape (c,) or (m, c).
    Each weighted Gram is solved as normal equations, all rows in one
    stacked call. A row whose weighted design is singular or nearly
    collinear (least pivot ratio at most ``WLS_NORMAL_RATIO``) gets
    ``lstsq``'s solution instead, the minimum-norm one when singular;
    only those rows are solved one at a time.
    """
    Dw = w[..., None, :] * D.T
    G = Dw @ D
    b = Dw @ y
    normal = pivot_ratios(G).min(axis=-1) > WLS_NORMAL_RATIO
    if normal.all():
        return np.linalg.solve(G, b[..., None])[..., 0]
    theta = np.empty(b.shape)
    theta[normal] = np.linalg.solve(G[normal], b[normal][..., None])[..., 0]
    for idx in map(tuple, np.argwhere(~normal)):
        sw = np.sqrt(w[idx])
        theta[idx] = np.linalg.lstsq(D * sw[:, None], y * sw, rcond=None)[0]
    return theta


def _irls_s_stage(D: np.ndarray, y: np.ndarray, theta0: np.ndarray, c0: float,
                  scale_rtol: float, max_iter: int = S_STAGE_MAX_ITER,
                  final_rtol: float = S_SCALE_RTOL):
    """Iterate reweighted LS toward a local minimum of the S-scale.

    ``theta0`` is a stack of starts of shape (m, c); the returned
    ``(theta, sigma)`` have shapes (m, c) and (m,). Each start is iterated
    on its own: every iterate solves the weighted systems of the starts
    still going in one stacked call and their scales row-wise, and a start
    that stops is left as it is, so its result does not depend on the
    others. The scale is re-solved each iterate by a Newton solve
    warm-started at the previous scale, to ``scale_rtol``; the returned
    scale is re-solved at ``final_rtol``. A start stops once its scale
    falls by less than ``scale_rtol`` relative, the accuracy each scale is
    solved to, or once its scale reaches zero (exact fit).
    """
    theta = np.array(theta0, dtype=float)
    R = y - theta @ D.T
    sigma = _solve_s_scale(R, c0, scale_rtol)
    live = np.flatnonzero(sigma > 0)
    for _ in range(max_iter):
        w = bisquare_weight(R[live] / sigma[live, None], c0)
        weighted = w.sum(axis=1) > 0
        live, w = live[weighted], w[weighted]
        if not live.size:
            break
        th = _weighted_ls(D, y, w)
        theta[live] = th
        R[live] = y - th @ D.T
        sigma_new = _solve_s_scale(R[live], c0, scale_rtol, guess=sigma[live])
        # the objective is the scale itself: stop once it stalls (the
        # fixed-scale stage polishes the coefficients afterwards)
        going = (sigma_new > 0) & (sigma_new < sigma[live] * (1 - scale_rtol))
        sigma[live] = sigma_new
        live = live[going]
    if final_rtol < scale_rtol:
        rows = np.flatnonzero(sigma > 0)
        sigma[rows] = _solve_s_scale(R[rows], c0, final_rtol,
                                     guess=sigma[rows])
    return theta, sigma


def _s_stage(D: np.ndarray, y: np.ndarray, Xs: np.ndarray, intercept: bool,
             seed: int):
    """High-breakdown ``(theta, sigma)`` on the prepared design ``D`` and
    ``y``, from the OLS start on ``Xs`` and the elemental starts."""
    n, ncol = D.shape
    coef0, _ = ols_fit(Xs, y)
    start0 = np.concatenate([[0.0], coef0]) if intercept else coef0
    # each elemental start fits ncol random rows exactly: 0/1 row weights
    rng = make_rng(seed)
    W = np.zeros((N_ELEMENTAL_STARTS, n))
    for w in W:
        w[rng.choice(n, size=ncol, replace=False)] = 1.0
    starts = np.vstack([start0, _weighted_ls(D, y, W)])

    # fast-S schedule: two cheap refinement steps for every start, run as
    # one stack, full convergence only for the most promising candidates
    thetas, sigmas = _irls_s_stage(D, y, starts, C_BREAKDOWN,
                                   max_iter=2, scale_rtol=1e-3,
                                   final_rtol=1e-3)
    order = np.argsort(sigmas, kind="stable")
    if sigmas[order[0]] == 0.0:
        return thetas[order[0]], 0.0
    thetas, sigmas = _irls_s_stage(D, y, thetas[order[:3]], C_BREAKDOWN,
                                   scale_rtol=1e-5)
    best = int(np.argmin(sigmas))
    return thetas[best], float(sigmas[best])


def _m_stage(D: np.ndarray, y: np.ndarray, theta: np.ndarray, sigma: float):
    """Reweighted LS at fixed scale with the wider tuning constant, from
    ``theta``; returns ``(theta, converged, iterations)``."""
    r = y - D @ theta
    objective = float(np.mean(bisquare_rho(r / sigma, C_EFFICIENCY)))
    for it in range(1, M_STAGE_MAX_ITER + 1):
        w = bisquare_weight(r / sigma, C_EFFICIENCY)
        if w.sum() <= 0:
            break
        theta_new = _weighted_ls(D, y, w)
        r_new = y - D @ theta_new
        obj_new = float(np.mean(bisquare_rho(r_new / sigma, C_EFFICIENCY)))
        if obj_new > objective + 1e-12 * (1 + abs(objective)):
            # descent property of reweighting violated only by numerics;
            # keep the previous iterate
            break
        # scale-free stop: the largest residual move in units of sigma
        delta = np.max(np.abs(r_new - r)) / sigma
        theta = theta_new
        r = r_new
        objective = obj_new
        if delta < M_STAGE_TOL:
            return theta, True, it
    return theta, False, it


def mm_fit(X: np.ndarray, y: np.ndarray, intercept: bool = True,
           seed: int = 0) -> RobustFit:
    """Two-stage robust regression on a (possibly empty) predictor set.

    Parameters
    ----------
    X : ndarray of shape (n, q), q < n
        Full-column-rank design for this sub-model (q may be 0).
    y : ndarray of shape (n,)
    intercept : bool
    seed : int
        Seed for the elemental-subset starts. The subsets depend only on
        the row count, so refits on shifted responses stay equivariant.
        A singular subset is not redrawn: its start is the minimum-norm
        fit to its rows, ranked by its scale like every other start.

    Returns
    -------
    RobustFit
        ``converged`` is False when the M-stage hit its iteration cap;
        the best iterate is still returned.

    Raises
    ------
    RankDeficient
        If the design (centered, with an intercept) is rank deficient.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, q = X.shape
    if q + int(intercept) >= n:
        raise RankDeficient(f"{q} predictors (+intercept={intercept}) with only {n} rows")
    # every stage works on the prepared columns and (with an intercept)
    # centered y; coefficients and constant are recovered once at the end
    Xs, means, e = prepare_design(X, intercept)
    y0 = y.mean() if intercept else 0.0
    y = y - y0
    D = np.column_stack([np.ones(n), Xs]) if intercept else Xs
    if D.shape[1]:
        theta, sigma = _s_stage(D, y, Xs, intercept, seed)
    else:
        theta, sigma = np.zeros(0), s_scale(y)
    # an exact fit (sigma 0) already interpolates the tightest half
    converged, iterations = True, 0
    if D.shape[1] and sigma > 0.0:
        theta, converged, iterations = _m_stage(D, y, theta, sigma)
    coef = np.ldexp(theta[int(intercept):], -e)
    b0 = y0 + theta[0] - means @ coef if intercept else 0.0
    return RobustFit(coefficients=coef, intercept=float(b0), scale=float(sigma),
                     converged=converged, iterations=iterations)


def fit_ensemble_models(imp_y: np.ndarray, imp_X: np.ndarray,
                        sets: list[list[int]], intercept: bool = True,
                        seed: int = 0) -> EnsembleModel:
    """Robustly fit every sub-model on its selected columns."""
    fits = []
    for k, subset in enumerate(sets):
        Xk = imp_X[:, subset] if subset else np.empty((len(imp_y), 0))
        fits.append(mm_fit(Xk, imp_y, intercept=intercept, seed=seed + k))
    return EnsembleModel(fits=fits, sets=[list(s) for s in sets],
                         p=imp_X.shape[1], intercept=intercept)


def predict(model: EnsembleModel, Xnew: np.ndarray) -> np.ndarray:
    """Average of the sub-model predictions on new rows.

    Sub-models with empty index sets contribute their intercept (or zero
    when the model carries no intercept).

    Raises
    ------
    ShapeMismatch
        If ``Xnew`` is not a matrix (or a vector, one row) with the
        training predictor count.
    NonFiniteValue
        Naming the first predictor ``x_j`` of ``Xnew`` (in any column, not
        only the selected ones) that holds a NaN or infinite cell.
    """
    Xnew = np.asarray(Xnew, dtype=float)
    if Xnew.ndim == 1:
        Xnew = Xnew[None, :]
    if Xnew.ndim != 2:
        raise ShapeMismatch(f"Xnew must be a matrix, got shape {Xnew.shape}")
    if Xnew.shape[1] != model.p:
        raise ShapeMismatch(
            f"expected {model.p} predictor columns, found {Xnew.shape[1]}"
        )
    nonfinite = ~np.isfinite(Xnew).all(axis=0)
    if nonfinite.any():
        j = int(np.argmax(nonfinite)) + 1
        raise NonFiniteValue(j, f"x{j}")
    m = Xnew.shape[0]
    total = np.zeros(m)
    for fit, subset in zip(model.fits, model.sets):
        pred = np.full(m, fit.intercept)
        if subset:
            pred = pred + Xnew[:, subset] @ fit.coefficients
        total += pred
    return total / len(model.fits)


MODEL_SCHEMA_VERSION = 1


def model_to_json(model: EnsembleModel) -> str:
    """Serialize an ensemble to a versioned JSON document."""
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "p": model.p,
        "intercept": model.intercept,
        "sets": [[int(j) for j in s] for s in model.sets],
        "coefficients": [[float(c) for c in f.coefficients] for f in model.fits],
        "intercepts": [float(f.intercept) for f in model.fits],
        "scales": [float(f.scale) for f in model.fits],
        "converged": [bool(f.converged) for f in model.fits],
        "iterations": [int(f.iterations) for f in model.fits],
    }
    return json.dumps(doc, indent=2)


_MODEL_FIT_FIELDS = ("coefficients", "intercepts", "scales", "converged",
                     "iterations")


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


# per-fit fields holding one scalar per set: (field, check, expected kind)
_SCALAR_FIT_FIELDS = (
    ("intercepts", _is_finite_number, "a finite number"),
    ("scales", _is_finite_number, "a finite number"),
    ("converged", lambda v: isinstance(v, bool), "a boolean"),
    ("iterations", _is_index, "an integer"),
)


def model_from_json(text: str) -> EnsembleModel:
    """Inverse of :func:`model_to_json`.

    Raises
    ------
    ShapeMismatch
        Naming the field, when the text is not a JSON object of the current
        schema, a field is missing, ``p`` is not a positive integer, a
        per-fit field is not a list with one entry per set, a set is not a
        list of integer indices in ``0..p-1``, a coefficient list does not
        match its set, a coefficient, intercept or scale is not a finite
        number, a ``converged`` entry is not a boolean, or an
        ``iterations`` entry is not an integer. Booleans count as neither
        integers nor numbers.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ShapeMismatch(f"model is not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ShapeMismatch("model is not a JSON object")
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ShapeMismatch(
            f"unsupported model schema_version {doc.get('schema_version')!r}"
        )
    for key in ("p", "intercept", "sets") + _MODEL_FIT_FIELDS:
        if key not in doc:
            raise ShapeMismatch(f"model field {key!r} is missing")
    p, sets = doc["p"], doc["sets"]
    if not _is_index(p) or p < 1:
        raise ShapeMismatch(f"model field 'p' is {p!r}, not a positive integer")
    if not isinstance(sets, list) or not sets:
        raise ShapeMismatch("model field 'sets' is not a non-empty list")
    for key in _MODEL_FIT_FIELDS:
        if not isinstance(doc[key], list):
            raise ShapeMismatch(f"model field {key!r} is not a list")
        if len(doc[key]) != len(sets):
            raise ShapeMismatch(f"model field {key!r} has {len(doc[key])} "
                                f"entries for {len(sets)} sets")
    for key, valid, kind in _SCALAR_FIT_FIELDS:
        wrong = [v for v in doc[key] if not valid(v)]
        if wrong:
            raise ShapeMismatch(f"model field {key!r} holds {wrong[0]!r}, "
                                f"not {kind}")
    for k, (subset, coef) in enumerate(zip(sets, doc["coefficients"])):
        if not isinstance(subset, list):
            raise ShapeMismatch(f"model field 'sets'[{k}] is not a list")
        if not isinstance(coef, list):
            raise ShapeMismatch(f"model field 'coefficients'[{k}] is not a list")
        if len(coef) != len(subset):
            raise ShapeMismatch(
                f"model field 'coefficients'[{k}] has {len(coef)} entries "
                f"for {len(subset)} indices in 'sets'[{k}]")
        wrong = [j for j in subset if not _is_index(j)]
        if wrong:
            raise ShapeMismatch(f"model field 'sets'[{k}] holds {wrong[0]!r}, "
                                f"not an integer index")
        outside = [j for j in subset if not 0 <= j < p]
        if outside:
            raise ShapeMismatch(f"model field 'sets'[{k}] holds index "
                                f"{outside[0]} outside 0..{p - 1}")
        wrong = [c for c in coef if not _is_finite_number(c)]
        if wrong:
            raise ShapeMismatch(f"model field 'coefficients'[{k}] holds "
                                f"{wrong[0]!r}, not a finite number")
    fits = [
        RobustFit(coefficients=np.asarray(c, dtype=float), intercept=b,
                  scale=s, converged=cv, iterations=it)
        for c, b, s, cv, it in zip(*(doc[key] for key in _MODEL_FIT_FIELDS))
    ]
    return EnsembleModel(fits=fits, sets=[list(s) for s in sets],
                         p=p, intercept=bool(doc["intercept"]))
