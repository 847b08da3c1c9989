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
The K sub-models run every stage together, each as a block of rows
that stays whole in every product, so a sub-model's fit is that of a fit
alone. Each phase (a batch of previews, the finalists, the M-stages)
stacks its sub-models' operands once. A sub-model whose rows have all
stopped stays stopped until the phase ends, so it is dropped from them
once and no later step of the phase solves it.

Tuning constants: ``C_BREAKDOWN = 1.5476`` gives the scale stage a 50%
breakdown point at the Gaussian model, ``C_EFFICIENCY = 4.685`` gives
the location stage 95% efficiency.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import real_array, regression_arrays, require_finite
from .errors import (NonFiniteValue, RankDeficient, ShapeMismatch,
                     is_integer, is_number)
from .linalg import ols_fit, pivot_ratios, prepare_design
from .rng import make_rng

C_BREAKDOWN = 1.5476
C_EFFICIENCY = 4.685

N_ELEMENTAL_STARTS = 20
# the fast-S schedule: every start (the OLS start and the elemental ones)
# takes PREVIEW_STEPS reweighting steps at scale accuracy PREVIEW_RTOL, and
# each sub-model's N_FINALISTS best previews are refined to FINALIST_RTOL
PREVIEW_STEPS = 2
PREVIEW_RTOL = 1e-3
N_FINALISTS = 3
FINALIST_RTOL = 1e-5
S_STAGE_MAX_ITER = 50
# the previews of the K sub-models run in batches whose (rows, n) stacks of
# residuals and weights hold at most this many entries (128 KiB each)
STACK_CELLS = 2 ** 14
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


def _solve_s_scale(R: np.ndarray, rtol: float,
                   guess: np.ndarray | None = None) -> np.ndarray:
    """Row-wise Newton solve of the S-scale equation on residuals ``R``.

    ``R`` has shape (m, n): each row is solved on its own and the result
    has shape (m,).

    With a_i = (r_i / C_BREAKDOWN)^2 and s = 1 / sigma^2, mean
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
            sigma[fit] = _solve_s_scale(R[fit], rtol,
                                        None if guess is None else guess[fit])
        return sigma
    a = np.square(R / C_BREAKDOWN)
    # 1 - (1 - x)^3 < 3x, so mean rho < 3 s_low mean(a) = 1/2: s_low lies
    # below the root, and Newton rises from it monotonically
    s_low = n / (6.0 * a.sum(axis=1))
    s = s_low if guess is None else 1.0 / guess ** 2
    going = np.ones(m, dtype=bool)
    # a zero slope (every entry saturated) makes an infinite step, or a
    # NaN one in a frozen row
    t, t2 = np.empty_like(a), np.empty_like(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(S_SCALE_MAX_ITER):
            # one pass: saturated entries give t = 0, rho = 1 and no slope;
            # the step is (1/2 - mean t^3) / (3 mean(a t^2))
            np.multiply(a, s[:, None], out=t)
            np.maximum(np.subtract(1.0, t, out=t), 0.0, out=t)
            np.multiply(t, t, out=t2)
            step = ((0.5 * n - np.einsum("ij,ij->i", t2, t))
                    / (3.0 * np.einsum("ij,ij->i", a, t2)))
            # every entry saturated, or the step would not keep s > 0
            restart = step >= s
            s = np.where(going, np.where(restart, s_low, s - step), s)
            going &= restart | (np.abs(step) > rtol * s)
            if not going.any():
                break
    return 1.0 / np.sqrt(s)


def s_scale(residuals: np.ndarray) -> float:
    """Bisquare S-scale: sigma with mean rho(r/sigma) equal to half its max.

    The tuning constant is ``C_BREAKDOWN``, and the scale is solved by
    Newton's method in 1/sigma^2 to relative tolerance ``S_SCALE_RTOL``.
    Returns 0.0 when at least half the residuals are exactly zero
    (exact-fit case, where no positive solution exists). A NaN or
    infinite residual raises :class:`NonFiniteValue`.

    The residuals are solved divided by ``2**e``, the power of two of
    their largest magnitude, and the scale multiplied back, so no square
    overflows or underflows whatever their magnitude; in the normal range
    both products are exact and the bits are those of the plain solve.
    """
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ShapeMismatch("empty residual vector")
    if not np.isfinite(r).all():
        raise NonFiniteValue(0, "residuals")
    e = int(np.frexp(np.abs(r).max())[1])
    sigma = _solve_s_scale(np.ldexp(r, -e).reshape(1, -1), S_SCALE_RTOL)[0]
    return float(np.ldexp(sigma, e))


@dataclass
class RobustFit:
    """Fitted sub-model: coefficients over its own indices plus scale.

    ``converged`` is False when the M-stage stopped for another reason
    than convergence: its iteration cap, a step that would have raised its
    objective, or weights that all vanished. ``iterations`` counts its
    steps up to and including the one it stopped on (0 for an exact fit,
    scale 0, or an empty design without an intercept).
    """

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

    ``w`` has shape (..., n) and the result (..., c). The design ``D``
    (..., n, c) and the response ``y`` (..., n) broadcast against the
    rows of ``w``: one design for every row, or one per sub-model. Each
    weighted Gram is formed from ``w * D^T``, C-ordered whatever the
    layout of ``D``, and solved as normal equations, all rows in one
    stacked call; a row gets the same bits as when solved alone. A row
    whose weighted design is singular or nearly collinear (least pivot
    ratio at most ``WLS_NORMAL_RATIO``) gets ``lstsq``'s solution
    instead, the minimum-norm one when singular; only those rows are
    solved one at a time.
    """
    Dw = np.multiply(w[..., None, :], np.swapaxes(D, -1, -2), order="C")
    G = Dw @ D
    b = (Dw @ y[..., None])[..., 0]
    normal = pivot_ratios(G).min(axis=-1) > WLS_NORMAL_RATIO
    if normal.all():
        return np.linalg.solve(G, b[..., None])[..., 0]
    theta = np.empty(b.shape)
    theta[normal] = np.linalg.solve(G[normal], b[normal][..., None])[..., 0]
    D = np.broadcast_to(D, w.shape[:-1] + D.shape[-2:])
    y = np.broadcast_to(y, w.shape)
    for idx in map(tuple, np.argwhere(~normal)):
        sw = np.sqrt(w[idx])
        theta[idx] = np.linalg.lstsq(D[idx] * sw[:, None], y[idx] * sw,
                                     rcond=None)[0]
    return theta


def _operands(P: list[np.ndarray], ks: np.ndarray, intercept: bool) -> list:
    """The operands of one phase over sub-models ``ks``: ``(c, Dt, y,
    idx)`` for each column count c, where sub-models ``ks[idx]`` have c
    columns.

    Sub-model k has ``P[k]``, its ``[y, X]`` as :func:`prepare_design`
    returns it, and its design (n, c): ``[1, X]`` with an intercept, else
    ``X``. Each count's sub-models are held as two C-contiguous stacks:
    their responses ``y`` (len(idx), n) and their transposed designs
    ``Dt`` (len(idx), c, n).
    """
    ncol = np.array([P[k].shape[1] - 1 + intercept for k in ks], dtype=int)
    groups = []
    for c in np.unique(ncol):
        idx = np.flatnonzero(ncol == c)
        members = [P[k] for k in ks[idx]]
        y = np.stack([Pk[:, 0] for Pk in members])
        # the row of ones stays in place with an intercept
        Dt = np.ones((idx.size, c, y.shape[1]))
        for Dk, Pk in zip(Dt, members):
            Dk[int(intercept):] = Pk[:, 1:].T
        groups.append((int(c), Dt, y, idx))
    return groups


def _residuals(groups: list, theta: np.ndarray, n: int) -> np.ndarray:
    """``y - theta @ Dt`` for a block of r rows (starts or iterates) of
    each sub-model of ``groups`` (:func:`_operands`): coefficients
    ``theta`` (m, r, width), zero beyond each sub-model's own c columns,
    give residuals (m, r, n).

    The bits of a matrix product depend on its row count, so each
    sub-model's product takes all r of its rows, as in a fit of it alone.
    """
    R = np.empty(theta.shape[:2] + (n,))
    for c, Dt, y, idx in groups:
        R[idx] = y[:, None] - theta[idx, :, :c] @ Dt
    return R


def _reweight(groups: list, theta: np.ndarray, R: np.ndarray, w: np.ndarray,
              live: np.ndarray) -> None:
    """One reweighting step of the block ``theta`` and its residuals
    ``R``, in place: :func:`_weighted_ls` under weights ``w`` (m, r, n),
    one stacked call per column count, then the :func:`_residuals` of the
    result.

    Only the rows ``live`` (mask (m, r)) take their solve. A sub-model
    with no live row has stopped for the rest of its phase, so it is
    dropped from ``groups`` (which this changes) once, and no later step
    solves it. A sub-model with a live row solves all r of its rows, the
    others under their weights, and those solves are thrown away: the
    bits of a product depend on its row count.
    """
    models = live.any(axis=-1)
    kept = []
    for c, Dt, y, idx in groups:
        keep = models[idx]
        if keep.all():
            kept.append((c, Dt, y, idx))
        elif keep.any():
            kept.append((c, Dt[keep], y[keep], idx[keep]))
    groups[:] = kept
    for c, Dt, y, idx in groups:
        solved = _weighted_ls(np.swapaxes(Dt, 1, 2)[:, None], y[:, None],
                              w[idx])
        theta[idx, :, :c] = np.where(live[idx, :, None], solved,
                                     theta[idx, :, :c])
        R[idx] = y[:, None] - theta[idx, :, :c] @ Dt


def _irls_s_stage(groups: list, theta: np.ndarray, R: np.ndarray,
                  scale_rtol: float, max_iter: int = S_STAGE_MAX_ITER,
                  final_rtol: float = S_SCALE_RTOL):
    """Iterate reweighted LS toward a local minimum of the S-scale.

    ``theta`` is a block of r starts for each of the m sub-models of
    ``groups`` (:func:`_operands`), shape (m, r, width), and ``R`` their
    residuals (m, r, n); the returned ``(theta, sigma)`` have shapes (m,
    r, width) and (m, r). Neither argument changes. Each start is
    iterated on its own: every iterate takes one :func:`_reweight` step,
    a stopped start keeping its coefficients (under unit weights), and
    the scales of the live starts are one row-wise call, so a start's
    result does not depend on the others. The scale is re-solved each
    iterate by a Newton solve warm-started at the previous scale, to
    ``scale_rtol``; the returned scale is re-solved at ``final_rtol``. A
    start stops once its scale falls by less than ``scale_rtol`` relative,
    the accuracy each scale is solved to, once its weights all vanish, or
    once its scale reaches zero (exact fit).
    """
    groups, theta, R = list(groups), np.array(theta, dtype=float), R.copy()
    sigma = _solve_s_scale(R.reshape(-1, R.shape[-1]),
                           scale_rtol).reshape(R.shape[:2])
    live = sigma > 0
    for _ in range(max_iter):
        w = np.ones(R.shape)
        w[live] = bisquare_weight(R[live] / sigma[live, None], C_BREAKDOWN)
        # a start whose weights all vanish stops; stopped starts get unit
        # weights
        live &= w.any(axis=-1)
        w[~live] = 1.0
        if not live.any():
            break
        _reweight(groups, theta, R, w, live)
        sigma_live = sigma[live]
        sigma_new = _solve_s_scale(R[live], scale_rtol, guess=sigma_live)
        # the objective is the scale itself: stop once it stalls (the
        # fixed-scale stage polishes the coefficients afterwards)
        sigma[live] = sigma_new
        live[live] = (sigma_new > 0) & (sigma_new < sigma_live * (1 - scale_rtol))
    if final_rtol < scale_rtol:
        rows = sigma > 0
        sigma[rows] = _solve_s_scale(R[rows], final_rtol, guess=sigma[rows])
    return theta, sigma


def _s_stage(P: list[np.ndarray], intercept: bool, models: np.ndarray,
             start0: np.ndarray, subsets: list[np.ndarray]):
    """High-breakdown ``(theta, sigma)`` of each sub-model in ``models``
    (ascending, each with at least one column), from its OLS start (a row
    of ``start0``) and its elemental starts, exact fits to the rows that
    each row of its ``subsets`` entry lists."""
    # fast-S schedule: PREVIEW_STEPS cheap refinement steps for every start,
    # full convergence only for each sub-model's N_FINALISTS most promising
    # candidates. The previews run in batches of sub-models whose blocks of
    # residuals hold at most STACK_CELLS entries; the finalists all at once
    n = P[0].shape[0]
    per = 1 + N_ELEMENTAL_STARTS
    thetas = np.zeros((len(models), per, start0.shape[1]))
    thetas[:, 0] = start0
    sigmas = np.zeros((len(models), per))
    size = max(1, STACK_CELLS // (per * n))
    for lo in range(0, len(models), size):
        b = slice(lo, lo + size)
        # an elemental start is weighted LS under 0/1 row weights; the OLS
        # start keeps its coefficients
        W = np.zeros((len(models[b]), per, n))
        W[:, 0] = 1.0
        for Wk, rows in zip(W[:, 1:], subsets[b]):
            Wk[np.arange(N_ELEMENTAL_STARTS)[:, None], rows] = 1.0
        elemental = np.broadcast_to(np.arange(per) > 0, W.shape[:2])
        groups = _operands(P, models[b], intercept)
        R = _residuals(groups, thetas[b], n)
        _reweight(groups, thetas[b], R, W, elemental)
        thetas[b], sigmas[b] = _irls_s_stage(
            groups, thetas[b], R, max_iter=PREVIEW_STEPS,
            scale_rtol=PREVIEW_RTOL, final_rtol=PREVIEW_RTOL)
    order = np.argsort(sigmas, axis=1, kind="stable")
    lead = np.arange(len(models)), order[:, 0]
    theta, sigma = thetas[lead], np.zeros(len(models))
    # an exact fit (sigma 0) is final: no refinement
    going = np.flatnonzero(sigmas[lead] > 0.0)
    finalists = thetas[going[:, None], order[going, :N_FINALISTS]]
    groups = _operands(P, models[going], intercept)
    th, sg = _irls_s_stage(groups, finalists, _residuals(groups, finalists, n),
                           scale_rtol=FINALIST_RTOL)
    best = np.argmin(sg, axis=1)
    theta[going] = th[np.arange(going.size), best]
    sigma[going] = sg[np.arange(going.size), best]
    return theta, sigma


def _m_stage(P: list[np.ndarray], intercept: bool, ks: np.ndarray,
             theta: np.ndarray, sigma: np.ndarray):
    """Reweighted LS at fixed scale with the wider tuning constant, from
    ``theta`` (one row per sub-model of ``ks``, scale ``sigma[i] > 0``);
    returns ``(theta, converged, iterations)``.

    Each sub-model is a block of one row, and the live rows step through
    :func:`_reweight` until each stops on its own: converged once its
    largest residual move is below ``M_STAGE_TOL`` in units of its scale;
    not converged when a step would raise its objective (a descent
    violation only numerics cause; the previous iterate is kept), when
    all its weights vanish, or at the cap of ``M_STAGE_MAX_ITER`` steps. A
    stopped row is frozen.
    """
    groups = _operands(P, ks, intercept)
    theta = np.array(theta[:, None], dtype=float)
    R = _residuals(groups, theta, P[0].shape[0])
    objective = bisquare_rho(R[:, 0] / sigma[:, None], C_EFFICIENCY).mean(axis=1)
    converged = np.zeros(len(ks), dtype=bool)
    iterations = np.zeros(len(ks), dtype=int)
    live = np.ones((len(ks), 1), dtype=bool)
    for it in range(1, M_STAGE_MAX_ITER + 1):
        if not live.any():
            break
        iterations[live[:, 0]] = it
        w = bisquare_weight(R / sigma[:, None, None], C_EFFICIENCY)
        # a row whose weights all vanish stops
        live &= w.any(axis=-1)
        last_theta, last_R = theta.copy(), R.copy()
        _reweight(groups, theta, R, w, live)
        obj_new = bisquare_rho(R[:, 0] / sigma[:, None],
                               C_EFFICIENCY).mean(axis=1)
        # descent property of reweighting violated only by numerics: the
        # row stops on its previous iterate
        worse = live[:, 0] & (obj_new > objective + 1e-12 * (1 + np.abs(objective)))
        theta[worse], R[worse], live[worse] = last_theta[worse], last_R[worse], False
        step = live[:, 0]
        # scale-free stop: the largest residual move in units of sigma
        delta = np.abs(R[step, 0] - last_R[step, 0]).max(axis=1) / sigma[step]
        objective[step] = obj_new[step]
        converged[step] = delta < M_STAGE_TOL
        live[converged] = False
    return theta[:, 0], converged, iterations


def _checked_inputs(y, X, sets=None):
    """``(y, X, sets)`` for fits of ``y`` on sets of columns of ``X`` (one
    set of all of them when None), after :func:`regression_arrays`, the
    checks of ``sets`` and :func:`require_finite` on the columns read."""
    y, X = regression_arrays(y, X)
    sets = [range(X.shape[1])] if sets is None else sets
    if not len(sets):
        raise ShapeMismatch("'sets' is empty: an ensemble needs a set")
    for k, subset in enumerate(sets):
        _check_set(subset, X.shape[1], f"'sets'[{k}]")
    sets = [[int(j) for j in subset] for subset in sets]
    require_finite(y, X, np.array(sorted(set().union(*sets)), dtype=int))
    return y, X, sets


def _fit_models(designs, y: np.ndarray, intercept: bool,
                seeds: list[int]) -> list[RobustFit]:
    """Two-stage robust fits of ``y`` on each design (an iterable, one per
    seed), run together.

    Each sub-model is prepared, started and stopped as if fitted alone,
    and its fit is bit for bit that of a fit on its own: the stages run
    in three stacked phases (every sub-model's previews, then its
    finalists, then its M-stage), each stacked call keeps every row's
    bits, and a sub-model that stops is frozen.
    """
    P_list, scales, starts, subsets = [], [], [], []
    for X, seed in zip(designs, seeds):
        n, q = X.shape
        if q + int(intercept) >= n:
            raise RankDeficient(f"{q} predictors (+intercept={intercept}) "
                                f"with only {n} rows")
        # [y, X] as one column-major copy, whatever the layout of X, so its
        # bits never depend on the caller's; coefficients, constant and
        # scale are recovered once at the end
        P = np.empty((1 + q, n))
        P[0], P[1:] = y, X.T
        P, means, e = prepare_design(P.T, intercept)
        P_list.append(P)
        scales.append((means, e))
        if q + intercept:
            coef0, _ = ols_fit(P[:, 1:], P[:, 0])
            starts.append(np.concatenate([[0.0], coef0]) if intercept
                          else coef0)
            # each elemental start fits ncol random rows exactly
            rng = make_rng(seed)
            subsets.append(np.array([
                rng.choice(n, size=q + intercept, replace=False)
                for _ in range(N_ELEMENTAL_STARTS)]))
    ncol = np.array([P.shape[1] - 1 + intercept for P in P_list])
    width = int(ncol.max())
    K = len(scales)
    theta = np.zeros((K, width))
    sigma = np.zeros(K)
    converged = np.ones(K, dtype=bool)
    iterations = np.zeros(K, dtype=int)
    empty = np.flatnonzero(ncol == 0)
    if empty.size:
        sigma[empty] = _solve_s_scale(np.stack([P_list[k][:, 0] for k in empty]),
                                      S_SCALE_RTOL)
    models = np.flatnonzero(ncol > 0)
    start0 = np.zeros((models.size, width))
    for row, start in zip(start0, starts):
        row[:start.size] = start
    theta[models], sigma[models] = _s_stage(P_list, intercept, models, start0,
                                            subsets)
    # an exact fit (sigma 0) already interpolates the tightest half
    m = models[sigma[models] > 0.0]
    theta[m], converged[m], iterations[m] = _m_stage(P_list, intercept, m,
                                                     theta[m], sigma[m])
    fits = []
    for k, (means, e) in enumerate(scales):
        th = theta[k, :ncol[k]]
        coef = np.ldexp(th[int(intercept):], e[0] - e[1:])
        b0 = (means[0] + np.ldexp(th[0], e[0]) - means[1:] @ coef
              if intercept else 0.0)
        fits.append(RobustFit(coefficients=coef, intercept=float(b0),
                              scale=float(np.ldexp(sigma[k], e[0])),
                              converged=bool(converged[k]),
                              iterations=int(iterations[k])))
    return fits


def mm_fit(X: np.ndarray, y: np.ndarray, intercept: bool = True,
           seed: int = 0) -> RobustFit:
    """Two-stage robust regression on a (possibly empty) predictor set.

    Both stages run on ``[y, X]`` as one ``prepare_design`` design, so a
    power-of-two rescaling of ``y`` rescales the fit exactly, however far.
    This is :func:`fit_ensemble_models` with one sub-model.

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
        ``converged`` is False when the M-stage stopped for any reason but
        convergence: it hit its iteration cap, a step would have raised
        its objective (the previous iterate is kept), or all its weights
        vanished. The last accepted iterate is returned in each case.

    Raises
    ------
    ShapeMismatch, NonFiniteValue
        As :func:`fit_ensemble_models` raises them.
    RankDeficient
        If the design (centered, with an intercept) is rank deficient.
    """
    y, X, _ = _checked_inputs(y, X)
    return _fit_models([X], y, intercept, [seed])[0]


def fit_ensemble_models(imp_y: np.ndarray, imp_X: np.ndarray,
                        sets: list[list[int]], intercept: bool = True,
                        seed: int = 0) -> EnsembleModel:
    """Robustly fit every sub-model on its selected columns.

    Sub-model k is fitted as :func:`mm_fit` would fit it alone with seed
    ``seed + k``, bit for bit, but all K run their stages together, in
    three stacked phases:

    1. the previews: ``PREVIEW_STEPS`` refinement steps from each
       sub-model's OLS start and its ``N_ELEMENTAL_STARTS`` elemental
       starts, in batches of sub-models whose residuals hold at most
       ``STACK_CELLS`` entries;
    2. the finalists: full S-stage refinement of each sub-model's
       ``N_FINALISTS`` best previews (an exact-fit preview stops here);
    3. the M-stages.

    In each phase every scale solve is one row-wise call over the live
    rows of all sub-models (they share the rows of ``imp_y``), and the
    weighted solves are one stacked call per column count over every row
    of each sub-model with a live row. A row stops on its own rules and
    keeps its coefficients from then on; a sub-model with no live row
    left is solved no more in that phase.

    Raises
    ------
    ShapeMismatch
        Unless ``imp_y`` is a vector and ``imp_X`` a matrix with as many
        rows, for no sets, or naming a set that holds anything but integer
        indices in ``0..p-1`` (as :func:`model_from_json`).
    NonFiniteValue
        Naming the first column a fit reads that holds a NaN or infinite
        cell (0 is ``y``, ``j`` is ``x_j``).
    RankDeficient
        For the first sub-model (in order) with too many columns for the
        rows or a rank-deficient design.
    """
    imp_y, imp_X, sets = _checked_inputs(imp_y, imp_X, sets)
    designs = (imp_X[:, subset] for subset in sets)
    fits = _fit_models(designs, imp_y, intercept,
                       [seed + k for k in range(len(sets))])
    return EnsembleModel(fits=fits, sets=sets, p=imp_X.shape[1],
                         intercept=intercept)


def predict(model: EnsembleModel, Xnew: np.ndarray) -> np.ndarray:
    """Average of the sub-model predictions on new rows.

    Sub-models with empty index sets contribute their intercept (or zero
    when the model carries no intercept).

    Raises
    ------
    ShapeMismatch
        If ``Xnew`` is not a real matrix with the training predictor
        count.
    NonFiniteValue
        Naming the first predictor ``x_j`` of ``Xnew`` (in any column, not
        only the selected ones) that holds a NaN or infinite cell.
    """
    Xnew = real_array(Xnew)
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


def _check_set(subset, p: int, label: str) -> None:
    if not isinstance(subset, (list, tuple, range, np.ndarray)):
        raise ShapeMismatch(f"{label} is not a list")
    wrong = [j for j in subset if not is_integer(j)]
    if wrong:
        raise ShapeMismatch(f"{label} holds {wrong[0]!r}, not an integer index")
    outside = [j for j in subset if not 0 <= j < p]
    if outside:
        raise ShapeMismatch(f"{label} holds index {outside[0]} outside "
                            f"0..{p - 1}")


# per-fit fields holding one scalar per set: (field, check, expected kind)
_SCALAR_FIT_FIELDS = (
    ("intercepts", lambda v: is_number(v) and math.isfinite(v),
     "a finite number"),
    ("scales", lambda v: is_number(v) and math.isfinite(v), "a finite number"),
    ("converged", lambda v: isinstance(v, bool), "a boolean"),
    ("iterations", is_integer, "an integer"),
)


def model_from_json(text: str) -> EnsembleModel:
    """Inverse of :func:`model_to_json`.

    Raises
    ------
    ShapeMismatch
        Naming the field, when the text is not a JSON object of the current
        schema, a field is missing, ``p`` is not a positive integer,
        ``intercept`` is not a boolean, a per-fit field is not a list with one entry per set, a set is not a
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
    if not is_integer(p) or p < 1:
        raise ShapeMismatch(f"model field 'p' is {p!r}, not a positive integer")
    if not isinstance(doc["intercept"], bool):
        raise ShapeMismatch(f"model field 'intercept' is {doc['intercept']!r}, "
                            f"not a boolean")
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
        _check_set(subset, p, f"model field 'sets'[{k}]")
        if not isinstance(coef, list):
            raise ShapeMismatch(f"model field 'coefficients'[{k}] is not a list")
        if len(coef) != len(subset):
            raise ShapeMismatch(
                f"model field 'coefficients'[{k}] has {len(coef)} entries "
                f"for {len(subset)} indices in 'sets'[{k}]")
        wrong = [c for c in coef if not (is_number(c) and math.isfinite(c))]
        if wrong:
            raise ShapeMismatch(f"model field 'coefficients'[{k}] holds "
                                f"{wrong[0]!r}, not a finite number")
    fits = [
        RobustFit(coefficients=np.asarray(c, dtype=float), intercept=b,
                  scale=s, converged=cv, iterations=it)
        for c, b, s, cv, it in zip(*(doc[key] for key in _MODEL_FIT_FIELDS))
    ]
    return EnsembleModel(fits=fits, sets=[list(s) for s in sets],
                         p=p, intercept=doc["intercept"])
