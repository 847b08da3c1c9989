"""Competitive ensemble selection arbitrated by cross-validation.

``K`` sub-models share one global pool of predictors. Each round, every
sub-model asks its correlation-space path for the predictor it would add
next; the predictive benefit of each candidate move is measured by
v-fold cross-validated least squares on the imputed data, and the single
best move wins the round. The winner's model takes the predictor (which
leaves the pool for everyone), updates its path state, and the loop
continues until the best relative benefit falls below the tolerance
``tau`` or no moves remain. Because every predictor is assigned at most
once, the returned sets are disjoint by construction.

One fixed fold assignment is drawn up front and reused for every
cross-validation call in the run, which makes benefits comparable across
models and rounds and makes the whole procedure a deterministic function
of (inputs, seed).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import corrlars
from .cellwise import CorrelationStructure, ImputationResult
from .errors import (InvalidConfig, InvariantViolation, NotPositiveDefinite,
                     RankDeficient, ShapeMismatch, is_integer,
                     require_booleans, require_integers, require_numbers)
# ols_fit is unused here but stays importable: perfbench/tracing.py wraps it
from .linalg import PIVOT_RTOL, ols_fit, prepare_design  # noqa: F401
from .rng import make_rng

STOP_BELOW_TOLERANCE = "BelowTolerance"
STOP_NO_CANDIDATES = "NoCandidates"
STOP_POOL_EXHAUSTED = "PoolExhausted"
STOP_MAX_VARS = "MaxVars"


@dataclass(frozen=True)
class SelectionConfig:
    """Ensemble selection settings.

    K : number of sub-models competing for predictors
    tau : minimum relative cross-validation improvement to keep going
    cv_folds : folds for the least-squares arbitration
    max_vars : cap on the total number of selected predictors; defaults
        to ``min(n - cv_folds, p)`` so every final fit stays overdetermined
    intercept : include an intercept in the internal least-squares fits
        (and in the final robust fits)
    seed : drives the fold assignment and random tie-breaking
    """

    K: int = 10
    tau: float = 0.01
    cv_folds: int = 5
    max_vars: Optional[int] = None
    intercept: bool = True
    seed: int = 0

    def validate(self, n: Optional[int] = None, p: Optional[int] = None) -> None:
        """Check the settings; the bounds set by the data's ``n`` and ``p``
        only when they are given."""
        require_integers(self, ("K", "cv_folds", "seed"))
        require_booleans(self, ("intercept",))
        require_numbers(self, ("tau",))
        if self.max_vars is not None:
            require_integers(self, ("max_vars",))
        if self.K < 1:
            raise InvalidConfig(f"K={self.K} must be >= 1")
        if not self.tau > 0:
            raise InvalidConfig(f"tau={self.tau} must be positive")
        if self.cv_folds < 2:
            raise InvalidConfig(f"cv_folds={self.cv_folds} must be >= 2")
        if self.max_vars is not None and self.max_vars < 0:
            raise InvalidConfig(f"max_vars={self.max_vars} must be >= 0")
        if n is not None and self.cv_folds > n:
            raise InvalidConfig(f"cv_folds={self.cv_folds} exceeds n={n}")
        if p is not None and self.max_vars is not None and self.max_vars > p:
            raise InvalidConfig(f"max_vars={self.max_vars} exceeds p={p}")

    def resolved_max_vars(self, n: int, p: int) -> int:
        if self.max_vars is not None:
            return self.max_vars
        return min(n - self.cv_folds, p)


@dataclass
class Proposal:
    """One sub-model's candidate move in a round."""

    model: int
    candidate: int
    gamma: float
    benefit: float
    lars: corrlars.LarsProposal
    cv_new: float


@dataclass
class CompetitionRecord:
    """Everything that happened in one round of the tournament."""

    iteration: int
    proposals: list[Proposal]
    winner: Optional[tuple[int, int]] = None
    stop_reason: Optional[str] = None


@dataclass
class SelectionResult:
    """Disjoint selected index sets plus the full per-round trace."""

    sets: list[list[int]]
    trace: list[CompetitionRecord]
    stop_reason: str

    def union(self) -> set[int]:
        return set().union(*self.sets)

    def winner_sequence(self) -> list[tuple[int, int]]:
        return [rec.winner for rec in self.trace if rec.winner is not None]


def fold_assignment(n: int, v: int, rng: np.random.Generator) -> np.ndarray:
    """Random partition of ``n`` rows into ``v`` near-equal folds.

    Returns an integer label array; fold sizes differ by at most one.
    """
    if not is_integer(v):
        raise InvalidConfig(f"cv_folds={v!r} must be an integer")
    if v < 1 or v > n:
        raise InvalidConfig(f"cv_folds={v} outside [1, n={n}]")
    labels = np.empty(n, dtype=int)
    for f, rows in enumerate(np.array_split(rng.permutation(n), v)):
        labels[rows] = f
    return labels


@dataclass(frozen=True)
class _CVDesign:
    """A run's one cross-validation layout.

    ``D`` is all of ``[y, X]`` (``imp.Z_imp``, C-ordered) as one
    :func:`~cellens.linalg.prepare_design` design, prepared once per run;
    every score reads its columns, so a subset's score does not depend on
    which other columns it is scored with. ``e_y`` is the exponent of
    ``y``'s power-of-two scale; ``train`` (v, n) is 1.0 on fold f's
    training rows in row f and 0.0 elsewhere, and ``ty`` is ``train * y``.
    ``held`` indexes each row's own fold in a flattened (v, n) array.
    """

    D: np.ndarray
    e_y: int
    held: np.ndarray
    train: np.ndarray
    ty: np.ndarray
    min_train: int


@dataclass
class _CVFit:
    """The out-of-fold least-squares fit of a subset, kept so that a move
    borders it by one column instead of refactoring v fold Grams.

    pred : (n,); row i predicted by the fit that holds out its fold
    err : mean squared out-of-fold error, in prepared units

    A bordered fit holds its parent's basis and its own new row, and joins
    them on the first call of :meth:`basis`: a move that never wins keeps
    one (v, n) row, not a copy of its model's basis.
    """

    pred: np.ndarray
    err: float
    _basis: np.ndarray
    _row: Optional[np.ndarray] = None

    def basis(self) -> np.ndarray:
        """(v, q, n); slice f is ``L_f^-1 X_S'`` over all n rows, for the
        Cholesky factor ``L_f`` of fold f's training Gram of the subset's
        columns in subset order: on the training rows its rows are
        orthonormal."""
        if self._row is not None:
            self._basis = np.concatenate([self._basis, self._row[:, None, :]],
                                         axis=1)
            self._row = None
        return self._basis


def _cv_design(Z: np.ndarray, folds: np.ndarray,
               intercept: bool) -> _CVDesign:
    """The :class:`_CVDesign` of the (n, C) matrix ``Z``, response in
    column 0, under the fold labels ``folds``."""
    D, _, e = prepare_design(np.ascontiguousarray(Z, dtype=float), intercept)
    n = len(folds)
    v = int(folds.max()) + 1
    train = (folds != np.arange(v)[:, None]).astype(float)
    min_train = n - int(np.bincount(folds, minlength=v).max())
    return _CVDesign(D=D, e_y=int(e[0]), held=folds * n + np.arange(n),
                     train=train, ty=train * D[:, 0], min_train=min_train)


def _cv_fit(cv: _CVDesign, subset: list[int],
            parent: Optional[_CVFit]) -> _CVFit:
    """The fit of ``subset``, bordered from ``parent``, the fit of
    ``subset[:-1]`` (None for the empty subset, which predicts 0: the
    prepared ``y`` is centered with an intercept).

    With ``t`` fold f's training mask and ``x`` the new column, ``l = W
    (t x)`` for the parent's basis ``W`` is the new row of ``L_f`` and
    ``s = d - |l|^2``, ``d = |t x|^2``, its squared last pivot. So ``s / d``
    is exactly the new column's Cholesky pivot ratio (1 - R^2 on the
    earlier columns), and the degeneracy rule of
    :func:`~cellens.linalg.solve_spd` applies as it stands. The new basis
    row is ``(x - W' l) / sqrt(s)``, and each fold's predictions gain its
    projection times its inner product with the training ``y``.

    Raises
    ------
    RankDeficient
        If a fold's pivot ratio ``s / d`` is at most ``PIVOT_RTOL``.
    """
    y = cv.D[:, 0]
    n = len(y)
    if parent is None:
        pred, W, row = np.zeros(n), np.empty((len(cv.train), 0, n)), None
    else:
        W = parent.basis()
        x = cv.D[:, subset[-1] + 1]
        tx = cv.train * x
        lrow = np.einsum("fqn,fn->fq", W, tx)
        d = np.einsum("fn,fn->f", tx, tx)
        s = d - np.einsum("fq,fq->f", lrow, lrow)
        bad = s <= PIVOT_RTOL * d
        if bad.any():
            f = int(np.argmax(bad))
            ratio = s[f] / d[f] if d[f] > 0 else 0.0
            raise RankDeficient(
                f"pivot ratio {ratio:.3e} of column {subset[-1]} in fold "
                f"{f} is at most {PIVOT_RTOL:.0e}"
            )
        row = x - np.einsum("fq,fqn->fn", lrow, W)
        row /= np.sqrt(s)[:, None]
        gain = np.einsum("fn,fn->f", row, cv.ty)
        pred = parent.pred + (row * gain[:, None]).take(cv.held)
    return _CVFit(pred=pred, err=float(((y - pred) ** 2).sum() / n),
                  _basis=W, _row=row)


def cv_error(imp: ImputationResult, subset, folds: np.ndarray,
             intercept: bool) -> float:
    """Out-of-fold mean squared error of least squares on a predictor subset.

    ``y`` and the subset's columns are one ``prepare_design`` design, with
    the bits a run's whole ``[y, X]`` design gives them (see
    :class:`_CVDesign`), so one call costs O(n * len(subset)) to prepare.
    Its full-sample centering absorbs the intercept before the per-fold
    origin fits, which makes the arbitration exactly location-invariant
    (per-fold constants would not: training-fold means of centered data
    are O(1/sqrt(n)) away from zero and flip near-boundary decisions). The
    error is in units of y², exact from ``y``'s exponent. The empty subset
    predicts the global mean (with ``intercept``) or zero. The fit is
    bordered from the empty subset one column at a time, in the order of
    ``subset``, by the code a tournament move runs (:func:`_cv_fit`), so a
    move's recorded ``cv_new`` equals this function's value bit for bit.
    Each row is predicted by the fit that holds out its fold.

    Raises
    ------
    RankDeficient
        If a column's pivot ratio in any fold's training design is at most
        ``PIVOT_RTOL``; callers treat the proposal as having benefit -inf
        rather than aborting the run.
    InvalidConfig
        Naming ``subset``, if an entry is not an integer or not a predictor
        index, or if the subset is too large for the smallest training
        fold; naming ``folds``, if a label is not an integer in [0, n).
    ShapeMismatch
        Naming ``folds``, unless it holds one label per row.
    """
    n, C = imp.Z_imp.shape
    subset = list(subset)
    for j in subset:
        if not is_integer(j):
            raise InvalidConfig(f"subset entry {j!r} must be an integer")
        if not 0 <= j < C - 1:
            raise InvalidConfig(f"subset entry {j} is not in [0, p={C - 1})")
    subset = [int(j) for j in subset]
    folds = np.asarray(folds)
    if folds.shape != (n,):
        raise ShapeMismatch(f"folds has shape {folds.shape}, expected ({n},)")
    if folds.dtype.kind not in "iu" or ((folds < 0) | (folds >= n)).any():
        raise InvalidConfig(f"folds must hold integer labels in [0, n={n})")
    # y and the subset's columns, in subset order, prepared as in the whole
    # design; an empty subset keeps one predictor, as numpy sums a lone
    # column pairwise and a wider array row by row
    cols = [0] + [j + 1 for j in subset] if subset else [0, 1]
    cv = _cv_design(imp.Z_imp[:, cols], folds, intercept)
    if len(subset) + int(intercept) >= cv.min_train:
        raise InvalidConfig(
            f"subset of size {len(subset)} (+intercept={intercept}) needs more "
            f"than {cv.min_train} training rows per fold"
        )
    fit = _cv_fit(cv, [], None)
    for q, j in enumerate(subset):
        try:
            fit = _cv_fit(cv, list(range(q + 1)), fit)
        except RankDeficient as exc:
            # name the predictor, not its column in the narrow design
            raise RankDeficient(str(exc).replace(
                f"of column {q} in", f"of column {j} in")) from None
    return _in_y2_units(fit.err, cv.e_y)


def _in_y2_units(x: float, e: int) -> float:
    """A prepared-units error or gain ``x`` in units of y², ``x * 2**(2 e)``:
    exact, and infinite beyond the float range."""
    try:
        return math.ldexp(x, 2 * e)
    except OverflowError:
        return math.copysign(math.inf, x)


def run_selection(structure: CorrelationStructure, imp: ImputationResult,
                  cfg: SelectionConfig) -> SelectionResult:
    """Run the full K-model competition.

    Only the round's winner changes state, and a move (``corrlars.propose``
    plus its cross-validation score) is a function of the path state: the
    pool enters it only through the choice of candidate and step, which
    changes only when the candidate leaves. So one move is kept per active
    set, and it is dropped when the winner takes its candidate. Only empty
    models share a set, as the sets are disjoint; each records the shared
    move as its own ``Proposal`` on the same ``lars``. A model that sits out a round
    (at fold-training capacity, collinear active set, or no finite step)
    sits out for the rest of the run: none of these depend on the pool,
    and a model that makes no proposal cannot win and change its state.

    No move makes a LAPACK call once its model's direction is known. The
    model's ``SubModelState`` keeps its equiangular direction and entry
    steps, so a model that lost its candidate proposes again by an argmin
    over the pool alone. Each model also keeps its current
    cross-validation fit (per fold, the whitened columns and the
    out-of-fold predictions, on ``imp.Z_imp`` prepared once for the run),
    and a move borders it by the candidate's column (:func:`_cv_fit`); a
    pivot ratio at most ``PIVOT_RTOL`` in any fold makes the move rank
    deficient. The winning move's fit becomes its model's, and the fit it
    replaces is dropped with the moves on the taken candidate. So a
    recorded ``cv_new`` equals :func:`cv_error` of the model's active set
    plus the candidate, bit for bit.

    Scores and every decision (best benefit, ties, ``tau``) are in units
    of the prepared ``y`` (``y`` scaled by its ``prepare_design`` power of
    two), so no square of ``y`` overflows or underflows; ``Proposal.benefit``
    and ``cv_new`` are exact in units of y² (inf only beyond the float
    range).

    Parameters
    ----------
    structure : CorrelationStructure
        Response correlations and the predictor correlation columns the
        path engines read.
    imp : ImputationResult
        Cleaned data for the cross-validation arbiter.
    cfg : SelectionConfig

    Returns
    -------
    SelectionResult

    Raises
    ------
    InvariantViolation
        Naming the response, when the empty model's cross-validation error
        is not finite; naming the model and candidate, when a proposal
        scores a non-finite error (a rank-deficient subset is not such a
        case: its proposal gets benefit -inf).
    """
    p = len(structure.r_y)
    n = imp.Z_imp.shape[0]
    cfg.validate(n, p)
    if structure.U.shape[1] != p + 1:
        raise InvalidConfig("correlation columns and r_y disagree on p")
    if imp.X_imp.shape[1] != p:
        raise InvalidConfig("imputed data and correlations disagree on p")
    max_vars = cfg.resolved_max_vars(n, p)
    rng = make_rng(cfg.seed)
    cv = _cv_design(imp.Z_imp, fold_assignment(n, cfg.cv_folds, rng),
                    cfg.intercept)

    states = [corrlars.SubModelState.initial(structure.r_y) for _ in range(cfg.K)]
    available = np.arange(p)
    empty = _cv_fit(cv, [], None)
    if not np.isfinite(empty.err):
        raise InvariantViolation(
            f"cross-validation error of the empty model is {empty.err}: the "
            f"response y holds a non-finite cell"
        )
    fits = [empty] * cfg.K  # each model's current fit, errors in prepared units
    trace: list[CompetitionRecord] = []

    def fresh_move(k: int) -> Optional[tuple[Proposal, float, Optional[_CVFit]]]:
        """Model k's move on the current pool, with its gain in prepared
        units and its bordered fit (None when rank deficient); None when
        it sits out."""
        # A model at fold-training capacity stops proposing; the rest
        # keep competing.
        if len(states[k].active) + 1 + int(cfg.intercept) >= cv.min_train:
            return None
        try:
            prop = corrlars.propose(structure, states[k], available)
        except NotPositiveDefinite:
            return None
        if prop.candidate is None:
            return None
        try:
            fit = _cv_fit(cv, states[k].active + [prop.candidate], fits[k])
        except RankDeficient:
            fit, new_cv, gain = None, np.inf, -np.inf
        else:
            new_cv = fit.err
            if not np.isfinite(new_cv):
                raise InvariantViolation(
                    f"model {k}: cross-validation error of candidate "
                    f"{prop.candidate} is {new_cv}"
                )
            gain = fits[k].err - new_cv
        return (Proposal(model=k, candidate=prop.candidate, gamma=prop.step,
                         benefit=_in_y2_units(gain, cv.e_y), lars=prop,
                         cv_new=_in_y2_units(new_cv, cv.e_y)),
                gain, fit)

    # one move per active set (None: its models sit out); see the docstring
    moves: dict[tuple, Optional[tuple[Proposal, float, Optional[_CVFit]]]] = {}

    while True:
        # checked before each round, so a limit that a winner reaches is
        # reported on the winner's round
        if not len(available):
            stop_reason = STOP_POOL_EXHAUSTED
            break
        if p - len(available) >= max_vars:
            stop_reason = STOP_MAX_VARS
            break
        record = CompetitionRecord(iteration=len(trace) + 1, proposals=[])
        trace.append(record)
        gains = []
        for k in range(cfg.K):
            key = tuple(states[k].active)
            if key not in moves:
                moves[key] = fresh_move(k)
            if moves[key] is not None:
                prop, gain, _ = moves[key]
                record.proposals.append(prop if prop.model == k
                                        else replace(prop, model=k))
                gains.append(gain)
        if not record.proposals:
            stop_reason = STOP_NO_CANDIDATES
            break
        best = max(gains)
        tied = [pr for pr, gain in zip(record.proposals, gains) if gain == best]
        if len(tied) > 1:
            # exactly one uniform draw per tie event keeps seeded runs
            # reproducible regardless of how many proposals tie
            u = rng.random()
            pick = tied[min(int(u * len(tied)), len(tied) - 1)]
        else:
            pick = tied[0]
        base = fits[pick.model].err
        accept = best > 0 and base > 0 and best / base > cfg.tau
        if not accept:
            stop_reason = STOP_BELOW_TOLERANCE
            break
        # the winning move's fit becomes the model's; the fit it replaces
        # and every move on the taken candidate are dropped
        fits[pick.model] = moves[tuple(states[pick.model].active)][2]
        states[pick.model] = corrlars.apply_step(states[pick.model], pick.lars,
                                                 available)
        available = available[available != pick.candidate]
        record.winner = (pick.model, pick.candidate)
        moves = {key: move for key, move in moves.items()
                 if move is None or move[0].candidate != pick.candidate}

    if not trace:  # a limit reached before the first round
        trace.append(CompetitionRecord(iteration=1, proposals=[]))
    trace[-1].stop_reason = stop_reason
    sets = [list(state.active) for state in states]
    return SelectionResult(sets=sets, trace=trace, stop_reason=stop_reason)


def trace_to_csv(result: SelectionResult, path: str) -> None:
    """Write the competition trace, one row per proposal."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "model", "candidate", "gamma", "benefit",
                         "winner", "stop_reason"])
        for rec in result.trace:
            for pr in rec.proposals:
                is_winner = rec.winner is not None and rec.winner == (pr.model,
                                                                      pr.candidate)
                writer.writerow([
                    rec.iteration, pr.model, pr.candidate, repr(pr.gamma),
                    repr(pr.benefit), int(is_winner), rec.stop_reason or "",
                ])
            if not rec.proposals:
                writer.writerow([rec.iteration, "", "", "", "", 0,
                                 rec.stop_reason or ""])
