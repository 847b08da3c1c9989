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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import corrlars
from .cellwise import CorrelationStructure, ImputationResult
from .errors import (InvalidConfig, InvariantViolation, NotPositiveDefinite,
                     RankDeficient, require_booleans, require_integers,
                     require_numbers)
# ols_fit is unused here but stays importable: perfbench/tracing.py wraps it
from .linalg import ols_fit, prepare_design, solve_spd  # noqa: F401
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
    if v < 1 or v > n:
        raise InvalidConfig(f"cv_folds={v} outside [1, n={n}]")
    labels = np.empty(n, dtype=int)
    for f, rows in enumerate(np.array_split(rng.permutation(n), v)):
        labels[rows] = f
    return labels


def cv_error(imp: ImputationResult, subset, folds: np.ndarray,
             intercept: bool) -> float:
    """Out-of-fold mean squared error of least squares on a predictor subset.

    ``[y, X_S]`` is one ``prepare_design`` design. Its full-sample centering
    absorbs the intercept before the per-fold origin fits, which makes the
    arbitration exactly location-invariant (per-fold constants would not:
    training-fold means of centered data are O(1/sqrt(n)) away from zero
    and flip near-boundary decisions). The error is in units of y², exact
    from ``y``'s exponent. The empty subset predicts the global mean (with
    ``intercept``) or zero. All ``v`` training Grams are one stack solved
    by ``solve_spd``; each row is predicted by the fit that holds it out.

    Raises
    ------
    RankDeficient
        If any fold's design is singular; callers treat the proposal as
        having benefit -inf rather than aborting the run.
    InvalidConfig
        If the subset is too large for the smallest training fold.
    """
    err, e = _prepared_cv_error(imp, subset, folds, intercept)
    return float(np.ldexp(err, 2 * e))


def _prepared_cv_error(imp: ImputationResult, subset, folds: np.ndarray,
                       intercept: bool) -> tuple[float, int]:
    """:func:`cv_error` in units of the prepared ``y``: returns the error
    and the exponent ``e`` of ``y``'s power-of-two scale, so that the error
    in units of y² is ``2**(2 e)`` times it, exactly."""
    subset = list(subset)
    n = imp.Z_imp.shape[0]
    v = int(folds.max()) + 1
    min_train = n - max(np.bincount(folds, minlength=v))
    if len(subset) + int(intercept) >= min_train:
        raise InvalidConfig(
            f"subset of size {len(subset)} (+intercept={intercept}) needs more "
            f"than {min_train} training rows per fold"
        )
    D, _, e = prepare_design(imp.Z_imp[:, [0] + [j + 1 for j in subset]], intercept)
    y, X = D[:, 0], D[:, 1:]
    pred = 0.0
    if subset:
        # slice f of the (v, q, n) stack is X.T with fold f's rows zeroed,
        # so its products with X and y are fold f's training Gram and moment
        train = (folds != np.arange(v)[:, None]).astype(float)
        Xt = np.ascontiguousarray(X.T) * train[:, None, :]
        try:
            coef = solve_spd(Xt @ X, Xt @ y)
        except NotPositiveDefinite as exc:
            raise RankDeficient(str(exc)) from exc
        # row i is predicted by the fit that held out its fold
        pred = (X @ coef.T)[np.arange(n), folds]
    return float(((y - pred) ** 2).sum() / n), int(e[0])


def run_selection(structure: CorrelationStructure, imp: ImputationResult,
                  cfg: SelectionConfig) -> SelectionResult:
    """Run the full K-model competition.

    Only the round's winner changes state, and a move (``corrlars.propose``
    plus ``cv_error``) is a function of the path state: the pool enters it
    only through the choice of candidate and step, which changes only when
    the candidate leaves. So one move is kept per active set, and it is
    dropped when the winner takes its candidate. Only empty models share
    a set, as the sets are disjoint; each records the shared move as its
    own ``Proposal`` on the same ``lars``. A model that sits out a round
    (at fold-training capacity, collinear active set, or no finite step)
    sits out for the rest of the run: none of these depend on the pool,
    and a model that makes no proposal cannot win and change its state.

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
        is not finite; naming the model and candidate, when ``cv_error``
        scores a proposal with a non-finite error (a rank-deficient subset
        is not such a case: its proposal gets benefit -inf).
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
    folds = fold_assignment(n, cfg.cv_folds, rng)
    min_train = n - max(np.bincount(folds, minlength=cfg.cv_folds))

    states = [corrlars.SubModelState.initial(structure.r_y) for _ in range(cfg.K)]
    available = np.arange(p)
    empty_cv, e_y = _prepared_cv_error(imp, [], folds, cfg.intercept)
    if not np.isfinite(empty_cv):
        raise InvariantViolation(
            f"cross-validation error of the empty model is {empty_cv}: the "
            f"response y holds a non-finite cell"
        )
    current_cv = [empty_cv] * cfg.K  # each model's prepared-units error
    trace: list[CompetitionRecord] = []

    def fresh_move(k: int) -> Optional[tuple[Proposal, float, float]]:
        """Model k's move on the current pool, with its gain and error in
        prepared units; None when it sits out."""
        # A model at fold-training capacity stops proposing; the rest
        # keep competing.
        if len(states[k].active) + 1 + int(cfg.intercept) >= min_train:
            return None
        try:
            prop = corrlars.propose(structure, states[k], available)
        except NotPositiveDefinite:
            return None
        if prop.candidate is None:
            return None
        try:
            new_cv = _prepared_cv_error(imp, states[k].active + [prop.candidate],
                                        folds, cfg.intercept)[0]
        except RankDeficient:
            new_cv = np.inf
            gain = -np.inf
        else:
            if not np.isfinite(new_cv):
                raise InvariantViolation(
                    f"model {k}: cross-validation error of candidate "
                    f"{prop.candidate} is {new_cv}"
                )
            gain = current_cv[k] - new_cv
        with np.errstate(over="ignore"):
            benefit, cv_new = np.ldexp([gain, new_cv], 2 * e_y)
        return (Proposal(model=k, candidate=prop.candidate, gamma=prop.step,
                         benefit=float(benefit), lars=prop, cv_new=float(cv_new)),
                gain, new_cv)

    # one move per active set (None: its models sit out); see the docstring
    moves: dict[tuple, Optional[tuple[Proposal, float, float]]] = {}

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
        base = current_cv[pick.model]
        accept = best > 0 and base > 0 and best / base > cfg.tau
        if not accept:
            stop_reason = STOP_BELOW_TOLERANCE
            break
        current_cv[pick.model] = moves[tuple(states[pick.model].active)][2]
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
