"""Least-angle regression driven entirely by correlations.

The classical LARS path can be traced without touching the data matrix:
given the predictor correlation matrix ``R_X`` and the current vector of
residual correlations, the equiangular direction, the inner products of
every candidate with that direction, and the exact step size at which
the next predictor ties the active set are all closed-form. Each
sub-model of the ensemble keeps one such path state and asks
:func:`propose` for its next candidate; :func:`apply_step` advances the
state once an arbiter accepts the move.

The engine reads ``R_X`` only through the columns of active predictors,
by ``corr.columns(idx)`` (``R_X[:, idx]``, shape (p, len(idx))). A fit
passes its :class:`~cellens.cellwise.CorrelationStructure`, which forms
those columns on demand; a dense matrix is wrapped in
:class:`DenseCorrelation`.

State conventions
-----------------
``corr_state`` holds the current residual correlation for every
predictor; ``active_level`` is the shared absolute correlation of the
active set. A variable's entry works in two regimes:

- first entry (empty active set): the max-correlation predictor joins at
  level ``|corr_state[j]|`` without moving the path, exactly as in the
  classical algorithm;
- later entries: the path advances by the minimal positive step ``gamma``
  along the equiangular direction, which lowers every correlation:
  available entries by ``gamma * a_j`` and active entries (including the
  stored level) by ``gamma * a_k``, keeping all active correlations tied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvariantViolation, NotPositiveDefinite
from .linalg import solve_spd

EQUICORR_TOL = 1e-8


@dataclass
class SubModelState:
    """One sub-model's position on its correlation-space path.

    ``direction`` is kept by :func:`propose`: the correlation structure it
    read, ``a_k`` and ``inner`` of a nonempty active set's equiangular
    direction and every predictor's entry step along it, computed on the
    first proposal from this state and reused by every later one on the
    same structure (all depend on the state alone). :meth:`copy` and
    :func:`apply_step` return states without it.
    """

    corr_state: np.ndarray
    active: list[int] = field(default_factory=list)
    signs: list[float] = field(default_factory=list)
    active_level: float = 0.0
    direction: Optional[tuple] = field(default=None, repr=False, compare=False)

    @classmethod
    def initial(cls, r_y: np.ndarray) -> "SubModelState":
        return cls(corr_state=np.asarray(r_y, dtype=float).copy())

    def copy(self) -> "SubModelState":
        return SubModelState(
            corr_state=self.corr_state.copy(),
            active=list(self.active),
            signs=list(self.signs),
            active_level=self.active_level,
        )


@dataclass
class LarsProposal:
    """Outcome of one proposer call.

    candidate : index of the predictor that would enter, or None when no
        finite step exists
    step : entry step size (the entry correlation level on a first step)
    inner : length-p array; entry ``j`` is the inner product ``a_j`` of
        predictor ``j`` with the equiangular direction, a function of the
        path state alone
    entry_sign : sign the candidate would carry on entry
    a_active : shared inner product ``a_k`` of the signed active set with
        the equiangular direction (1.0 on a first step)
    """

    candidate: Optional[int]
    step: float
    inner: np.ndarray
    entry_sign: float
    a_active: float


@dataclass
class DenseCorrelation:
    """A dense p x p ``R_X`` behind the engine's column accessor.

    For oracles, tests and examples that hold the whole matrix; a fit
    reads a :class:`~cellens.cellwise.CorrelationStructure` instead.
    """

    R_X: np.ndarray

    def columns(self, idx) -> np.ndarray:
        return self.R_X[:, list(idx)]


def _geometry(sub: np.ndarray, signs):
    """Normalization ``a_k`` and weights ``w_k`` of the equiangular direction.

    With ``A = D R_S D`` (the active submatrix ``sub`` of ``R_X``, signed),
    ``a_k = (1' A^-1 1)^(-1/2)`` and ``w_k = a_k * A^-1 1``.

    Raises
    ------
    NotPositiveDefinite
        If ``A`` is not positive definite, i.e. the active predictors are
        exactly collinear.
    """
    s = np.asarray(signs, dtype=float)
    A = sub * np.outer(s, s)
    ones = np.ones(len(s))
    u = solve_spd(A, ones)
    total = float(ones @ u)
    if total <= 0:
        raise NotPositiveDefinite("signed correlation submatrix is indefinite")
    a_k = 1.0 / np.sqrt(total)
    w_k = a_k * u
    return a_k, w_k


def propose(corr, state: SubModelState,
            available: np.ndarray) -> LarsProposal:
    """Find the next predictor to join this sub-model's path.

    Parameters
    ----------
    corr : CorrelationStructure or DenseCorrelation
        The predictor correlations, read only as ``corr.columns(idx)``:
        the candidate's column on a first step, the active set's columns
        after.
    state : SubModelState
    available : integer ndarray of candidate predictor indices in
        ascending order, disjoint from every active set; ascending order
        makes "lowest index wins" the literal tie rule

    Returns
    -------
    LarsProposal
        With ``candidate=None`` and ``step=inf`` when every step size is
        infinite (no predictor can tie the active correlation).

    Notes
    -----
    ``inner`` covers all p predictors and depends only on ``state``, bit
    for bit: it is computed over all p rows in one fixed layout (a BLAS
    matrix-vector product may round a row differently depending on where
    the row sits in the matrix). The pool enters only through the argmin
    that picks the candidate and its step, so removing any predictor
    other than the candidate leaves the whole proposal unchanged.

    So the direction ``(a_k, inner)`` of a nonempty active set, and every
    predictor's entry step along it, are computed once per state: the
    first call stores them on ``state.direction``, and later calls on the
    same ``corr`` take only the argmin over the pool, returning the same
    ``inner`` array.
    """
    r = state.corr_state
    if not state.active:
        j_star = int(available[np.argmax(np.abs(r[available]))])
        sign = 1.0 if r[j_star] >= 0 else -1.0
        inner = sign * corr.columns([j_star])[:, 0]
        return LarsProposal(candidate=j_star, step=float(abs(r[j_star])),
                            inner=inner, entry_sign=sign, a_active=1.0)
    if state.direction is None or state.direction[0] is not corr:
        cols = corr.columns(state.active)
        a_k, w_k = _geometry(cols[state.active], state.signs)
        s = np.asarray(state.signs, dtype=float)
        inner = (cols * s) @ w_k
        level = state.active_level
        # every predictor's entry step, elementwise; the active ones are
        # never read (their denominators are rounding noise)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gp = np.where(a_k - inner > 0, (level - r) / (a_k - inner), np.inf)
            gm = np.where(a_k + inner > 0, (level + r) / (a_k + inner), np.inf)
        state.direction = (corr, a_k, inner, np.minimum(gp, gm))
    _, a_k, inner, gamma = state.direction
    gamma = gamma[available]
    best = int(np.argmin(gamma))
    step = float(gamma[best])
    if not np.isfinite(step):
        return LarsProposal(candidate=None, step=np.inf, inner=inner,
                            entry_sign=1.0, a_active=float(a_k))
    j_star = int(available[best])
    post = r[j_star] - step * inner[j_star]
    entry_sign = 1.0 if abs(post) < 1e-12 else float(np.sign(post))
    return LarsProposal(candidate=j_star, step=step, inner=inner,
                        entry_sign=entry_sign, a_active=float(a_k))


def apply_step(state: SubModelState, prop: LarsProposal,
               available: np.ndarray) -> SubModelState:
    """Advance a path state by an accepted proposal, returning a new state.

    ``available`` is the current ascending pool, which must contain the
    candidate. A first entry does not move the path: the candidate joins
    at its entry correlation as the active level. A later entry drops the
    available correlations by ``step * a_j``, the active ones and the
    level by ``step * a_k``, and the candidate joins with its entry sign.

    Raises
    ------
    InvariantViolation
        If the proposal has no candidate, the candidate is not in
        ``available``, or the candidate's post-step correlation does not
        match the updated active level within tolerance (numerical
        breakdown).
    """
    if prop.candidate is None:
        raise InvariantViolation("cannot apply a proposal without a candidate")
    j_star = int(prop.candidate)
    if j_star not in available:
        raise InvariantViolation(f"candidate {j_star} is not in the available pool")
    new = state.copy()
    if not state.active:
        new.active_level = float(abs(new.corr_state[j_star]))
        new.active.append(j_star)
        new.signs.append(prop.entry_sign)
        return new
    step = prop.step
    new.corr_state[available] -= step * prop.inner[available]
    new.corr_state[state.active] -= step * np.asarray(state.signs) * prop.a_active
    new.active_level = state.active_level - step * prop.a_active
    if abs(abs(new.corr_state[j_star]) - new.active_level) > EQUICORR_TOL:
        raise InvariantViolation(
            f"entry correlation {abs(new.corr_state[j_star]):.3e} does not match "
            f"active level {new.active_level:.3e}"
        )
    new.active.append(j_star)
    new.signs.append(prop.entry_sign)
    return new


def greedy_path(R_X: np.ndarray, r_y: np.ndarray, steps: int):
    """Trace a single unconditionally-accepted path on a dense ``R_X``;
    test/diagnostic hook.

    Returns
    -------
    (entry_order, step_sizes, states) : (list[int], list[float], list[SubModelState])
        ``states[t]`` is the state after the t-th accepted entry.
    """
    p = len(r_y)
    corr = DenseCorrelation(np.asarray(R_X, dtype=float))
    state = SubModelState.initial(r_y)
    available = np.arange(p)
    order: list[int] = []
    sizes: list[float] = []
    states: list[SubModelState] = []
    for _ in range(min(steps, p)):
        prop = propose(corr, state, available)
        if prop.candidate is None:
            break
        state = apply_step(state, prop, available)
        available = available[available != prop.candidate]
        order.append(prop.candidate)
        sizes.append(prop.step)
        states.append(state.copy())
    return order, sizes, states
