import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import cellens.selection
from cellens import (ContaminationSpec, InvalidConfig, InvariantViolation,
                     SelectionConfig, ShapeMismatch, SimConfig,
                     block_covariance, contaminate, correlation_structure,
                     cv_error, ddc_impute, fold_assignment, generate_clean,
                     make_rng, run_selection, trace_to_csv)
from cellens.corrlars import SubModelState, apply_step, greedy_path, propose
from cellens.errors import NotPositiveDefinite, RankDeficient
from cellens.linalg import PIVOT_RTOL, pivot_ratios, prepare_design
from cellens.pipeline import passthrough_imputation
from cellens.reference import (classical_lars_path, cv_error_oracle,
                               standardize_columns)
from cellens.selection import (STOP_BELOW_TOLERANCE, STOP_MAX_VARS,
                               STOP_POOL_EXHAUSTED)


def make_imp(y, X):
    return passthrough_imputation(np.column_stack([y, X]))


def signal_data(seed, n=60, p=12, nact=4, noise=0.5):
    rng = make_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:nact] = rng.uniform(1.5, 3.0, nact)
    y = X @ beta + noise * rng.standard_normal(n)
    return y, X


def recomputed_proposals(res):
    """Recorded proposals that a model had to make afresh: every proposal
    of the first round, then those of a model that won the previous round
    or whose previous candidate the winner took."""
    fresh = len(res.trace[0].proposals)
    for before, rec in zip(res.trace, res.trace[1:]):
        model, taken = before.winner
        stale = {pr.model for pr in before.proposals
                 if pr.model == model or pr.candidate == taken}
        fresh += sum(pr.model in stale for pr in rec.proposals)
    return fresh


def distinct_moves(res):
    """Distinct moves in the trace: (active set, candidate) pairs, the
    active sets replayed from the winners."""
    grown = {}
    moves = set()
    for rec in res.trace:
        for pr in rec.proposals:
            moves.add((tuple(grown.get(pr.model, ())), pr.candidate))
        if rec.winner is not None:
            k, j = rec.winner
            grown[k] = grown.get(k, []) + [j]
    return len(moves)


def test_fold_assignment_sizes():
    rng = make_rng(1)
    labels = fold_assignment(10, 5, rng)
    counts = np.bincount(labels)
    assert np.array_equal(counts, [2, 2, 2, 2, 2])
    loo = fold_assignment(10, 10, make_rng(2))
    assert np.array_equal(np.sort(np.bincount(loo)), np.ones(10, dtype=int))


@pytest.mark.parametrize("v", [0, 11, 1.5, 2.0, True, "5", None])
def test_fold_assignment_rejects_bad_fold_counts(v):
    with pytest.raises(InvalidConfig, match=r"^cv_folds="):
        fold_assignment(10, v, make_rng(1))


def test_fold_assignment_deterministic():
    a = fold_assignment(23, 5, make_rng(9))
    b = fold_assignment(23, 5, make_rng(9))
    assert np.array_equal(a, b)


def test_cv_error_null_model():
    y, X = signal_data(3)
    imp = make_imp(y, X)
    folds = fold_assignment(len(y), 5, make_rng(4))
    err = cv_error(imp, [], folds, intercept=True)
    # intercept-on null model predicts the global mean
    assert err == pytest.approx(float(np.mean((y - y.mean()) ** 2)), rel=1e-12)
    assert err == pytest.approx(cv_error_oracle(y, X, [], folds, True), abs=1e-12)
    err0 = cv_error(imp, [], folds, intercept=False)
    assert err0 == pytest.approx(float(np.mean(y**2)), rel=1e-10)


def test_cv_error_perfect_fit():
    rng = make_rng(5)
    X = rng.standard_normal((30, 4))
    y = 2.0 * X[:, 2]
    imp = make_imp(y, X)
    folds = fold_assignment(30, 5, make_rng(6))
    assert cv_error(imp, [2], folds, intercept=False) <= 1e-16


def test_cv_error_matches_fold_oracle():
    rng = make_rng(7)
    X = rng.standard_normal((30, 4))
    y = X @ np.array([1.0, -2.0, 0.0, 0.5]) + rng.standard_normal(30)
    imp = make_imp(y, X)
    folds = fold_assignment(30, 5, make_rng(8))
    for subset in ([0, 1], [2], [0, 1, 3]):
        for intercept in (True, False):
            got = cv_error(imp, subset, folds, intercept)
            ref = cv_error_oracle(y, X, subset, folds, intercept)
            assert got == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("intercept", [True, False])
def test_cv_error_matches_oracle_on_uneven_folds(intercept):
    # n=23 in 5 folds: fold sizes 5, 5, 5, 4, 4
    y, X = signal_data(41, n=23, p=10, nact=3)
    imp = make_imp(y, X)
    folds = fold_assignment(23, 5, make_rng(42))
    assert sorted(np.bincount(folds)) == [4, 4, 5, 5, 5]
    for q in range(1, 11):
        subset = list(range(q))[::-1]
        got = cv_error(imp, subset, folds, intercept)
        ref = cv_error_oracle(y, X, subset, folds, intercept)
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-12), q


@pytest.mark.parametrize("intercept", [True, False])
def test_cv_error_column_inside_one_fold_is_rank_deficient(intercept):
    # zero outside fold 2 and summing exactly to zero inside it, so
    # centering keeps it zero there: fold 2's training design has an
    # all-zero column
    y, X = signal_data(43, n=30, p=4)
    folds = fold_assignment(30, 5, make_rng(44))
    inside = np.flatnonzero(folds == 2)
    assert len(inside) == 6
    X[:, 3] = 0.0
    X[inside, 3] = [1.0, -1.0, 2.0, -2.0, 3.0, -3.0]
    imp = make_imp(y, X)
    assert np.isfinite(cv_error(imp, [0, 1], folds, intercept))
    with pytest.raises(RankDeficient):
        cv_error(imp, [0, 3], folds, intercept)


@pytest.mark.parametrize("subset, folds, error, match", [
    ([-1], None, InvalidConfig, r"subset entry -1 is not in \[0, p=4\)"),
    ([4], None, InvalidConfig, r"subset entry 4 is not in \[0, p=4\)"),
    ([1.0], None, InvalidConfig, r"subset entry 1.0 must be an integer"),
    ([True], None, InvalidConfig, r"subset entry True must be an integer"),
    ([1], "float", InvalidConfig, r"folds must hold integer labels"),
    ([1], "short", ShapeMismatch, r"folds has shape \(29,\)"),
    ([1], "out of range", InvalidConfig, r"folds must hold integer labels"),
])
def test_cv_error_names_a_bad_argument(subset, folds, error, match):
    rng = make_rng(5)
    X = rng.standard_normal((30, 4))
    imp = make_imp(X[:, 0] + rng.standard_normal(30), X)
    good = fold_assignment(30, 5, make_rng(6))
    labels = {None: good, "float": good.astype(float), "short": good[:-1],
              "out of range": good - 1}[folds]
    with pytest.raises(error, match=match):
        cv_error(imp, subset, labels, True)
    # numpy integers and a list of labels are valid
    assert np.isfinite(cv_error(imp, [np.int64(1)], list(good), True))


@pytest.mark.parametrize("intercept", [True, False])
def test_near_collinear_column_matches_oracle_or_is_rank_deficient(intercept):
    # column 2 is column 0 plus noise of a shrinking scale: a bordered score
    # matches the oracle while the last Cholesky pivot ratio of every fold's
    # training Gram is above PIVOT_RTOL, and is RankDeficient once one is
    # at or below it
    y, X = signal_data(49, n=60, p=3, nact=2)
    folds = fold_assignment(60, 5, make_rng(50))
    noise = make_rng(51).standard_normal(60)
    rank_deficient = []
    for scale in (1e-3, 1e-4, 10**-4.5, 10**-4.8, 1e-5, 10**-5.2, 1e-6):
        X[:, 2] = X[:, 0] + scale * noise
        D = prepare_design(np.column_stack([y, X]), intercept)[0][:, 1:]
        ratio = min(pivot_ratios(D[folds != f].T @ D[folds != f])[-1]
                    for f in range(5))
        rank_deficient.append(ratio <= PIVOT_RTOL)
        if ratio <= PIVOT_RTOL:
            with pytest.raises(RankDeficient, match="pivot ratio"):
                cv_error(make_imp(y, X), [0, 1, 2], folds, intercept)
            continue
        got = cv_error(make_imp(y, X), [0, 1, 2], folds, intercept)
        want = cv_error_oracle(y, X, [0, 1, 2], folds, intercept)
        # both sides lose accuracy as the ratio falls; the largest relative
        # gaps seen here were 2.4e-9 down to scale 1e-4 and 4.9e-8 below
        rel = 1e-7 if scale >= 1e-4 else 1e-6
        assert got == pytest.approx(want, rel=rel), scale
    assert rank_deficient == [False] * 4 + [True] * 3


def test_non_finite_cv_error_raises_invariant_violation(monkeypatch):
    y, X = signal_data(45, n=50, p=10, nact=4)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    cfg = SelectionConfig(K=3, tau=0.01, cv_folds=5, seed=46)
    cv = cellens.selection._cv_fit

    def nan_for_candidate(design, subset, parent):
        fit = cv(design, subset, parent)
        return (replace(fit, err=np.nan) if subset and subset[-1] == 2
                else fit)

    monkeypatch.setattr(cellens.selection, "_cv_fit", nan_for_candidate)
    with pytest.raises(InvariantViolation,
                       match=r"model \d: cross-validation error of candidate 2 "
                             r"is nan"):
        run_selection(structure, imp, cfg)


@pytest.mark.parametrize("intercept", [True, False])
def test_nonfinite_response_names_the_response(intercept):
    # fit_ensemble rejects a non-finite cell before selection; called
    # directly on such a y, run_selection blames y, not a candidate
    y, X = signal_data(47, n=50, p=10)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    imp.Z_imp[7, 0] = np.nan
    cfg = SelectionConfig(K=3, intercept=intercept, seed=48)
    with pytest.raises(InvariantViolation,
                       match=r"empty model is nan: the response y holds a "
                             r"non-finite cell"):
        run_selection(structure, imp, cfg)


def test_cv_error_capacity_guard():
    y, X = signal_data(9, n=12, p=10)
    imp = make_imp(y, X)
    folds = fold_assignment(12, 4, make_rng(10))
    with pytest.raises(InvalidConfig):
        cv_error(imp, list(range(9)), folds, intercept=True)


def whole_design_cv_error(imp, subset, folds, intercept):
    """cv_error scored on the whole prepared [y, X], as a run scores it."""
    cv = cellens.selection._cv_design(imp.Z_imp, folds, intercept)
    fit = cellens.selection._cv_fit(cv, [], None)
    for q in range(len(subset)):
        fit = cellens.selection._cv_fit(cv, subset[:q + 1], fit)
    return cellens.selection._in_y2_units(fit.err, cv.e_y)


@pytest.mark.parametrize("n, p", [(30, 6), (100, 40), (301, 3)])
@pytest.mark.parametrize("intercept", [True, False])
def test_cv_error_of_empty_and_singleton_subsets_keeps_whole_design_bits(
        n, p, intercept):
    # y alone would be summed pairwise when centered, not row by row as in
    # the whole design: the empty subset's score must not depend on that
    rng = make_rng(n + p)
    X = rng.standard_normal((n, p)) * rng.uniform(0.1, 1e3, p) + 7.0
    imp = make_imp(3.0 + X[:, 0] + rng.standard_normal(n), X)
    folds = fold_assignment(n, 5, make_rng(n))
    for subset in [[]] + [[j] for j in range(p)] + [[p - 1, 0]]:
        got = cv_error(imp, subset, folds, intercept)
        assert got == whole_design_cv_error(imp, subset, folds, intercept), \
            subset


def test_cv_error_rank_deficiency_names_the_predictor():
    y, X = signal_data(45, n=30, p=6)
    X[:, 4] = 2.0 * X[:, 1]
    folds = fold_assignment(30, 5, make_rng(46))
    with pytest.raises(RankDeficient, match="of column 4 in fold"):
        cv_error(make_imp(y, X), [1, 4], folds, True)
    with pytest.raises(RankDeficient, match="of column 1 in fold"):
        cv_error(make_imp(y, X), [5, 4, 1], folds, True)


def test_cv_error_prepares_only_the_subset():
    # one call at n=100, p=2000 allocates under an eighth of one copy of
    # the whole (n, p+1) design (1.6 MB); it measured 19 kB and 41 kB
    n, p = 100, 2000
    whole = n * (p + 1) * 8
    rng = make_rng(47)
    imp = make_imp(rng.standard_normal(n), rng.standard_normal((n, p)))
    folds = fold_assignment(n, 5, make_rng(48))
    for subset in ([], [3, 1500, 17]):
        cv_error(imp, subset, folds, True)
        tracemalloc.start()
        try:
            cv_error(imp, subset, folds, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole / 8, (subset, peak)


def test_forced_first_winner():
    # one dominant predictor: both models propose it; tie-break resolves
    rng = make_rng(11)
    n = 40
    x1 = rng.standard_normal(n)
    X = np.column_stack([x1, 0.1 * rng.standard_normal(n),
                         0.1 * rng.standard_normal(n)])
    y = 3.0 * x1 + 0.3 * rng.standard_normal(n)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    res = run_selection(structure, imp, SelectionConfig(K=2, tau=0.01,
                                                        cv_folds=5, seed=12))
    first = res.trace[0]
    assert len(first.proposals) == 2
    assert all(pr.candidate == 0 for pr in first.proposals)
    assert first.winner is not None and first.winner[1] == 0
    # winner removed from the global pool: never proposed again
    for rec in res.trace[1:]:
        assert all(pr.candidate != 0 for pr in rec.proposals)


def test_infinite_tau_selects_nothing():
    y, X = signal_data(13)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    res = run_selection(structure, imp,
                        SelectionConfig(K=3, tau=np.inf, cv_folds=5, seed=14))
    assert res.stop_reason == STOP_BELOW_TOLERANCE
    assert res.union() == set()
    assert all(len(s) == 0 for s in res.sets)


def test_single_model_follows_lars_prefix():
    # with one model and a tiny tolerance, accepted winners follow the
    # classical path order until the CV arbiter stops the run
    y, X = signal_data(15, n=80, p=10, nact=4, noise=0.4)
    Xs = standardize_columns(X)
    yc = (y - y.mean()) / np.linalg.norm(y - y.mean())
    oracle = classical_lars_path(Xs, yc, 10)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    res = run_selection(structure, imp,
                        SelectionConfig(K=1, tau=1e-12, cv_folds=5, seed=16))
    chosen = [j for _, j in res.winner_sequence()]
    assert len(chosen) >= 3
    assert chosen == oracle.entry_order[: len(chosen)]


def test_disjoint_and_monotone_pool():
    y, X = signal_data(17, n=60, p=15, nact=6)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    res = run_selection(structure, imp,
                        SelectionConfig(K=4, tau=0.01, cv_folds=5, seed=18))
    seen = set()
    for s in res.sets:
        assert not (set(s) & seen)
        seen.update(s)
    winners = res.winner_sequence()
    assert len(winners) == len(seen)
    assert len(set(j for _, j in winners)) == len(winners)


def test_max_vars_cap():
    y, X = signal_data(19, n=60, p=15, nact=6, noise=0.2)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    res = run_selection(structure, imp,
                        SelectionConfig(K=3, tau=1e-10, cv_folds=5, max_vars=4,
                                        seed=20))
    assert res.stop_reason == STOP_MAX_VARS
    assert len(res.union()) == 4


def test_pool_exhaustion():
    y, X = signal_data(21, n=60, p=3, nact=3, noise=0.1)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    res = run_selection(structure, imp,
                        SelectionConfig(K=2, tau=1e-12, cv_folds=5, seed=22))
    assert res.stop_reason in (STOP_POOL_EXHAUSTED, STOP_BELOW_TOLERANCE,
                               STOP_MAX_VARS)
    if res.stop_reason == STOP_POOL_EXHAUSTED:
        assert res.union() == {0, 1, 2}


def test_pool_exhaustion_reported():
    # max_vars defaults to p here, so the empty pool and the cap coincide;
    # the empty pool is the reason reported
    y, X = signal_data(21, n=60, p=3, nact=3, noise=0.1)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    res = run_selection(structure, imp,
                        SelectionConfig(K=2, tau=1e-12, cv_folds=5, seed=22))
    assert res.union() == {0, 1, 2}
    assert res.stop_reason == STOP_POOL_EXHAUSTED
    assert res.trace[-1].winner is not None


def test_cv_cache_soundness():
    # each accepted winner's stored error must equal a from-scratch
    # recomputation on the same folds, bit for bit
    y, X = signal_data(23, n=50, p=10, nact=4)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    cfg = SelectionConfig(K=3, tau=0.01, cv_folds=5, seed=24)
    res = run_selection(structure, imp, cfg)
    rng = make_rng(cfg.seed)
    folds = fold_assignment(len(y), cfg.cv_folds, rng)
    grown = {k: [] for k in range(cfg.K)}
    checked = 0
    for rec in res.trace:
        if rec.winner is None:
            continue
        k, j = rec.winner
        winning = [pr for pr in rec.proposals if (pr.model, pr.candidate) == (k, j)]
        assert len(winning) == 1
        fresh = cv_error(imp, grown[k] + [j], folds, cfg.intercept)
        assert fresh == winning[0].cv_new  # bitwise
        grown[k].append(j)
        checked += 1
    assert checked >= 2


def test_seed_reproducibility():
    y, X = signal_data(25, n=50, p=12, nact=4)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    cfg = SelectionConfig(K=5, tau=0.01, cv_folds=5, seed=26)
    r1 = run_selection(structure, imp, cfg)
    r2 = run_selection(structure, imp, cfg)
    assert r1.winner_sequence() == r2.winner_sequence()
    assert r1.sets == r2.sets
    assert r1.stop_reason == r2.stop_reason


def test_trace_csv_export(tmp_path):
    y, X = signal_data(27, n=40, p=8, nact=3)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    res = run_selection(structure, imp,
                        SelectionConfig(K=2, tau=0.01, cv_folds=5, seed=28))
    out = tmp_path / "trace.csv"
    trace_to_csv(res, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iteration,model,candidate,gamma,benefit,winner,stop_reason"
    assert len(lines) > 1


def test_run_selection_rejects_inconsistent_inputs():
    y, X = signal_data(29, n=30, p=6)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    bad = type(structure)(U=structure.U[:, :6], r_y=structure.r_y)
    with pytest.raises(InvalidConfig):
        run_selection(bad, imp, SelectionConfig(K=2, cv_folds=5, seed=1))


def distinct_directions(res):
    """Distinct equiangular directions in the trace: one per nonempty
    active set, plus one per first-step move (its inner array is the
    candidate's column)."""
    grown = {}
    directions = set()
    for rec in res.trace:
        for pr in rec.proposals:
            active = tuple(grown.get(pr.model, ()))
            directions.add(active if active else ((), pr.candidate))
        if rec.winner is not None:
            k, j = rec.winner
            grown[k] = grown.get(k, []) + [j]
    return len(directions)


def test_reused_proposal_is_same_object():
    # a model that neither won nor lost its candidate re-enters the same
    # move (on this input the very Proposal of the previous round; a second
    # empty model would record a shared move afresh each round), and a
    # model that lost its candidate proposes again from the direction its
    # state keeps, so each direction's inner array is stored once however
    # many moves, rounds and models record it
    y, X = signal_data(31, n=60, p=15, nact=6)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    res = run_selection(structure, imp,
                        SelectionConfig(K=3, tau=0.01, cv_folds=5, seed=32))
    reused = 0
    for before, rec in zip(res.trace, res.trace[1:]):
        model, taken = before.winner
        previous = {pr.model: pr for pr in before.proposals}
        for pr in rec.proposals:
            old = previous.get(pr.model)
            if pr.model == model or old is None or old.candidate == taken:
                assert pr is not old
            else:
                assert pr is old
                reused += 1
    assert reused > 0
    arrays = {id(pr.lars.inner) for rec in res.trace for pr in rec.proposals}
    assert len(arrays) == distinct_directions(res) < distinct_moves(res)
    assert all(pr.lars.inner.shape == (15,) for rec in res.trace
               for pr in rec.proposals)


def test_one_record_per_round():
    y, X = signal_data(33, n=60, p=15, nact=6)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    for cfg in (SelectionConfig(K=3, tau=0.01, cv_folds=5, seed=34),
                SelectionConfig(K=3, tau=1e-10, cv_folds=5, max_vars=4, seed=34)):
        res = run_selection(structure, imp, cfg)
        assert [rec.iteration for rec in res.trace] == list(
            range(1, len(res.trace) + 1))
        assert all(rec.stop_reason is None for rec in res.trace[:-1])
        assert all(rec.winner is not None for rec in res.trace[:-1])
        assert res.trace[-1].stop_reason == res.stop_reason
    # a cap reached by a winner is reported on that winner's round
    assert res.stop_reason == STOP_MAX_VARS
    assert res.trace[-1].winner is not None
    assert len(res.trace) == 4


def test_zero_max_vars_records_one_empty_round():
    y, X = signal_data(35, n=40, p=8)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    res = run_selection(structure, imp,
                        SelectionConfig(K=2, cv_folds=5, max_vars=0, seed=36))
    assert res.stop_reason == STOP_MAX_VARS
    assert len(res.trace) == 1
    assert res.trace[0].proposals == [] and res.trace[0].winner is None
    assert res.trace[0].stop_reason == STOP_MAX_VARS
    assert res.sets == [[], []]


def count_cv_calls(monkeypatch):
    """Subsets that ``run_selection`` scores, in call order."""
    calls = []
    score = cellens.selection._cv_fit

    def counting_cv_error(design, subset, parent):
        calls.append(list(subset))
        return score(design, subset, parent)

    monkeypatch.setattr(cellens.selection, "_cv_fit", counting_cv_error)
    return calls


def test_empty_model_scored_once(monkeypatch):
    calls = count_cv_calls(monkeypatch)
    y, X = signal_data(37, n=60, p=12, nact=4)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    res = run_selection(structure, imp,
                        SelectionConfig(K=4, tau=0.01, cv_folds=5, seed=38))
    proposals = sum(len(rec.proposals) for rec in res.trace)
    assert calls.count([]) == 1
    # one call per distinct move; reused and shared moves cost none
    moves = distinct_moves(res)
    assert moves < recomputed_proposals(res) < proposals
    assert len(calls) == moves + 1


@pytest.mark.parametrize("seed", [38, 40, 42])
def test_each_subset_scored_once(monkeypatch, seed):
    calls = count_cv_calls(monkeypatch)
    y, X = signal_data(seed, n=80, p=30, nact=8)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    run_selection(structure, imp,
                  SelectionConfig(K=6, tau=1e-3, cv_folds=5, seed=seed))
    subsets = [frozenset(subset) for subset in calls]
    assert len(subsets) > 6
    assert len(set(subsets)) == len(subsets)


def test_models_sharing_a_move_share_its_lars():
    y, X = signal_data(39, n=60, p=12, nact=4)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    res = run_selection(structure, imp,
                        SelectionConfig(K=4, tau=0.01, cv_folds=5, seed=40))
    first = res.trace[0].proposals
    # every model starts empty, so all four record the one move
    assert [pr.model for pr in first] == [0, 1, 2, 3]
    assert len({id(pr.lars) for pr in first}) == 1
    assert len({(pr.candidate, pr.gamma, pr.benefit, pr.cv_new)
                for pr in first}) == 1
    shared = 0
    for rec in res.trace[1:]:
        by_lars = {}
        for pr in rec.proposals:
            by_lars.setdefault(id(pr.lars), []).append(pr.model)
        shared += sum(len(models) > 1 for models in by_lars.values())
    assert shared > 0


@pytest.mark.parametrize("sit_out", ["not-positive-definite", "no-candidate"])
def test_a_model_that_sits_out_a_round_sits_out_the_rest(monkeypatch,
                                                         sit_out):
    # run_selection's rule: a model whose proposer raises NotPositiveDefinite
    # (collinear active set) or finds no finite step sits out that round and
    # every later one, while the others keep competing. The first model to
    # win is made to sit out on its first nonempty active set; the sets are
    # disjoint, so its first predictor names it.
    y, X = signal_data(44, n=80, p=20, nact=8)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    propose = cellens.selection.corrlars.propose
    asked = []  # the active sets on which the model was asked to propose

    def stub(corr, state, available):
        if state.active and (not asked or asked[0][0] in state.active):
            asked.append(list(state.active))
            if sit_out == "not-positive-definite":
                raise NotPositiveDefinite("collinear active set")
            return replace(propose(corr, state, available), candidate=None)
        return propose(corr, state, available)

    monkeypatch.setattr(cellens.selection.corrlars, "propose", stub)
    res = run_selection(structure, imp,
                        SelectionConfig(K=3, tau=1e-3, cv_folds=5, seed=45))
    assert len(asked) == 1  # the sit-out is kept, not asked again
    k = next(m for m, s in enumerate(res.sets) if asked[0][0] in s)
    assert res.sets[k] == asked[0]
    won = next(i for i, rec in enumerate(res.trace) if rec.winner[0] == k)
    later = res.trace[won + 1:]
    assert later
    assert all(pr.model != k for rec in later for pr in rec.proposals)
    assert any(rec.winner is not None for rec in later)
    union = [j for s in res.sets for j in s]
    assert len(union) == len(set(union))


def test_replayed_proposals_match_trace():
    # every recorded proposal, reused or not, must equal bit for bit what
    # a fresh proposer call and CV score give on that round's state and pool
    p = 40
    y, X = signal_data(43, n=80, p=p, nact=14, noise=0.5)
    imp = make_imp(y, X)
    structure = correlation_structure(imp)
    cfg = SelectionConfig(K=3, tau=1e-9, cv_folds=5, seed=44)
    res = run_selection(structure, imp, cfg)
    folds = fold_assignment(len(y), cfg.cv_folds, make_rng(cfg.seed))
    states = [SubModelState.initial(structure.r_y) for _ in range(cfg.K)]
    current_cv = [cv_error(imp, [], folds, cfg.intercept)] * cfg.K
    available = np.arange(p)
    for rec in res.trace:
        for pr in rec.proposals:
            k = pr.model
            lars = propose(structure, states[k], available)
            assert lars.candidate == pr.candidate == pr.lars.candidate
            assert lars.step == pr.lars.step == pr.gamma
            assert lars.entry_sign == pr.lars.entry_sign
            assert lars.a_active == pr.lars.a_active
            assert lars.inner.tobytes() == pr.lars.inner.tobytes()
            try:
                cv_new = cv_error(imp, states[k].active + [pr.candidate],
                                  folds, cfg.intercept)
            except RankDeficient:
                cv_new = np.inf
            assert cv_new == pr.cv_new
            benefit = current_cv[k] - cv_new if np.isfinite(cv_new) else -np.inf
            assert benefit == pr.benefit
        if rec.winner is not None:
            k, j = rec.winner
            (win,) = [pr for pr in rec.proposals if (pr.model, pr.candidate) == (k, j)]
            states[k] = apply_step(states[k], win.lars, available)
            available = available[available != j]
            current_cv[k] = win.cv_new
    assert max(len(s) for s in res.sets) >= 8
    assert recomputed_proposals(res) < sum(len(rec.proposals) for rec in res.trace)


def test_inner_independent_of_rest_of_pool():
    # with 8 active predictors, dropping any non-candidate from the pool
    # must leave the whole of inner bit-identical (a matrix-vector product
    # over the pool's rows alone rounds rows by their position)
    p = 20
    y, X = signal_data(0, n=60, p=p, nact=10)
    structure = correlation_structure(make_imp(y, X))
    _, _, states = greedy_path(structure.columns(range(p)), structure.r_y, 8)
    state = states[7]
    pool = np.setdiff1d(np.arange(p), state.active)
    full = propose(structure, state, pool)
    for drop in pool[pool != full.candidate]:
        rest = pool[pool != drop]
        part = propose(structure, state, rest)
        assert part.candidate == full.candidate
        assert part.step == full.step
        assert part.inner.tobytes() == full.inner.tobytes()


# perfbench's deep and study workloads: data, contamination and settings
SHAPED = {
    "deep": (SimConfig(n=300, p=300, sparsity=150, snr=1.0, block_size=25),
             dict(K=20, tau=1e-5, cv_folds=5, max_vars=80)),
    "study": (SimConfig(n=50, p=200, sparsity=20, snr=1.0, block_size=10),
              dict(K=10, tau=0.01, cv_folds=5)),
}


def shaped_selection_input(shape, seed):
    """A cleaned, seeded input of a benchmark workload's shape, with its
    correlation structure and selection settings."""
    sim, sel = SHAPED[shape]
    sim = replace(sim, seed=seed)
    obs = contaminate(generate_clean(sim),
                      ContaminationSpec(scenario="MixtureCorrelation",
                                        alpha=0.1, alpha2=0.05),
                      block_covariance(sim), seed=seed + 1)
    imp = ddc_impute(np.column_stack([obs.y, obs.X]))
    return correlation_structure(imp), imp, SelectionConfig(seed=seed + 2, **sel)


@pytest.mark.parametrize("shape, seed, winners, digest", [
    ("deep", 7, 80, "66cc068af810c984"),
    ("deep", 8, 80, "c1cad8e296dcca96"),
    ("study", 7, 45, "c765892ca84b7fcc"),
    ("study", 8, 21, "f93f85cd88afac35"),
])
def test_seeded_selections_are_pinned(shape, seed, winners, digest):
    # sets and winner sequences recorded from the implementation that
    # refactored every move's LARS direction and fold Grams from scratch
    res = run_selection(*shaped_selection_input(shape, seed))
    h = hashlib.sha256()
    h.update(repr(res.sets).encode())
    h.update(repr(res.winner_sequence()).encode())
    assert len(res.winner_sequence()) == winners
    assert h.hexdigest()[:16] == digest


def test_selection_memory_holds_only_current_fits():
    # the deep-shaped run peaks at 2.7 MiB: the prepared [y, X] (0.69 MiB),
    # one (5, 300) basis row per selected predictor and per pending move,
    # and the trace. Keeping the fit of every scored move (384 on this
    # input, a 12 KiB row each) peaks at 8.4 MiB; the implementation that
    # refactored each move peaked at 2.2 MiB
    structure, imp, cfg = shaped_selection_input("deep", 7)
    tracemalloc.start()
    try:
        run_selection(structure, imp, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
