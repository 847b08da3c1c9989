import numpy as np
import pytest

from cellens import InvariantViolation, NotPositiveDefinite, make_rng
from cellens.corrlars import (DenseCorrelation, SubModelState, _geometry,
                              apply_step, greedy_path, propose)
from cellens.reference import classical_lars_path, standardize_columns


def make_state(r, active=(), signs=(), level=0.0):
    st = SubModelState.initial(np.asarray(r, dtype=float))
    st.active = list(active)
    st.signs = list(signs)
    st.active_level = level
    return st


def standardized_problem(seed, n=60, p=10, nact=4):
    rng = make_rng(seed)
    Xraw = rng.standard_normal((n, p)) @ np.diag(rng.uniform(0.5, 2.0, p))
    beta = np.zeros(p)
    beta[rng.choice(p, size=nact, replace=False)] = rng.uniform(1, 3, nact)
    yraw = Xraw @ beta + rng.standard_normal(n)
    X = standardize_columns(Xraw)
    yc = yraw - yraw.mean()
    y = yc / np.linalg.norm(yc)
    return X, y


def test_geometry_single_variable():
    R = np.eye(3)
    st = make_state([0.5, 0.2, 0.1], active=[0], signs=[1.0], level=0.5)
    a_k, w_k = _geometry(R[np.ix_(st.active, st.active)], st.signs)
    assert a_k == pytest.approx(1.0)
    assert np.allclose(w_k, [1.0])


def test_geometry_two_variable_closed_form():
    R = np.array([[1.0, 0.5], [0.5, 1.0]])
    st = make_state([0.5, 0.5], active=[0, 1], signs=[1.0, 1.0], level=0.5)
    a_k, w_k = _geometry(R[np.ix_(st.active, st.active)], st.signs)
    assert a_k == pytest.approx((2 / 1.5) ** -0.5, abs=1e-10)
    assert np.allclose(w_k, [0.57735, 0.57735], atol=1e-5)


def test_geometry_sign_conjugation():
    R1 = np.array([[1.0, 0.5], [0.5, 1.0]])
    R2 = np.array([[1.0, -0.5], [-0.5, 1.0]])
    st1 = make_state([0.5, -0.5], active=[0, 1], signs=[1.0, -1.0], level=0.5)
    st2 = make_state([0.5, 0.5], active=[0, 1], signs=[1.0, 1.0], level=0.5)
    a1, w1 = _geometry(R1[np.ix_(st1.active, st1.active)], st1.signs)
    a2, w2 = _geometry(R2[np.ix_(st2.active, st2.active)], st2.signs)
    assert a1 == pytest.approx(a2, abs=1e-12)
    assert np.allclose(w1, w2, atol=1e-12)


def test_geometry_rejects_collinear():
    R = np.array([[1.0, 1.0], [1.0, 1.0]])
    st = make_state([0.5, 0.5], active=[0, 1], signs=[1.0, 1.0], level=0.5)
    with pytest.raises(NotPositiveDefinite):
        _geometry(R[np.ix_(st.active, st.active)], st.signs)


def test_propose_empty_active():
    R = np.eye(3)
    st = make_state([0.9, -0.5, 0.3])
    prop = propose(DenseCorrelation(R), st, [0, 1, 2])
    assert prop.candidate == 0
    assert prop.step == pytest.approx(0.9)
    assert prop.entry_sign == 1.0
    assert prop.inner[0] == pytest.approx(1.0)
    assert prop.a_active == 1.0


def test_propose_matches_oracle_second_entry():
    for seed in range(5):
        X, y = standardized_problem(seed, p=2 + seed % 3 + 2)
        oracle = classical_lars_path(X, y, 2)
        R = X.T @ X
        r = X.T @ y
        st = SubModelState.initial(r)
        first = propose(DenseCorrelation(R), st, list(range(X.shape[1])))
        assert first.candidate == oracle.entry_order[0]
        st = apply_step(st, first, list(range(X.shape[1])))
        avail = [j for j in range(X.shape[1]) if j != first.candidate]
        second = propose(DenseCorrelation(R), st, avail)
        assert second.candidate == oracle.entry_order[1]
        assert second.step == pytest.approx(oracle.step_sizes[1], abs=1e-8)


def test_nonpositive_denominator_branch_is_infinite():
    # candidate closer to the equiangular direction than the active set
    # (a_j > a_k): the gamma+ branch must be treated as infinite and the
    # gamma- branch must fire, entering with a negative sign
    c = 0.9 / np.sqrt(2.0)  # corr of the candidate with each active var
    R = np.array([[1.0, 0.0, c], [0.0, 1.0, c], [c, c, 1.0]])
    assert np.min(np.linalg.eigvalsh(R)) > 0
    st = make_state([0.5, 0.5, 0.4], active=[0, 1], signs=[1.0, 1.0], level=0.5)
    a_k, w_k = _geometry(R[np.ix_(st.active, st.active)], st.signs)
    assert a_k == pytest.approx(1 / np.sqrt(2.0), abs=1e-12)
    prop = propose(DenseCorrelation(R), st, [2])
    a_j = prop.inner[2]
    assert a_j == pytest.approx(0.9, abs=1e-12)
    assert a_j > a_k  # gamma+ denominator is negative
    expected = (0.5 + 0.4) / (a_k + a_j)
    assert prop.candidate == 2
    assert prop.step == pytest.approx(expected, abs=1e-12)
    assert prop.entry_sign == -1.0


def test_gamma_branch_tie_takes_positive_side():
    # both branches equal: the entry sign defaults to +1 (gamma+ branch)
    R = np.array([[1.0, 0.9], [0.9, 1.0]])
    st = make_state([0.5, 0.45], active=[0], signs=[1.0], level=0.5)
    prop = propose(DenseCorrelation(R), st, [1])
    assert prop.step == pytest.approx(0.5, abs=1e-12)
    assert prop.entry_sign == 1.0


def test_apply_step_first_entry_zero_move():
    R = np.array([[1.0, 0.5], [0.5, 1.0]])
    st = make_state([0.9, 0.45])
    prop = propose(DenseCorrelation(R), st, [0, 1])
    new = apply_step(st, prop, [0, 1])
    # first entry moves nothing: correlations intact, level set to entry
    assert np.allclose(new.corr_state, [0.9, 0.45])
    assert new.active == [0]
    assert new.signs == [1.0]
    assert new.active_level == pytest.approx(0.9)


def test_apply_step_zero_gamma():
    R = np.array([[1.0, 0.2], [0.2, 1.0]])
    st = make_state([0.5, 0.5], active=[0], signs=[1.0], level=0.5)
    prop = propose(DenseCorrelation(R), st, [1])
    assert prop.step == pytest.approx(0.0, abs=1e-12)
    new = apply_step(st, prop, [1])
    assert np.allclose(new.corr_state, st.corr_state, atol=1e-12)
    assert new.active == [0, 1]


def test_equicorrelation_over_path():
    X, y = standardized_problem(21, n=80, p=10, nact=5)
    R = X.T @ X
    r = X.T @ y
    order, sizes, states = greedy_path(R, r, 5)
    assert len(order) == 5
    for state in states:
        for i in state.active:
            assert abs(abs(state.corr_state[i]) - state.active_level) < 1e-8
        for j in range(10):
            if j not in state.active:
                assert abs(state.corr_state[j]) <= state.active_level + 1e-8


def test_path_equivalence_small():
    for seed in range(8):
        n, p = (30, 10) if seed % 2 else (60, 25)
        X, y = standardized_problem(seed + 100, n=n, p=p, nact=4)
        steps = min(10, p)
        oracle = classical_lars_path(X, y, steps)
        order, sizes, states = greedy_path(X.T @ X, X.T @ y, steps)
        assert order == oracle.entry_order[: len(order)]
        assert np.max(np.abs(np.array(sizes)
                             - np.array(oracle.step_sizes[: len(sizes)]))) < 1e-8
        # the shared active correlation decreases strictly along the path
        levels = [st.active_level for st in states]
        assert all(b < a for a, b in zip(levels, levels[1:]))
        assert all(g > 0 for g in oracle.step_sizes)


def test_sign_flip_covariance():
    # negating column j of the correlation inputs leaves candidate and
    # step unchanged and flips the entry sign when j is the candidate
    X, y = standardized_problem(31, n=60, p=8, nact=3)
    R = X.T @ X
    r = X.T @ y
    st = SubModelState.initial(r)
    avail = list(range(8))
    first = propose(DenseCorrelation(R), st, avail)
    st = apply_step(st, first, avail)
    avail.remove(first.candidate)
    base = propose(DenseCorrelation(R), st, avail)
    j = base.candidate
    # flip column j in R and r
    R2 = R.copy()
    R2[j, :] *= -1
    R2[:, j] *= -1
    R2[j, j] = 1.0
    r2 = r.copy()
    r2[j] *= -1
    st2 = SubModelState.initial(r2)
    first2 = propose(DenseCorrelation(R2), st2, list(range(8)))
    assert first2.candidate == first.candidate
    st2 = apply_step(st2, first2, list(range(8)))
    flip = propose(DenseCorrelation(R2), st2, avail)
    assert flip.candidate == base.candidate
    assert flip.step == pytest.approx(base.step, abs=1e-12)
    assert flip.entry_sign == -base.entry_sign


def test_a_active_in_unit_interval():
    for seed in range(5):
        X, y = standardized_problem(seed + 41, n=70, p=9, nact=4)
        R = X.T @ X
        order, sizes, states = greedy_path(R, X.T @ y, 6)
        for state in states[1:]:
            a_k, _ = _geometry(R[np.ix_(state.active, state.active)],
                               state.signs)
            assert 0 < a_k <= 1 + 1e-12


def test_apply_step_rejects_candidate_outside_pool():
    R = np.array([[1.0, 0.5], [0.5, 1.0]])
    st = make_state([0.9, 0.45])
    prop = propose(DenseCorrelation(R), st, np.array([0, 1]))
    assert prop.candidate == 0
    with pytest.raises(InvariantViolation, match="not in the available pool"):
        apply_step(st, prop, np.array([1]))


def test_inner_covers_all_predictors():
    X, y = standardized_problem(51, n=60, p=8, nact=3)
    R = X.T @ X
    st = SubModelState.initial(X.T @ y)
    pool = np.array([0, 2, 3, 5, 7])
    for _ in range(3):  # the first entry and two equiangular steps
        prop = propose(DenseCorrelation(R), st, pool)
        assert prop.inner.shape == (8,)
        assert np.isfinite(prop.inner).all()
        # inner depends on the state only: a full-pool proposal has it too
        full_pool = np.setdiff1d(np.arange(8), st.active)
        full = propose(DenseCorrelation(R), st, full_pool)
        assert full.inner.tobytes() == prop.inner.tobytes()
        new = apply_step(st, prop, pool)
        # pool correlations drop by step * a_j; everything else outside the
        # pool and the active set keeps its value bit for bit
        if st.active:
            expected = st.corr_state.copy()
            for j in pool:
                expected[j] -= prop.step * prop.inner[j]
            assert np.array_equal(new.corr_state[pool], expected[pool])
        rest = np.setdiff1d(np.arange(8), np.r_[pool, st.active])
        assert np.array_equal(new.corr_state[rest], st.corr_state[rest])
        st = new
        pool = pool[pool != prop.candidate]
