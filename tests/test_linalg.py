import re

import numpy as np
import pytest

from cellens import (NotPositiveDefinite, RankDeficient, ShapeMismatch, make_rng,
                     pivot_ratios, solve_spd, ols_fit)
from cellens.linalg import PIVOT_RTOL
from cellens.reference import gaussian_elimination_solve, normal_equation_ols


def test_solve_identity():
    x = solve_spd(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-12)


def test_solve_diagonal():
    A = np.diag([2.0, 4.0])
    x = solve_spd(A, np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0], atol=1e-12)


def test_solve_matches_elimination_oracle():
    # 100 random well-conditioned SPD systems against an independent solver
    rng = make_rng(11)
    for _ in range(100):
        B = rng.standard_normal((5, 5))
        A = B @ B.T + 5 * np.eye(5)
        b = rng.standard_normal(5)
        x = solve_spd(A, b)
        x_ref = gaussian_elimination_solve(A, b)
        assert np.max(np.abs(x - x_ref)) < 1e-10
        assert np.max(np.abs(A @ x - b)) <= 1e-8 * (1 + np.max(np.abs(b)))


def test_solve_rejects_indefinite():
    A = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(NotPositiveDefinite):
        solve_spd(A, np.ones(2))


def test_cholesky_relative_tolerance():
    # scaled-down copy of a singular matrix still rejected
    v = np.array([1.0, 1.0])
    A = np.outer(v, v) * 1e-6
    assert pivot_ratios(A)[1] <= PIVOT_RTOL
    with pytest.raises(NotPositiveDefinite):
        solve_spd(A, np.ones(2))


def test_ols_exact_line():
    coef, b0 = ols_fit(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.0]),
                       intercept=False)
    assert abs(coef[0] - 2.0) < 1e-12
    assert b0 == 0.0


def test_ols_exact_affine_line():
    coef, b0 = ols_fit(np.array([1.0, 2.0, 3.0]), np.array([3.0, 5.0, 7.0]),
                       intercept=True)
    assert abs(coef[0] - 2.0) < 1e-10
    assert abs(b0 - 1.0) < 1e-10


def test_ols_matches_normal_equation_oracle():
    rng = make_rng(5)
    for _ in range(100):
        X = rng.standard_normal((20, 3))
        beta = rng.standard_normal(3)
        y = X @ beta + 0.1 * rng.standard_normal(20)
        for intercept in (False, True):
            coef, b0 = ols_fit(X, y, intercept=intercept)
            ref_coef, ref_b0 = normal_equation_ols(X, y, intercept)
            assert np.max(np.abs(coef - ref_coef)) < 1e-8
            assert abs(b0 - ref_b0) < 1e-8
            # residual orthogonality
            resid = y - X @ coef - b0
            assert np.max(np.abs(X.T @ resid)) < 1e-8 * (1 + np.max(np.abs(X.T @ y)))


@pytest.mark.parametrize("power", [-1000, -600, -100, 100, 600, 1000])
def test_ols_coefficients_follow_a_rescaled_column_exactly(power):
    # the columns are equilibrated by powers of two before the Gram is
    # formed, so the scaled system, and every other bit of the fit, is the
    # same, also where the unscaled Gram would overflow or underflow
    rng = make_rng(6)
    X = rng.standard_normal((40, 3))
    y = rng.standard_normal(40)
    X2 = X.copy()
    X2[:, 2] = np.ldexp(X2[:, 2], power)
    for intercept in (False, True):
        coef, b0 = ols_fit(X, y, intercept=intercept)
        coef2, b02 = ols_fit(X2, y, intercept=intercept)
        coef[2] = np.ldexp(coef[2], -power)
        assert np.array_equal(coef2, coef) and b02 == b0


def test_ols_shift_moves_only_the_constant():
    # with an intercept the columns and y are centered before the Gram is
    # formed: a shifted column is not collinear with the constant
    rng = make_rng(7)
    X = rng.standard_normal((3, 40, 3))[0]
    y = rng.standard_normal((3, 40))[0]
    coef, b0 = ols_fit(X, y, intercept=True)
    for j, shift in ((1, 1e6), (2, 1e10)):
        X2 = X.copy()
        X2[:, j] += shift
        coef2, b02 = ols_fit(X2, y + 1e8, intercept=True)
        pred = b0 + np.einsum("ij,j->i", X, coef)
        pred2 = b02 - 1e8 + np.einsum("ij,j->i", X2, coef2)
        assert np.max(np.abs(pred2 - pred)) <= 1e-14 * shift
        assert np.max(np.abs(coef2 - coef)) <= 1e-6 * np.max(np.abs(coef))


def test_ols_rank_deficient():
    X = np.column_stack([np.ones(10), np.ones(10)])
    with pytest.raises(RankDeficient):
        ols_fit(X, np.arange(10.0), intercept=False)


def test_rng_determinism():
    a = make_rng(123).standard_normal(32)
    b = make_rng(123).standard_normal(32)
    assert np.array_equal(a, b)


def test_split_seed_changes_stream():
    from cellens import split_seed

    s1 = split_seed(99, 0)
    s2 = split_seed(99, 1)
    assert s1 != s2
    assert split_seed(99, 0) == s1


def _spd_stack(rng, shape, m):
    B = rng.standard_normal(shape + (m, m))
    return B @ np.swapaxes(B, -1, -2) + m * np.eye(m)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_stacked_pivot_ratios_match_slices():
    rng = make_rng(31)
    A = _spd_stack(rng, (2, 3), 4)
    ratios = pivot_ratios(A)
    assert ratios.shape == (2, 3, 4)
    for idx in np.ndindex(2, 3):
        assert _rel(ratios[idx], pivot_ratios(A[idx])) <= 1e-13


def test_stacked_pivot_ratios_zero_a_singular_slice():
    rng = make_rng(33)
    A = _spd_stack(rng, (4,), 3)
    v = rng.standard_normal(3)
    A[2] = np.outer(v, v)  # rank one
    ratios = pivot_ratios(A)
    assert np.array_equal(ratios[2], np.zeros(3))
    assert np.all(ratios[[0, 1, 3]] > PIVOT_RTOL)


@pytest.mark.parametrize("A_shape, b_shape", [
    ((2, 3, 3), (2, 3)),  # a stack of systems
    ((3, 3), (3, 2)),     # several right-hand sides
], ids=["stack", "several-rhs"])
def test_solve_takes_one_system(A_shape, b_shape):
    A = np.broadcast_to(np.eye(3), A_shape)
    with pytest.raises(ShapeMismatch, match=re.escape(
            f"A is {A_shape}, b is {b_shape}")):
        solve_spd(A, np.ones(b_shape))


@pytest.mark.parametrize("q", [3, 0])
def test_ols_takes_one_design(q):
    rng = make_rng(35)
    with pytest.raises(ShapeMismatch, match=re.escape(
            f"X is (2, 20, {q}), y is (2, 20)")):
        ols_fit(rng.standard_normal((2, 20, q)), rng.standard_normal((2, 20)))


def test_cholesky_pivot_rule_is_scale_free():
    # 1 - R^2 of the second column is 1e-6, well above PIVOT_RTOL: no
    # rescaling of either column can make it singular
    A = np.array([[1.0, 1.0 - 5e-7], [1.0 - 5e-7, 1.0]])
    for c in (1e-8, 1e-5, 1.0, 1e5, 1e8):
        D = np.diag([1.0, c])
        assert pivot_ratios(D @ A @ D)[1] == pytest.approx(
            1 - (1 - 5e-7) ** 2, rel=1e-6)
    # and a column nearly collinear in R^2 is singular at any scale
    A_bad = np.array([[1.0, 1.0 - 1e-12], [1.0 - 1e-12, 1.0]])
    for c in (1e-8, 1.0, 1e8):
        D = np.diag([c, 1.0])
        with pytest.raises(NotPositiveDefinite):
            solve_spd(D @ A_bad @ D, np.ones(2))
