import re

import numpy as np
import pytest

import cellens.robustfit as robustfit
from cellens import (EnsembleModel, RankDeficient, RobustFit, ShapeMismatch,
                     fit_ensemble_models, make_rng, mm_fit, model_from_json,
                     model_to_json, ols_fit, pivot_ratios, predict, s_scale)
from cellens.robustfit import (C_BREAKDOWN, S_STAGE_MAX_ITER, WLS_NORMAL_RATIO,
                               _irls_s_stage, _solve_s_scale, bisquare_rho,
                               bisquare_weight)
from cellens.reference import s_scale_grid


def test_s_scale_scale_equivariance():
    r = np.array([1.5, -1.5, 1.5, -1.5, 1.5])
    s1 = s_scale(r)
    s2 = s_scale(2 * r)
    assert s2 == pytest.approx(2 * s1, rel=1e-9)


def test_s_scale_gaussian_consistency():
    rng = make_rng(1)
    r = rng.standard_normal(100_000)
    assert s_scale(r, C_BREAKDOWN) == pytest.approx(1.0, rel=0.02)


def test_s_scale_pm_one_closed_form():
    # mean rho(1/sigma) = 1/2 has the closed form
    # sigma = 1 / (c * sqrt(1 - 2^(-1/3)))
    r = np.array([1.0, -1.0])
    got = s_scale(r, C_BREAKDOWN)
    closed = 1.0 / (C_BREAKDOWN * np.sqrt(1 - 2 ** (-1 / 3)))
    assert got == pytest.approx(closed, rel=1e-9)
    assert got == pytest.approx(s_scale_grid(r, C_BREAKDOWN), abs=1e-7)


def test_s_scale_matches_grid_oracle():
    rng = make_rng(2)
    for _ in range(5):
        r = rng.standard_normal(50) * rng.uniform(0.5, 3.0)
        assert s_scale(r) == pytest.approx(s_scale_grid(r, C_BREAKDOWN), abs=1e-6)


def test_s_scale_exact_fit():
    assert s_scale(np.zeros(10)) == 0.0
    # more than half zeros: no positive solution
    assert s_scale(np.array([0.0] * 6 + [1.0] * 4)) == 0.0


def _hard_residuals(kind):
    rng = make_rng(20)
    if kind == "t2":
        return rng.standard_t(2, 300)
    if kind == "saturated":
        r = rng.standard_normal(100)
        r[:45] = rng.choice([-1.0, 1.0], 45) * rng.uniform(20, 80, 45)
        return r
    return np.array([0.0, 1.3, -0.4])


@pytest.mark.parametrize("kind", ["t2", "saturated", "tiny"])
def test_s_scale_matches_grid_oracle_hard_cases(kind):
    r = _hard_residuals(kind)
    sigma = s_scale(r)
    assert sigma == pytest.approx(s_scale_grid(r, C_BREAKDOWN), abs=1e-6)
    if kind == "saturated":
        assert np.mean(np.abs(r) / sigma >= C_BREAKDOWN) >= 0.4


@pytest.mark.parametrize("kind", ["t2", "saturated", "tiny"])
@pytest.mark.parametrize("factor", [1e-6, 1e6])
def test_s_scale_warm_start_far_from_root(kind, factor):
    r = _hard_residuals(kind)
    root = s_scale(r, rtol=1e-14)
    got = _solve_s_scale(r[None], C_BREAKDOWN, 1e-12,
                         guess=np.array([factor * root]))
    assert got[0] == pytest.approx(root, rel=1e-10)


@pytest.mark.parametrize("kind", ["t2", "saturated", "tiny"])
def test_s_scale_scale_equivariance_tight(kind):
    r = _hard_residuals(kind)
    for c in (1e-3, 0.7, 3.0, 1e4):
        assert s_scale(c * r) == pytest.approx(c * s_scale(r), rel=1e-12)


def test_s_stage_stops_at_scale_accuracy(monkeypatch):
    import cellens.robustfit as robustfit

    rng = make_rng(3)
    n = 200
    X = rng.standard_normal((n, 4))
    y = X @ rng.uniform(-2, 2, 4) + rng.standard_normal(n)
    out = rng.choice(n, size=n * 15 // 100, replace=False)
    y[out] += rng.uniform(10, 30, out.size)
    D = np.column_stack([np.ones(n), X])
    coef, b0 = ols_fit(X, y, intercept=True)
    theta0 = np.concatenate([[b0], coef])

    rounds = []
    weighted_ls = robustfit._weighted_ls

    def counted(*args):
        rounds.append(1)
        return weighted_ls(*args)

    monkeypatch.setattr(robustfit, "_weighted_ls", counted)
    _, sigma = _irls_s_stage(D, y, theta0[None], C_BREAKDOWN, scale_rtol=1e-5)
    assert len(rounds) < S_STAGE_MAX_ITER
    _, converged = _irls_s_stage(D, y, theta0[None], C_BREAKDOWN,
                                 max_iter=10_000, scale_rtol=1e-13)
    assert sigma[0] == pytest.approx(converged[0], rel=1e-4)


def _binary_design(seed, n=60):
    """Design [1, x, z1, z2] with a 0/1 column x, and a response whose
    x = 1 rows sit 50 above the others."""
    rng = make_rng(seed)
    x = (np.arange(n) < 2 * n // 5).astype(float)
    Z = rng.standard_normal((n, 2))
    D = np.column_stack([np.ones(n), x, Z])
    y = 50.0 * x + Z @ np.array([0.5, -1.0]) + 0.3 * rng.standard_normal(n)
    return rng, D, y


def test_weighted_ls_singular_design_gets_min_norm_solution():
    rng, D, y = _binary_design(71)
    w_singular = np.where(D[:, 1] == 1.0, 0.0, rng.uniform(0.2, 1.0, len(y)))
    w_regular = rng.uniform(0.2, 1.0, len(y))
    sw = np.sqrt(w_singular)
    min_norm = np.linalg.lstsq(D * sw[:, None], y * sw, rcond=None)[0]
    got = robustfit._weighted_ls(D, y, w_singular)
    assert np.max(np.abs(got - min_norm)) <= 1e-12 * np.max(np.abs(min_norm))
    assert abs(got[1]) <= 1e-12  # the all-zero weighted column
    # in a stack, the singular row does not disturb the regular one
    stacked = robustfit._weighted_ls(D, y, np.stack([w_singular, w_regular]))
    assert np.array_equal(stacked[0], got)
    regular = robustfit._weighted_ls(D, y, w_regular)
    assert np.max(np.abs(stacked[1] - regular)) <= 1e-12 * np.max(np.abs(regular))


@pytest.mark.parametrize("one_minus_r2", [1e-3, 1e-4, 3e-5, 1e-6, 1e-8, 1e-9])
def test_weighted_ls_near_collinear_matches_lstsq(one_minus_r2):
    rng = make_rng(73)
    n = 60
    Z = rng.standard_normal((n, 3))
    x = Z[:, 0] + Z[:, 1]
    e = rng.standard_normal(n)
    e = (e - e.mean()) * np.std(x) / np.std(e) * np.sqrt(one_minus_r2)
    # the last column has 1 - R^2 of about one_minus_r2 on the others
    D = np.column_stack([np.ones(n), Z, x + e])
    y = D @ rng.uniform(-2.0, 2.0, 5) + rng.standard_normal(n)
    w = rng.uniform(0.1, 1.0, n)
    sw = np.sqrt(w)
    want = np.linalg.lstsq(D * sw[:, None], y * sw, rcond=None)[0]
    got = robustfit._weighted_ls(D, y, w)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    stacked = robustfit._weighted_ls(D, y, np.stack([w, w]))
    assert np.array_equal(stacked, np.stack([got, got]))


def test_weighted_ls_stack_with_one_near_collinear_row_matches_rows():
    # the regular rows stay one stacked solve; each row's bits are those
    # of solving it on its own
    rng = make_rng(74)
    n = 60
    Z = rng.standard_normal((n, 3))
    # x departs from z1 + z2 mostly in the first half of the rows
    e = rng.standard_normal(n) * np.where(np.arange(n) < n // 2, 1.0, 1e-4)
    D = np.column_stack([np.ones(n), Z, Z[:, 0] + Z[:, 1] + e])
    y = D @ rng.uniform(-2.0, 2.0, 5) + rng.standard_normal(n)
    W = rng.uniform(0.1, 1.0, (6, n))
    W[3, : n // 2] = 0.0
    least = pivot_ratios((W[:, None, :] * D.T) @ D).min(axis=-1)
    assert (least <= WLS_NORMAL_RATIO).tolist() == [False] * 3 + [True] + [False] * 2
    stacked = robustfit._weighted_ls(D, y, W)
    rows = np.stack([robustfit._weighted_ls(D, y, w) for w in W])
    assert np.array_equal(stacked, rows)


def test_stacked_previews_match_serial_starts():
    rng, D, y = _binary_design(72)
    coef, b0 = ols_fit(D[:, 1:], y, intercept=True)
    truth = np.array([0.0, 50.0, 0.5, -1.0])
    starts = [np.concatenate([[b0], coef]),
              # fits only the x = 0 rows: its weighted design is singular
              np.array([0.0, 0.0, 0.5, -1.0])]
    starts += [truth + rng.standard_normal(4) * scale
               for scale in np.geomspace(1e-3, 30.0, 19)]
    starts = np.array(starts)
    thetas, sigmas = _irls_s_stage(D, y, starts, C_BREAKDOWN, max_iter=2,
                                   scale_rtol=1e-3, final_rtol=1e-3)
    assert thetas.shape == starts.shape and sigmas.shape == (len(starts),)
    for start, theta, sigma in zip(starts, thetas, sigmas):
        want_theta, want_sigma = _irls_s_stage(D, y, start[None], C_BREAKDOWN,
                                               max_iter=2, scale_rtol=1e-3,
                                               final_rtol=1e-3)
        want_theta, want_sigma = want_theta[0], want_sigma[0]
        assert sigma > 0
        assert abs(sigma - want_sigma) <= 1e-12 * want_sigma
        assert (np.max(np.abs(theta - want_theta))
                <= 1e-12 * np.max(np.abs(want_theta)))
    # the singular start stays on the x = 0 rows: no weight ever reaches
    # x = 1, so its x coefficient is the min-norm zero
    assert abs(thetas[1, 1]) <= 1e-12


def test_bisquare_weight_accepts_scalars():
    assert bisquare_weight(0.5, 1.0) == pytest.approx(0.5625)
    assert bisquare_weight(2.0, 1.0) == 0.0
    u = np.array([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0])
    assert np.array_equal(bisquare_weight(u, 1.0),
                          [bisquare_weight(v, 1.0) for v in u])


def test_mm_exact_fit():
    rng = make_rng(3)
    X = rng.standard_normal((40, 3))
    beta = np.array([1.0, -2.0, 0.5])
    fit = mm_fit(X, X @ beta, intercept=False)
    assert np.max(np.abs(fit.coefficients - beta)) < 1e-8
    assert fit.scale == pytest.approx(0.0, abs=1e-12)


def test_mm_regression_equivariance():
    rng = make_rng(4)
    X = rng.standard_normal((60, 2))
    y = X @ np.array([2.0, -1.0]) + 0.5 * rng.standard_normal(60)
    y[::7] += 20.0  # some outliers
    b = np.array([3.0, 1.0])
    f1 = mm_fit(X, y, intercept=False, seed=5)
    f2 = mm_fit(X, y + X @ b, intercept=False, seed=5)
    assert np.max(np.abs(f2.coefficients - (f1.coefficients + b))) < 1e-6


def test_mm_resists_response_outliers():
    rng = make_rng(6)
    n = 100
    x = rng.standard_normal(n)
    y_clean = 2.0 * x + 0.5 * rng.standard_normal(n)
    clean_slope = ols_fit(x, y_clean, intercept=True)[0][0]
    y = y_clean.copy()
    out_rows = rng.choice(n, size=20, replace=False)
    y[out_rows] += 50.0
    robust_slope = mm_fit(x[:, None], y, intercept=True).coefficients[0]
    ols_slope = ols_fit(x, y, intercept=True)[0][0]
    assert abs(robust_slope - clean_slope) < 0.05
    assert abs(ols_slope - clean_slope) > 0.5


def test_mm_affine_equivariance_of_columns():
    rng = make_rng(7)
    X = rng.standard_normal((70, 3))
    y = X @ np.array([1.0, 2.0, -1.5]) + 0.3 * rng.standard_normal(70)
    y[::9] -= 15.0
    c = np.array([2.0, -0.5, 1.5])
    a = np.array([1.0, -2.0, 0.5])
    f1 = mm_fit(X, y, intercept=True, seed=8)
    f2 = mm_fit(X * c + a, y, intercept=True, seed=8)
    assert np.max(np.abs(f2.coefficients - f1.coefficients / c)) < 1e-6
    assert f2.intercept == pytest.approx(f1.intercept - np.sum(a * f1.coefficients / c),
                                         abs=1e-5)


def test_mm_m_stage_descends():
    rng = make_rng(9)
    X = rng.standard_normal((50, 2))
    y = X @ np.array([1.0, 1.0]) + rng.standard_normal(50)
    y[:10] += 30.0
    fit = mm_fit(X, y, intercept=True)
    assert fit.scale > 0
    # objective at the returned fit no worse than at the plain OLS fit
    coef, b0 = ols_fit(X, y, intercept=True)
    r_ols = y - X @ coef - b0
    r_mm = y - X @ fit.coefficients - fit.intercept
    from cellens.robustfit import C_EFFICIENCY

    assert np.mean(bisquare_rho(r_mm / fit.scale, C_EFFICIENCY)) <= \
        np.mean(bisquare_rho(r_ols / fit.scale, C_EFFICIENCY)) + 1e-12


@pytest.mark.parametrize("power", [-30, 600, -600])
def test_mm_stop_is_scale_free(power):
    # y is prepared like any column and the M-stage stops on residual
    # moves in units of the scale, so a power-of-two rescaling of y
    # rescales every iterate exactly, even where its squares would
    # overflow or underflow
    rng = make_rng(20)
    X = rng.standard_normal((80, 3))
    y = X @ np.array([2.0, -1.0, 0.5]) + rng.standard_normal(80)
    y[:8] += 15.0
    f1 = mm_fit(X, y, seed=20)
    f2 = mm_fit(X, np.ldexp(y, power), seed=20)
    assert f1.converged and f2.converged
    assert f2.iterations == f1.iterations > 1
    assert np.array_equal(f2.coefficients, np.ldexp(f1.coefficients, power))
    assert f2.intercept == np.ldexp(f1.intercept, power)
    assert f2.scale == np.ldexp(f1.scale, power)


@pytest.mark.parametrize("intercept", [True, False])
@pytest.mark.parametrize("power", [600, -600])
def test_mm_fit_coefficients_follow_a_rescaled_column_exactly(intercept, power):
    # the design's columns are equilibrated by powers of two, so a column
    # times 2**power gets exactly 2**-power times its coefficient, even
    # where its Gram entries would overflow or underflow
    rng = make_rng(21)
    X = rng.standard_normal((80, 3))
    y = X @ np.array([2.0, -1.0, 0.5]) + rng.standard_normal(80)
    y[:8] += 15.0
    f1 = mm_fit(X, y, intercept=intercept, seed=21)
    X2 = X.copy()
    X2[:, 1] = np.ldexp(X2[:, 1], power)
    f2 = mm_fit(X2, y, intercept=intercept, seed=21)
    assert f2.iterations == f1.iterations > 1
    want = f1.coefficients.copy()
    want[1] = np.ldexp(want[1], -power)
    assert np.array_equal(f2.coefficients, want)
    assert f2.intercept == f1.intercept and f2.scale == f1.scale


@pytest.mark.parametrize("seed", [71, 72, 73])
def test_mm_fit_with_singular_elemental_subsets(seed):
    _, D, y = _binary_design(seed)
    # premise: some of the fit's elemental subsets draw x = 0 (or x = 1)
    # rows only, so their 4 x 4 systems are singular
    rng = make_rng(seed)
    singular = [np.ptp(D[rng.choice(len(y), size=4, replace=False), 1]) == 0
                for _ in range(robustfit.N_ELEMENTAL_STARTS)]
    assert any(singular)
    fit = mm_fit(D[:, 1:], y, intercept=True, seed=seed)
    assert fit.converged
    assert np.all(np.isfinite(fit.coefficients)) and np.isfinite(fit.intercept)
    assert np.isfinite(fit.scale) and fit.scale > 0
    assert abs(fit.coefficients[0] - 50.0) <= 0.5


def test_mm_rank_deficient():
    rng = make_rng(10)
    X = np.column_stack([np.ones(20), np.ones(20)])
    with pytest.raises(RankDeficient):
        mm_fit(X, rng.standard_normal(20), intercept=False)


def test_mm_too_many_columns():
    rng = make_rng(11)
    with pytest.raises(RankDeficient):
        mm_fit(rng.standard_normal((5, 5)), rng.standard_normal(5),
               intercept=False)


def test_mm_empty_design_location():
    rng = make_rng(12)
    y = 3.0 + rng.standard_normal(50)
    fit = mm_fit(np.empty((50, 0)), y, intercept=True)
    assert fit.coefficients.size == 0
    assert fit.intercept == pytest.approx(3.0, abs=0.5)


def test_mm_empty_design_without_intercept():
    rng = make_rng(12)
    y = 3.0 + rng.standard_normal(50)
    fit = mm_fit(np.empty((50, 0)), y, intercept=False)
    assert fit.coefficients.size == 0
    assert fit.intercept == 0.0
    assert fit.scale == s_scale(y)
    assert fit.converged and fit.iterations == 0


def test_predict_shapes_and_averaging():
    rng = make_rng(13)
    X = rng.standard_normal((30, 6))
    y = X[:, 0] - X[:, 3] + 0.1 * rng.standard_normal(30)
    model = fit_ensemble_models(y, X, [[0], [3]], intercept=True)
    single = fit_ensemble_models(y, X, [[0]], intercept=True)
    p1 = predict(single, X)
    f0 = model.fits[0]
    expected0 = f0.intercept + X[:, [0]] @ f0.coefficients
    assert np.allclose(p1, expected0, atol=1e-12)
    # two identical fits average to either
    twin = EnsembleModel(fits=[model.fits[0], model.fits[0]],
                         sets=[[0], [0]], p=6, intercept=True)
    assert np.allclose(predict(twin, X), expected0, atol=1e-12)
    # general mean
    f1 = model.fits[1]
    expected1 = f1.intercept + X[:, [3]] @ f1.coefficients
    assert np.allclose(predict(model, X), (expected0 + expected1) / 2, atol=1e-12)


def test_predict_empty_set_contributes_intercept():
    rng = make_rng(14)
    X = rng.standard_normal((25, 4))
    y = 5.0 + X[:, 1] + 0.1 * rng.standard_normal(25)
    model = fit_ensemble_models(y, X, [[1], []], intercept=True)
    pred = predict(model, X)
    f0, f1 = model.fits
    manual = ((f0.intercept + X[:, [1]] @ f0.coefficients)
              + np.full(25, f1.intercept)) / 2
    assert np.allclose(pred, manual, atol=1e-12)


def test_predict_shape_mismatch():
    model = EnsembleModel(
        fits=[RobustFit(coefficients=np.array([1.0]), intercept=0.0, scale=1.0,
                        converged=True, iterations=1)],
        sets=[[0]], p=3, intercept=False)
    with pytest.raises(ShapeMismatch):
        predict(model, np.zeros((4, 2)))


def test_model_json_roundtrip():
    rng = make_rng(15)
    X = rng.standard_normal((40, 5))
    y = X[:, 0] + 2 * X[:, 2] + 0.2 * rng.standard_normal(40)
    model = fit_ensemble_models(y, X, [[0, 2], [4], []], intercept=True)
    doc = model_to_json(model)
    back = model_from_json(doc)
    assert back.sets == model.sets
    assert back.p == model.p and back.intercept == model.intercept
    Xnew = rng.standard_normal((7, 5))
    assert np.allclose(predict(back, Xnew), predict(model, Xnew), atol=1e-15)


def test_model_json_rejects_unknown_schema():
    import json

    from cellens import make_rng

    rng = make_rng(16)
    X = rng.standard_normal((30, 3))
    y = X[:, 0] + 0.1 * rng.standard_normal(30)
    doc = json.loads(model_to_json(fit_ensemble_models(y, X, [[0]])))
    doc["schema_version"] = 99
    with pytest.raises(ShapeMismatch):
        model_from_json(json.dumps(doc))


def _two_set_doc():
    import json

    rng = make_rng(17)
    X = rng.standard_normal((30, 4))
    y = X[:, 0] - X[:, 3] + 0.1 * rng.standard_normal(30)
    return json.loads(model_to_json(fit_ensemble_models(y, X, [[0, 1], [3]])))


@pytest.mark.parametrize("field, mutate", [
    ("'scales'", lambda d: d["scales"].pop()),
    ("'coefficients'[1]", lambda d: d["coefficients"][1].append(0.5)),
    ("'sets'[0]", lambda d: d["sets"][0].__setitem__(1, 4)),
    ("'sets'[1]", lambda d: d["sets"][1].__setitem__(0, -1)),
    ("'intercepts'", lambda d: d.pop("intercepts")),
    ("'sets'", lambda d: d["sets"].clear()),
])
def test_model_json_rejects_malformed_document(field, mutate):
    import json

    doc = _two_set_doc()
    mutate(doc)
    with pytest.raises(ShapeMismatch, match=f"model field {re.escape(field)}"):
        model_from_json(json.dumps(doc))


@pytest.mark.parametrize("field, mutate", [
    ("'p' is 'abc'", lambda d: d.__setitem__("p", "abc")),
    ("'p' is True", lambda d: d.__setitem__("p", True)),
    ("'p' is 4.0", lambda d: d.__setitem__("p", 4.0)),
    ("'sets'[0] holds '1'", lambda d: d["sets"][0].__setitem__(1, "1")),
    ("'sets'[1] holds 0.7", lambda d: d["sets"][1].__setitem__(0, 0.7)),
    ("'sets'[0] holds False", lambda d: d["sets"][0].__setitem__(0, False)),
    ("'coefficients'[1] holds 'x'",
     lambda d: d["coefficients"][1].__setitem__(0, "x")),
    ("'coefficients'[0] holds nan",
     lambda d: d["coefficients"][0].__setitem__(1, float("nan"))),
    ("'intercepts' holds inf", lambda d: d["intercepts"].__setitem__(0, float("inf"))),
    ("'intercepts' holds None", lambda d: d["intercepts"].__setitem__(1, None)),
    ("'scales' holds '1.0'", lambda d: d["scales"].__setitem__(0, "1.0")),
    ("'scales' holds True", lambda d: d["scales"].__setitem__(1, True)),
    ("'converged' holds 'no'", lambda d: d["converged"].__setitem__(0, "no")),
    ("'iterations' holds 2.5", lambda d: d["iterations"].__setitem__(1, 2.5)),
])
def test_model_json_rejects_wrong_field_values(field, mutate):
    import json
    import re

    doc = _two_set_doc()
    mutate(doc)
    with pytest.raises(ShapeMismatch, match=f"model field {re.escape(field)}"):
        model_from_json(json.dumps(doc))


def test_model_json_rejects_invalid_json():
    with pytest.raises(ShapeMismatch, match="not valid JSON"):
        model_from_json('{"schema_version": 1,')
    with pytest.raises(ShapeMismatch, match="not a JSON object"):
        model_from_json("[1, 2]")
