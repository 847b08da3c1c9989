"""The robust stage's input contract: fits that do not depend on the memory
layout of ``X``, and typed errors for bad sets, shapes and cells (cells
also at the cleaning stage's entry points)."""

import hashlib
import re

import numpy as np
import pytest

from cellens import (CellensError, NonFiniteValue, SelectionConfig,
                     ShapeMismatch, ddc_impute, fit_ensemble,
                     fit_ensemble_models, make_rng, mm_fit, model_from_json,
                     model_to_json, passthrough_imputation, predict,
                     robust_standardize, s_scale)
from cellens.cellwise import partner_table, robust_partner_correlations


def _digest(fits):
    h = hashlib.sha256()
    for f in fits:
        h.update(np.ascontiguousarray(f.coefficients, dtype=float).tobytes())
        h.update(np.array([f.intercept, f.scale, f.converged,
                           f.iterations]).tobytes())
    return h.hexdigest()


def _layouts(X):
    """``X`` C-ordered, F-ordered and as a strided view into a larger array."""
    big = np.zeros((2 * X.shape[0], 3 * X.shape[1]))
    big[::2, ::3] = X
    return [np.ascontiguousarray(X), np.asfortranarray(X), big[::2, ::3]]


def _data(seed, n=40, p=6):
    rng = make_rng(seed)
    X = rng.standard_normal((n, p))
    y = X[:, :3] @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(n)
    y[:4] += 20.0
    return X, y


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("intercept", [True, False])
def test_fits_do_not_depend_on_the_memory_layout_of_X(seed, intercept):
    X, y = _data(80 + seed)
    solo = {_digest([mm_fit(Xl, y, intercept, seed)])
            for Xl in _layouts(X[:, :3])}
    assert len(solo) == 1
    sets = [[0, 1, 2], [3], [], [4, 5], [2, 0, 5]]
    ensemble = {_digest(fit_ensemble_models(y, Xl, sets, intercept, seed).fits)
                for Xl in _layouts(X)}
    assert len(ensemble) == 1


@pytest.mark.parametrize("sets, match", [
    ([[5]], r"'sets'\[0\] holds index 5 outside 0\.\.2"),
    ([[0], [-1]], r"'sets'\[1\] holds index -1 outside 0\.\.2"),
    ([], r"'sets' is empty"),
    ([[0, 1.0]], r"'sets'\[0\] holds 1\.0, not an integer index"),
    ([2], r"'sets'\[0\] is not a list"),
])
def test_fit_ensemble_models_rejects_bad_sets(sets, match):
    X, y = _data(90, p=3)
    with pytest.raises(ShapeMismatch, match=match):
        fit_ensemble_models(y, X, sets)


def test_fitted_sets_hold_plain_indices_that_round_trip():
    X, y = _data(91, p=3)
    model = fit_ensemble_models(y, X, [[np.int64(2), 0], []])
    assert model.sets == [[2, 0], []]
    assert all(type(j) is int for j in model.sets[0])
    assert model_from_json(model_to_json(model)).sets == model.sets


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fit", ["mm_fit", "ensemble", "ddc_impute",
                                 "robust_standardize",
                                 "passthrough_imputation", "partner_table",
                                 "robust_partner_correlations"])
def test_non_finite_cells_raise_a_typed_error_naming_the_column(capfd, value,
                                                                fit):
    # the cleaning stage's entry points take the joint matrix [y, X], whose
    # column numbers are those of the fits
    clean = {"ddc_impute": ddc_impute,
             "robust_standardize": robust_standardize,
             "passthrough_imputation": passthrough_imputation,
             "partner_table": partner_table,
             "robust_partner_correlations": robust_partner_correlations
             }.get(fit)
    X, y = _data(92)
    X[7, 4] = value
    with pytest.raises(NonFiniteValue) as info:
        if fit == "mm_fit":
            mm_fit(X, y)
        elif fit == "ensemble":
            fit_ensemble_models(y, X, [[0], [4, 1]])
        else:
            clean(np.column_stack([y, X]))
    assert info.value.column == 5
    y[3] = value
    with pytest.raises(NonFiniteValue) as info:
        if fit == "mm_fit":
            mm_fit(X[:, :3], y)
        elif fit == "ensemble":
            fit_ensemble_models(y, X, [[0]])
        else:
            clean(np.column_stack([y, X]))
    assert info.value.column == 0
    assert capfd.readouterr().err == ""


COMPLEX_INPUTS = {
    "fit_ensemble": lambda y, X: fit_ensemble(y, X, SelectionConfig(K=2)),
    "mm_fit": lambda y, X: mm_fit(X, y),
    "ddc_impute": lambda y, X: ddc_impute(np.column_stack([y, X])),
    "partner_table": lambda y, X: partner_table(np.column_stack([y, X])),
    "robust_partner_correlations":
        lambda y, X: robust_partner_correlations(np.column_stack([y, X])),
    "robust_standardize": lambda y, X: robust_standardize(X),
    "passthrough_imputation":
        lambda y, X: passthrough_imputation(np.column_stack([y, X])),
    "predict": lambda y, X: predict(
        fit_ensemble_models(y.real, X.real, [[0, 1]]), X),
}


# robust_standardize and predict read only X here
COMPLEX_CASES = [(entry, which) for entry in COMPLEX_INPUTS
                 for which in ("y", "X")
                 if which == "X" or entry not in ("robust_standardize",
                                                  "predict")]


@pytest.mark.parametrize("entry, which", COMPLEX_CASES,
                         ids=[f"{e}-{w}" for e, w in COMPLEX_CASES])
def test_complex_input_raises_shape_mismatch_naming_the_dtype(capfd, entry,
                                                              which):
    # a cast to float would drop the imaginary parts
    X, y = _data(99)
    if which == "y":
        y = y.astype(complex)
    else:
        X = X + 0.5j
    with pytest.raises(ShapeMismatch, match=re.escape(
            "expected real values, got dtype complex128")):
        COMPLEX_INPUTS[entry](y, X)
    assert capfd.readouterr().err == ""


def test_ensemble_reads_only_the_selected_columns():
    X, y = _data(93)
    want = fit_ensemble_models(y, X, [[0, 1], [2]]).fits
    X[:, 5] = np.nan
    got = fit_ensemble_models(y, X, [[0, 1], [2]]).fits
    assert _digest(got) == _digest(want)


@pytest.mark.parametrize("shape_y, shape_X", [
    ((39,), (40, 3)),
    ((40,), (40, 3, 2)),
    ((40, 2), (40, 3)),
])
@pytest.mark.parametrize("fit", ["mm_fit", "ensemble"])
def test_misshapen_inputs_raise_shape_mismatch(capfd, shape_y, shape_X, fit):
    rng = make_rng(94)
    y, X = rng.standard_normal(shape_y), rng.standard_normal(shape_X)
    with pytest.raises(ShapeMismatch):
        if fit == "mm_fit":
            mm_fit(X, y)
        else:
            fit_ensemble_models(y, X, [[0, 1]])
    assert capfd.readouterr().err == ""


# the cleaning stage takes a matrix Z with at least one row and one column
MISSHAPEN_CLEANING = [
    (clean, shape) for clean in (passthrough_imputation, ddc_impute,
                                 partner_table, robust_partner_correlations,
                                 robust_standardize)
    for shape in ((5,), (40, 3, 2), (), (0, 3), (4, 0), (0,))]


@pytest.mark.parametrize(
    "clean, shape", MISSHAPEN_CLEANING,
    ids=[f"{clean.__name__}-{shape}" for clean, shape in MISSHAPEN_CLEANING])
def test_misshapen_cleaning_inputs_raise_shape_mismatch(capfd, clean, shape):
    # the message names the shape the caller passed
    Z = make_rng(97).standard_normal(shape)
    with pytest.raises(ShapeMismatch, match=re.escape(f"got shape {shape}")):
        clean(Z)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_s_scale_rejects_non_finite_residuals(value):
    r = make_rng(95).standard_normal(30)
    r[4] = value
    with pytest.raises(CellensError):
        s_scale(r)


def test_s_scale_is_defined_at_any_magnitude():
    # the residuals are solved scaled to their largest power of two, so a
    # power-of-two factor passes through the scale exactly, with no
    # overflow or underflow warning, down to subnormal residuals; the
    # residuals are multiples of 1/16, so 2**-1070 times them is exact
    r = np.round(16 * make_rng(96).standard_normal(30)) / 16
    sigma = s_scale(r)
    assert 0 < sigma < np.inf
    for k in (-1070, -600, 600, 1000):
        assert s_scale(np.ldexp(r, k)) == np.ldexp(sigma, k), k
