import tracemalloc

import numpy as np
import pytest

from cellens import (ContaminationSpec, InvalidConfig, NonFiniteValue,
                     SelectionConfig, ShapeMismatch, SimConfig,
                     block_covariance, contaminate, fit_ensemble,
                     generate_clean, make_rng)


def noisy_inputs(seed, n=40, p=30):
    rng = make_rng(seed)
    X = rng.standard_normal((n, p))
    y = X[:, :3] @ np.array([2.0, -1.5, 1.0]) + 0.5 * rng.standard_normal(n)
    return rng, y, X


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 4])  # 0 is y, j is x_j
@pytest.mark.parametrize("impute", [True, False])
def test_nonfinite_cell_names_its_column(value, column, impute):
    rng, y, X = noisy_inputs(61)
    Z = np.column_stack([y, X])
    Z[rng.integers(len(y)), column] = value
    with pytest.raises(NonFiniteValue, match=f"column {column} ") as info:
        fit_ensemble(Z[:, 0], Z[:, 1:], SelectionConfig(K=3, seed=62),
                     impute=impute)
    assert info.value.column == column


def test_nonfinite_reports_first_column():
    rng, y, X = noisy_inputs(63)
    X[5, 20] = np.nan
    X[9, 7] = np.inf
    with pytest.raises(NonFiniteValue) as info:
        fit_ensemble(y, X, SelectionConfig(K=3, seed=64))
    assert info.value.column == 8  # x_8 is X[:, 7]


@pytest.mark.parametrize("intercept", [None, 1, "false"])
def test_non_boolean_intercept_is_a_config_error(intercept):
    _, y, X = noisy_inputs(67)
    with pytest.raises(InvalidConfig,
                       match=f"intercept={intercept!r} must be a boolean"):
        fit_ensemble(y, X, SelectionConfig(K=3, intercept=intercept, seed=68))


def test_finite_input_still_fits():
    _, y, X = noisy_inputs(65)
    result = fit_ensemble(y, X, SelectionConfig(K=3, seed=66))
    assert np.isfinite(result.predict(X)).all()


@pytest.mark.parametrize("shape_y, shape_X, message", [
    ((30,), (40, 30), "y has length 30, X has 40 rows"),
    ((40,), (40, 30, 1), r"got shapes \(40,\) and \(40, 30, 1\)"),
    ((0,), (0, 30), "no rows"),
], ids=["short y", "3-D X", "zero rows"])
def test_malformed_shape_is_a_shape_mismatch(shape_y, shape_X, message):
    _, y, X = noisy_inputs(67)
    y = y[:shape_y[0]]
    X = X[:shape_X[0]].reshape(shape_X)
    with pytest.raises(ShapeMismatch, match=message):
        fit_ensemble(y, X, SelectionConfig(K=3, seed=68))


def test_single_column_inputs_still_fit():
    # a one-column y and a vector X (one predictor) mean what they did
    _, y, X = noisy_inputs(73)
    cfg = SelectionConfig(K=2, seed=74)
    base = fit_ensemble(y, X[:, :1], cfg)
    for yy, XX in ((y[:, None], X[:, :1]), (y, X[:, 0])):
        assert fit_ensemble(yy, XX, cfg).model.sets == base.model.sets


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_predict_names_nonfinite_predictor(value):
    # checked on every column, selected or not
    _, y, X = noisy_inputs(75)
    result = fit_ensemble(y, X, SelectionConfig(K=3, seed=76))
    unused = min(set(range(X.shape[1])) - result.selected_union())
    Xnew = X[:5].copy()
    Xnew[2, unused] = value
    with pytest.raises(NonFiniteValue, match=f"x{unused + 1} ") as info:
        result.predict(Xnew)
    assert info.value.column == unused + 1


def test_predict_three_dimensional_input_is_a_shape_mismatch():
    _, y, X = noisy_inputs(77)
    result = fit_ensemble(y, X, SelectionConfig(K=3, seed=78))
    with pytest.raises(ShapeMismatch, match="must be a matrix"):
        result.predict(X[:, :, None])


@pytest.mark.parametrize("intercept", [True, False])
@pytest.mark.parametrize("factor", [1e5, 1e8, 1e200, 1e-5, 1e-8, 1e-200])
def test_one_rescaled_predictor_keeps_selection(intercept, factor):
    # every rank decision is scale-free: multiplying one selected
    # predictor by a power of ten leaves the tournament unchanged
    rng = make_rng(61)
    n, p = 60, 20
    X = rng.standard_normal((n, p))
    y = (X[:, :6] @ np.array([2.0, -1.5, 1.0, 1.0, -0.8, 0.6])
         + 0.5 * rng.standard_normal(n))
    cfg = SelectionConfig(K=3, tau=0.01, intercept=intercept, seed=62)
    base = fit_ensemble(y, X, cfg)
    j = base.selection.sets[0][0]
    X2 = X.copy()
    X2[:, j] *= factor
    scaled = fit_ensemble(y, X2, cfg)
    assert scaled.selection.sets == base.selection.sets
    assert (scaled.selection.winner_sequence()
            == base.selection.winner_sequence())


@pytest.mark.parametrize("column, shift", [("x", 1e6), ("x", 1e10),
                                           ("y", 1e8)])
def test_shift_moves_only_the_intercept(column, shift):
    # intercept models fit centered columns and a centered response, so
    # shifting a selected predictor or y keeps every decision and moves
    # the predictions only by the rounding of the shifted input
    rng = make_rng(61)
    n, p = 60, 20
    X = rng.standard_normal((n, p))
    y = (X[:, :6] @ np.array([2.0, -1.5, 1.0, 1.0, -0.8, 0.6])
         + 0.5 * rng.standard_normal(n))
    cfg = SelectionConfig(K=3, tau=0.01, intercept=True, seed=62)
    base = fit_ensemble(y, X, cfg)
    X2, y2 = X.copy(), y.copy()
    if column == "x":
        X2[:, base.selection.sets[0][0]] += shift
    else:
        y2 += shift
    moved = fit_ensemble(y2, X2, cfg)
    assert moved.selection.sets == base.selection.sets
    assert (moved.selection.winner_sequence()
            == base.selection.winner_sequence())
    steps = [[(f.converged, f.iterations) for f in fit.model.fits]
             for fit in (base, moved)]
    assert steps[1] == steps[0] and all(c for c, _ in steps[0])
    undo = shift if column == "y" else 0.0
    gap = np.max(np.abs(moved.predict(X2) - undo - base.predict(X)))
    assert gap <= 1e-14 * shift


@pytest.mark.parametrize("intercept", [True, False])
@pytest.mark.parametrize("factor", [1e200, 1e-200, 2.0**600, 2.0**-600],
                         ids=["1e200", "1e-200", "2^600", "2^-600"])
def test_extreme_response_scale_keeps_the_fit(intercept, factor):
    # y is prepared like any column, so a response whose squares overflow
    # or underflow keeps every decision and, with the factor undone, the
    # predictions
    rng = make_rng(61)
    n, p = 60, 20
    X = rng.standard_normal((n, p))
    y = (X[:, :6] @ np.array([2.0, -1.5, 1.0, 1.0, -0.8, 0.6])
         + 0.5 * rng.standard_normal(n))
    cfg = SelectionConfig(K=3, tau=0.01, intercept=intercept, seed=62)
    base = fit_ensemble(y, X, cfg)
    scaled = fit_ensemble(y * factor, X, cfg)
    assert scaled.selection.sets == base.selection.sets
    assert (scaled.selection.winner_sequence()
            == base.selection.winner_sequence())
    assert ([(f.converged, f.iterations) for f in scaled.model.fits]
            == [(f.converged, f.iterations) for f in base.model.fits])
    gap = np.max(np.abs(scaled.predict(X) / factor - base.predict(X)))
    assert gap <= 1e-12 * y.std()


def test_wide_fit_holds_no_columns_squared_array():
    # one (p+1) x (p+1) float array alone is 30.5 MiB at p = 2000; the
    # fit's own arrays are a few n x (p+1) ones (1.5 MiB each)
    sim = SimConfig(n=100, p=2000, sparsity=50, snr=1.0, block_size=25, seed=1)
    obs = contaminate(generate_clean(sim),
                      ContaminationSpec(scenario="MixtureCorrelation",
                                        alpha=0.1, alpha2=0.05),
                      block_covariance(sim), seed=2)
    cfg = SelectionConfig(K=10, seed=3)
    fit_ensemble(obs.y[:40], obs.X[:40, :50], cfg)  # first-call allocations
    tracemalloc.start()
    try:
        fit = fit_ensemble(obs.y, obs.X, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, fit.model.sets)) >= 5
    assert peak < 12 * 2**20
