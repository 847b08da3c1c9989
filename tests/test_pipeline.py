import numpy as np
import pytest

from cellens import NonFiniteValue, SelectionConfig, fit_ensemble, make_rng


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


def test_finite_input_still_fits():
    _, y, X = noisy_inputs(65)
    result = fit_ensemble(y, X, SelectionConfig(K=3, seed=66))
    assert np.isfinite(result.predict(X)).all()
