import re

import numpy as np
import pytest

from cellens import (ContaminationSpec, InvalidConfig, ShapeMismatch,
                     SimConfig, block_covariance, contaminate, generate_clean,
                     make_test_set)
from cellens.simulate import _least_variance_direction


def headline_cfg(**kw):
    base = dict(n=50, p=500, sparsity=50, snr=1.0, block_size=25,
                rho_within=0.8, rho_background=0.2, seed=10)
    base.update(kw)
    return SimConfig(**base)


def test_headline_shapes():
    data = generate_clean(headline_cfg())
    assert data.X.shape == (50, 500)
    assert np.count_nonzero(data.truth.beta) == 50
    assert data.truth.mask_X.sum() == 0 and data.truth.mask_y.sum() == 0


def test_snr_scaling():
    cfg = headline_cfg(n=1000, p=60, sparsity=10, block_size=5, snr=1.0)
    data = generate_clean(cfg)
    signal = data.X @ data.truth.beta
    eps = data.y - signal
    ratio = np.var(eps, ddof=1) / np.var(signal, ddof=1)
    assert abs(ratio - 1.0) < 0.10


def test_null_model():
    cfg = headline_cfg(n=30, p=10, sparsity=0)
    data = generate_clean(cfg)
    assert np.all(data.truth.beta == 0)
    assert data.truth.noise_sd == 1.0
    # y is pure noise
    assert np.var(data.y) > 0


def test_sigma_pd_and_empirical_match():
    cfg = headline_cfg(n=100_000, p=20, sparsity=10, block_size=5)
    sigma = block_covariance(cfg)
    # symmetric PD
    assert np.allclose(sigma, sigma.T)
    assert np.min(np.linalg.eigvalsh(sigma)) > 0
    data = generate_clean(cfg)
    emp = np.corrcoef(data.X, rowvar=False)
    assert np.max(np.abs(emp - sigma)) < 0.02


def test_invalid_block_size():
    with pytest.raises(InvalidConfig):
        SimConfig(n=10, p=20, sparsity=10, block_size=3).validate()


def test_clean_scenario_identity():
    data = generate_clean(headline_cfg(n=30, p=40, sparsity=10, block_size=5))
    sigma = block_covariance(headline_cfg(n=30, p=40, sparsity=10, block_size=5))
    out = contaminate(data, ContaminationSpec(scenario="Clean"), sigma, seed=1)
    assert np.array_equal(out.X, data.X)
    assert np.array_equal(out.y, data.y)
    assert out.truth.mask_X.sum() == 0


def test_cellwise_marginal_counts_binomial():
    cfg = headline_cfg()  # n*p = 25000 >= 1e4
    data = generate_clean(cfg)
    sigma = block_covariance(cfg)
    alpha = 0.05
    out = contaminate(data, ContaminationSpec(scenario="CellwiseMarginal",
                                              alpha=alpha), sigma, seed=2)
    count = out.truth.mask_X.sum()
    expected = alpha * 50 * 500
    tol = 3 * np.sqrt(50 * 500 * alpha * (1 - alpha))
    assert abs(count - expected) <= tol
    # rewritten exactly where masked
    changed = out.X != data.X
    assert np.array_equal(changed, out.truth.mask_X.astype(bool))


def test_cellwise_correlation_budget():
    cfg = headline_cfg(n=40, p=50, sparsity=50, block_size=25)
    data = generate_clean(cfg)
    sigma = block_covariance(cfg)
    out = contaminate(data, ContaminationSpec(scenario="CellwiseCorrelation",
                                              alpha=0.05), sigma, seed=3)
    # budget met exactly (40*50*0.05 = 100 cells)
    assert out.truth.mask_X.sum() == 100
    changed = out.X != data.X
    assert np.array_equal(changed, out.truth.mask_X.astype(bool))


def test_cellwise_correlation_eigenvector_oracle():
    # keep the budget below one group per row so each contaminated row
    # carries exactly one group, recoverable from the mask
    gamma = 3.0
    for seed in (4, 5, 6):
        cfg = headline_cfg(n=20, p=30, sparsity=30, block_size=15, seed=seed)
        data = generate_clean(cfg)
        sigma = block_covariance(cfg)
        out = contaminate(data, ContaminationSpec(scenario="CellwiseCorrelation",
                                                  alpha=0.01, gamma_corr=gamma),
                          sigma, seed=seed + 50)
        mask = out.truth.mask_X.astype(bool)
        rows = np.flatnonzero(mask.any(axis=1))
        assert rows.size >= 1
        for i in rows:
            cols = np.flatnonzero(mask[i])
            sub = sigma[np.ix_(cols, cols)]
            v = out.X[i, cols] / (gamma * np.sqrt(cols.size))
            lam = np.linalg.eigvalsh(sub)[0]
            assert abs(np.linalg.norm(v) - 1.0) < 1e-10
            assert np.max(np.abs(sub @ v - lam * v)) < 1e-8


def test_casewise_rows():
    cfg = headline_cfg(n=40, p=30, sparsity=10, block_size=5)
    data = generate_clean(cfg)
    sigma = block_covariance(cfg)
    spec = ContaminationSpec(scenario="Casewise", alpha=0.2)
    out = contaminate(data, spec, sigma, seed=5)
    rows = np.flatnonzero(out.truth.mask_y)
    assert rows.size == 8
    assert np.all(out.truth.mask_X[rows] == 1)
    # responses follow the distorted coefficients exactly
    beta_cont = data.truth.beta.copy()
    act = sorted(data.truth.active_set)
    beta_cont[act] *= spec.beta_distort
    assert np.allclose(out.y[rows], out.X[rows] @ beta_cont, atol=1e-10)
    # untouched rows identical
    clean_rows = np.setdiff1d(np.arange(40), rows)
    assert np.array_equal(out.X[clean_rows], data.X[clean_rows])


def test_mixture_structure():
    cfg = headline_cfg(n=50, p=40, sparsity=20, block_size=10)
    data = generate_clean(cfg)
    sigma = block_covariance(cfg)
    spec = ContaminationSpec(scenario="MixtureMarginal", alpha=0.1, alpha2=0.05)
    out = contaminate(data, spec, sigma, seed=6)
    case_rows = np.flatnonzero(out.truth.mask_y)
    assert case_rows.size == 5
    cell_mask = out.truth.mask_X.copy()
    cell_mask[case_rows] = 0
    assert cell_mask.sum() > 0  # cellwise applied to the remainder


def test_make_test_set_deterministic():
    cfg = headline_cfg(n=30, p=20, sparsity=10, block_size=5)
    data = generate_clean(cfg)
    t1 = make_test_set(cfg, 5, data.truth.beta, data.truth.noise_sd, seed=77)
    t2 = make_test_set(cfg, 5, data.truth.beta, data.truth.noise_sd, seed=77)
    assert np.array_equal(t1.X, t2.X) and np.array_equal(t1.y, t2.y)
    single = make_test_set(cfg, 1, data.truth.beta, data.truth.noise_sd, seed=1)
    assert single.X.shape == (1, 20)


@pytest.mark.parametrize("scenario", ["Clean", "CellwiseCorrelation",
                                      "MixtureCorrelation"])
@pytest.mark.parametrize("shape", [(5, 5), (30, 29), (30,)])
def test_contaminate_rejects_misshapen_sigma(scenario, shape):
    cfg = headline_cfg(n=20, p=30, sparsity=10, block_size=5)
    data = generate_clean(cfg)
    with pytest.raises(ShapeMismatch, match=re.escape(
            f"sigma must have shape (30, 30), got shape {shape}")):
        contaminate(data, ContaminationSpec(scenario=scenario, alpha=0.1,
                                              alpha2=0.05),
                    np.eye(*shape) if len(shape) == 2 else np.ones(shape),
                    seed=1)


@pytest.mark.parametrize("shape", [(7,), (31,), (30, 1), ()])
def test_make_test_set_rejects_misshapen_beta(shape):
    cfg = headline_cfg(n=20, p=30, sparsity=10, block_size=5)
    with pytest.raises(ShapeMismatch, match=re.escape(
            f"beta must have shape (30,), got shape {shape}")):
        make_test_set(cfg, 5, np.ones(shape), 1.0, seed=2)


def test_make_test_set_size():
    cfg = headline_cfg(n=20, p=10, sparsity=5, block_size=5)
    data = generate_clean(cfg)
    t = make_test_set(cfg, 5000, data.truth.beta, data.truth.noise_sd, seed=8)
    assert t.X.shape == (5000, 10)


@pytest.mark.parametrize("p, sparsity, block_size", [
    (30, 10, 1),     # blocks of one column: only the background correlation
    (30, 0, 25),     # no active blocks
    (40, 20, 5),     # several blocks
    (2, 2, 2),       # p = 2, one block
    (2, 0, 1),       # p = 2, background only
    (1, 1, 1),       # p = 1: u = e_0
])
def test_least_variance_direction_matches_eigvalsh(p, sparsity, block_size):
    cfg = headline_cfg(n=10, p=p, sparsity=sparsity, block_size=block_size)
    sigma = block_covariance(cfg)
    u = _least_variance_direction(p)
    lam = np.linalg.eigvalsh(sigma)[0]
    assert abs(np.linalg.norm(u) - 1.0) < 1e-15
    assert np.max(np.abs(sigma @ u - lam * u)) < 1e-14


@pytest.mark.parametrize("field, value", [
    ("rho_background", -0.05), ("rho_background", float("nan")),
    ("rho_within", float("nan")),
    ("rho_within", 0.1), ("rho_within", 1.0), ("snr", float("nan")),
    ("snr", float("inf")), ("coef_range", (float("nan"), 1.0)),
    ("coef_range", (0.0, float("inf"))), ("n", 30.0), ("p", True),
])
def test_sim_config_rejects(field, value):
    with pytest.raises(InvalidConfig, match=re.escape(f"{field}={value!r}")):
        generate_clean(headline_cfg(**{field: value}))


@pytest.mark.parametrize("field", ["leverage_c", "marginal_shift",
                                   "gamma_corr", "beta_distort"])
@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan"),
                                   "10"])
def test_contamination_spec_rejects_non_finite_constants(field, value):
    spec = ContaminationSpec(scenario="MixtureCorrelation", alpha=0.1,
                             alpha2=0.05, **{field: value})
    with pytest.raises(InvalidConfig, match=re.escape(f"{field}={value!r}")):
        spec.validate()


def test_casewise_rows_sit_on_least_variance_direction():
    # the row mean of the leverage points estimates leverage_c * u
    cfg = headline_cfg(n=400, p=6, sparsity=4, block_size=2)
    data = generate_clean(cfg)
    spec = ContaminationSpec(scenario="Casewise", alpha=0.5, leverage_c=4.0)
    out = contaminate(data, spec, block_covariance(cfg), seed=9)
    rows = np.flatnonzero(out.truth.mask_y)
    center = out.X[rows].mean(axis=0)
    assert np.max(np.abs(center - 4.0 * _least_variance_direction(6))) < 0.1
