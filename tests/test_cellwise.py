import numpy as np
import pytest

from cellens import (ContaminationSpec, DdcConfig, DegenerateColumn, SimConfig,
                     TooFewColumns, block_covariance, contaminate,
                     correlation_structure, ddc_impute, generate_clean,
                     make_rng, robust_standardize)
from cellens.cellwise import FLAG_CUTOFF
from cellens.pipeline import passthrough_imputation
from cellens.reference import pearson_matrix


def correlated_matrix(seed, n=100, p=20, rho=0.8):
    rng = make_rng(seed)
    sigma = np.full((p, p), rho)
    np.fill_diagonal(sigma, 1.0)
    return rng.standard_normal((n, p)) @ np.linalg.cholesky(sigma).T


def test_standardize_hand_oracle():
    col = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    Z, scales = robust_standardize(col[:, None])
    assert scales.location[0] == 3.0
    assert abs(scales.scale[0] - 1.4826) < 1e-12
    expected = (col - 3.0) / 1.4826
    assert np.allclose(Z[:, 0], expected, atol=1e-12)
    assert abs(expected[0] + 1.349) < 1e-3


def test_standardize_affine_invariance():
    rng = make_rng(2)
    x = rng.standard_normal(41)
    Z1, _ = robust_standardize(x[:, None])
    Z2, _ = robust_standardize((2.0 * x + 7.0)[:, None])
    assert np.allclose(Z1, Z2, atol=1e-12)


def test_standardize_fixed_point_up_to_scale():
    x = np.linspace(-2, 2, 21)  # symmetric; median 0
    Z, scales = robust_standardize(x[:, None])
    assert abs(scales.location[0]) < 1e-12
    assert np.allclose(Z[:, 0] * scales.scale[0], x, atol=1e-12)


def test_standardize_degenerate_column():
    with pytest.raises(DegenerateColumn):
        robust_standardize(np.ones((10, 1)))


def test_too_few_columns():
    with pytest.raises(TooFewColumns):
        ddc_impute(np.arange(12.0)[:, None])


def test_null_flag_rate_clean_gaussian():
    rng = make_rng(3)
    Z = rng.standard_normal((100, 20))
    imp = ddc_impute(Z)
    assert imp.flags.mean() <= 0.02
    # unflagged cells bit-identical
    assert np.array_equal(imp.Z_imp[~imp.flags], Z[~imp.flags])


def test_injected_cell_recovered():
    Z = correlated_matrix(4)
    sd = Z[:, 5].std()
    clean_val = Z[30, 5]
    Z2 = Z.copy()
    Z2[30, 5] = clean_val + 10 * sd
    imp = ddc_impute(Z2)
    assert imp.flags[30, 5]
    assert abs(imp.Z_imp[30, 5] - clean_val) < 2 * sd


def test_affine_equivariance_lemma():
    rng = make_rng(5)
    Z = correlated_matrix(6, n=80, p=12)
    # sprinkle outliers so flags are nontrivial
    idx = rng.choice(80 * 12, size=20, replace=False)
    Zf = Z.ravel().copy()
    Zf[idx] += 8.0
    Z = Zf.reshape(80, 12)
    c = rng.uniform(0.1, 3.0, 12) * rng.choice([-1.0, 1.0], 12)
    a = rng.uniform(-5.0, 5.0, 12)
    imp1 = ddc_impute(Z)
    imp2 = ddc_impute(Z * c + a)
    assert np.array_equal(imp1.flags, imp2.flags)
    assert np.max(np.abs(imp2.Z_imp - (imp1.Z_imp * c + a))) < 1e-10


def test_column_permutation_commutes():
    Z = correlated_matrix(7, n=60, p=10)
    Z[3, 2] += 9.0
    Z[10, 7] -= 9.0
    perm = make_rng(8).permutation(10)
    imp1 = ddc_impute(Z)
    imp2 = ddc_impute(Z[:, perm])
    assert np.array_equal(imp2.flags, imp1.flags[:, perm])
    assert np.allclose(imp2.Z_imp, imp1.Z_imp[:, perm], atol=1e-12)


def test_marginal_fallback_flags_standalone_outlier():
    # independent columns: no partners, detection is marginal-only
    rng = make_rng(9)
    Z = rng.standard_normal((120, 6))
    Z[11, 3] = 40.0
    imp = ddc_impute(Z)
    assert imp.flags[11, 3]
    # imputed to the robust column center
    assert abs(imp.Z_imp[11, 3] - np.median(Z[:, 3])) < 0.2


def test_marginal_fallback_columns_recorded():
    # independent columns have no partner: every column falls back
    rng = make_rng(9)
    Z = rng.standard_normal((120, 6))
    Z[11, 3] = 40.0
    imp = ddc_impute(Z)
    assert imp.marginal.dtype == bool
    assert np.array_equal(imp.marginal, np.ones(6, dtype=bool))
    # one strongly correlated pair gets partner prediction, the rest do not
    Z[:, 5] = Z[:, 1] + 0.1 * rng.standard_normal(120)
    imp = ddc_impute(Z)
    assert np.array_equal(imp.marginal, [True, False, True, True, True, False])
    assert not passthrough_imputation(Z).marginal.any()


def test_correlation_structure_examples():
    rng = make_rng(10)
    base = rng.standard_normal((50, 9))
    X = np.column_stack([base, base[:, 0]])  # duplicate column
    y = base[:, 0].copy()
    Z = np.column_stack([y, X])
    imp = ddc_impute(Z)
    structure = correlation_structure(imp)
    assert structure.R_X[0, 9] == 1.0
    assert structure.r_y[0] == 1.0
    structure.validate()
    assert np.min(np.linalg.eigvalsh(structure.R_X)) >= -1e-8


def test_correlation_matches_pearson_oracle():
    rng = make_rng(11)
    Z = rng.standard_normal((50, 11))
    imp = ddc_impute(Z)
    structure = correlation_structure(imp)
    ref = pearson_matrix(imp.Z_imp[:, 1:])
    assert np.max(np.abs(structure.R_X - ref)) < 1e-12


def test_correlation_sign_flip_rule():
    rng = make_rng(12)
    Z = rng.standard_normal((60, 8))
    imp1 = ddc_impute(Z)
    s1 = correlation_structure(imp1)
    c = np.array([1.0, -2.0, 0.5, -0.3, 1.5, 2.0, -1.0, 0.7])
    a = rng.uniform(-2, 2, 8)
    imp2 = ddc_impute(Z * c + a)
    s2 = correlation_structure(imp2)
    signs = np.sign(c[1:])
    assert np.allclose(s2.R_X, s1.R_X * np.outer(signs, signs), atol=1e-10)
    assert np.allclose(s2.r_y, s1.r_y * np.sign(c[0]) * signs, atol=1e-10)


def test_detection_rates_on_marginal_contamination():
    cfg = SimConfig(n=100, p=50, sparsity=50, snr=1.0, block_size=25,
                    rho_within=0.8, rho_background=0.2, seed=13)
    clean = generate_clean(cfg)
    sigma = block_covariance(cfg)
    out = contaminate(clean, ContaminationSpec(scenario="CellwiseMarginal",
                                               alpha=0.05), sigma, seed=14)
    imp = ddc_impute(np.column_stack([out.y, out.X]))
    mask = out.truth.mask_X.astype(bool)
    flags = imp.flags[:, 1:]
    detection = (flags & mask).sum() / mask.sum()
    false_rate = (flags & ~mask).sum() / (~mask).sum()
    assert detection >= 0.70
    assert false_rate <= 0.05


def test_flag_cutoff_constant():
    assert abs(FLAG_CUTOFF - 2.5758293) < 1e-6
    assert DdcConfig().flag_cutoff == FLAG_CUTOFF
