import hashlib
import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from cellens import (ContaminationSpec, DdcConfig, DegenerateColumn,
                     SimConfig, TooFewColumns,
                     block_covariance, contaminate,
                     correlation_structure, ddc_impute, generate_clean,
                     make_rng, robust_standardize)
from cellens import cellwise
from cellens.cellwise import (FLAG_CUTOFF, median_ratio_slopes,
                              partner_table, robust_partner_correlations)
from cellens.pipeline import passthrough_imputation
from cellens.reference import (dense_partner_rule, pearson_matrix,
                               trimmed_correlation_pair)


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
    R_X = structure.columns(range(10))
    assert R_X[0, 9] == 1.0
    assert structure.r_y[0] == 1.0
    assert np.allclose(R_X, R_X.T, atol=1e-8)
    assert np.allclose(np.diag(R_X), 1.0, atol=1e-8)
    assert np.max(np.abs(R_X)) <= 1 + 1e-8
    assert np.max(np.abs(structure.r_y)) <= 1 + 1e-8
    assert np.min(np.linalg.eigvalsh(R_X)) >= -1e-8


@pytest.mark.parametrize("exponent", [700, -700])
def test_correlation_structure_bits_survive_power_of_two_scaling(exponent):
    # a column scaled far enough to overflow (or underflow) its squares
    # gives the same correlations, bit for bit, as the unscaled input
    rng = make_rng(13)
    Z = rng.standard_normal((40, 6))
    base = correlation_structure(passthrough_imputation(Z))
    for j in (0, 3):
        Zs = Z.copy()
        Zs[:, j] *= 2.0 ** exponent
        scaled = correlation_structure(passthrough_imputation(Zs))
        assert (scaled.columns(range(5)).tobytes()
                == base.columns(range(5)).tobytes())
        assert scaled.r_y.tobytes() == base.r_y.tobytes()


def test_correlation_matches_pearson_oracle():
    rng = make_rng(11)
    Z = rng.standard_normal((50, 11))
    imp = ddc_impute(Z)
    structure = correlation_structure(imp)
    ref = pearson_matrix(imp.Z_imp[:, 1:])
    assert np.max(np.abs(structure.columns(range(10)) - ref)) < 1e-12


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
    assert np.allclose(s2.columns(range(7)),
                       s1.columns(range(7)) * np.outer(signs, signs),
                       atol=1e-10)
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


@pytest.mark.parametrize("trim, discrete", [(0.10, False), (0.0, False),
                                            (0.25, True), (0.10, True)])
def test_partner_correlations_match_pair_oracle(monkeypatch, trim, discrete):
    monkeypatch.setattr(cellwise, "PARTNER_BLOCK_PRODUCTS", 32700)
    monkeypatch.setattr(DdcConfig, "trim", trim)
    # the second shape is above the work cut, so its pairs run on every
    # available CPU; it is checked on five rows and three random ones: in
    # blocks of 327 columns, row 0 has two blocks, row 92 ends in a
    # one-column block and row 93 is exactly one block
    rng = make_rng(21)
    for n, p, rows in ((37, 12, range(12)), (100, 420, [0, 1, 92, 93, 419])):
        Z = correlated_matrix(22, n=n, p=p, rho=0.6)
        Z[rng.random(Z.shape) < 0.08] += 9.0
        if discrete:
            Z = np.round(Z)  # tied products, ties at the trimming threshold
        Zs, _ = robust_standardize(Z)
        corr = robust_partner_correlations(Zs)
        assert np.array_equal(corr, corr.T)
        assert np.array_equal(np.diag(corr), np.ones(p))
        if p > 12:
            assert n * p * p >= cellwise.PARTNER_PARALLEL_PRODUCTS
            rows = rows + list(rng.choice(p, 3, replace=False))
        for j in rows:
            for h in range(p):
                oracle = trimmed_correlation_pair(Zs[:, j], Zs[:, h], trim)
                assert abs(corr[j, h] - oracle) < 1e-12


def test_partner_correlations_two_columns():
    Zs, _ = robust_standardize(correlated_matrix(23, n=15, p=2))
    corr = robust_partner_correlations(Zs)
    assert np.array_equal(corr, corr.T)
    for j, h in ((0, 0), (0, 1), (1, 1)):
        assert abs(corr[j, h] - trimmed_correlation_pair(Zs[:, j], Zs[:, h],
                                                         0.10)) < 1e-12


def test_median_ratio_slopes_equal_np_median():
    rng = make_rng(24)
    n = 20
    z = np.round(rng.standard_normal(n), 1)  # tied ratios
    Zh = np.round(rng.choice([-1.0, 1.0], (n, 6))
                  * rng.uniform(0.2, 3.0, (n, 6)), 1)
    Zh[:3, 1] = 0.05  # 17 usable rows: odd count; column 0 has 20
    Zh[:, 2] = Zh[:, 0]
    Zh[0, 2] = -Zh[0, 2]  # ties at the median position
    Zh[:, 4] = 0.05
    Zh[7, 4] = 1.5  # a single usable row
    Zh[:, 5] = 0.05
    Zh[[3, 11], 5] = [2.0, -0.5]  # only two usable rows
    usable = np.abs(Zh) > 0.1
    assert list(usable.sum(axis=0)[[0, 1, 4, 5]]) == [20, 17, 1, 2]
    slopes = median_ratio_slopes(z[:, None], Zh, usable)
    for i in range(6):
        u = usable[:, i]
        assert slopes[i] == np.median(z[u] / Zh[u, i])
    assert median_ratio_slopes(z[:, None], Zh[:, :0], usable[:, :0]).shape == (0,)


def block_factor_matrix(seed, n, C, block=25, alpha=0.1):
    """Block-correlated joint matrix with cellwise outliers.

    Drawn elementwise only (no matrix product), so its bits do not depend
    on the BLAS thread count.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, 1))
    h = rng.standard_normal((n, C // block + 1))
    Z = (0.4 * g + 0.75 * h[:, np.arange(C) // block]
         + 0.5 * rng.standard_normal((n, C)))
    cells = rng.random((n, C)) < alpha
    Z[cells] += (rng.choice([-1.0, 1.0], cells.sum())
                 * rng.uniform(4, 10, cells.sum()))
    return Z


@pytest.mark.parametrize("n, C, seed, digest", [
    (100, 2001, 7, "c04368aefe10ed89"),
    (100, 2001, 8, "d8fac46d0ea8789e"),
    (300, 301, 7, "3c45fa8b71bbbf1a"),
    (300, 301, 8, "c7d66a78b968c6d0"),
    (50, 201, 7, "0cb829a17d3a1b9c"),
    (50, 201, 8, "2c36beaa174762c2"),
])
def test_ddc_impute_seeded_digest(n, C, seed, digest):
    # digests of flags, Z_imp and marginal recorded from the implementation
    # that computed every pair twice and every slope with np.median
    imp = ddc_impute(block_factor_matrix(seed, n, C))
    h = hashlib.sha256()
    for a in (imp.flags, imp.Z_imp, imp.marginal):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest()[:16] == digest
    assert imp.marginal.any() and not imp.marginal.all()


def imputation_digest(imp):
    h = hashlib.sha256()
    for a in (imp.flags, imp.Z_imp, imp.marginal):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_ddc_impute_bits_independent_of_memory_layout():
    # numpy sums an F-ordered array's axis 0 pairwise, a C-ordered one row
    # by row; the cleaning stage works on a C-ordered copy of any input
    Z = block_factor_matrix(7, 60, 120)
    padded = np.zeros((60, 240))
    padded[:, ::2] = Z
    layouts = (np.ascontiguousarray(Z), np.asfortranarray(Z), padded[:, ::2])
    assert len({imputation_digest(ddc_impute(a)) for a in layouts}) == 1
    Zs, _ = robust_standardize(Z)
    corr = robust_partner_correlations(Zs)
    assert np.array_equal(robust_partner_correlations(np.asfortranarray(Zs)),
                          corr)
    assert np.array_equal(corr, corr.T)


def partner_corr_on_cpus(Zs, cpus, any_size=False):
    """robust_partner_correlations as if the process had ``cpus`` CPUs (and,
    with ``any_size``, no work cut); also returns how many threads ran."""
    threads = set()
    fill = cellwise._partner_blocks

    def spy(*args):
        threads.add(threading.current_thread())
        fill(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cellwise, "_available_cpus", lambda: cpus)
        mp.setattr(cellwise, "_partner_blocks", spy)
        if any_size:
            mp.setattr(cellwise, "PARTNER_PARALLEL_PRODUCTS", 0)
        corr = robust_partner_correlations(Zs)
    return corr, len(threads)


@pytest.mark.parametrize("n, C, discrete", [(30, 2, False), (30, 3, True),
                                            (100, 328, False),
                                            (100, 329, True),
                                            (100, 420, True)])
def test_partner_correlations_independent_of_worker_count(monkeypatch, n, C,
                                                         discrete):
    monkeypatch.setattr(cellwise, "PARTNER_BLOCK_PRODUCTS", 32700)
    # at n = 100 the blocks have 327 columns, so C = 328 and 329 end rows
    # in a block of one and of two columns; C = 420 is above the work cut
    assert cellwise.PARTNER_BLOCK_PRODUCTS // 100 == 327
    below_cut = n * C * C < cellwise.PARTNER_PARALLEL_PRODUCTS
    assert below_cut == (C < 420)
    Z = block_factor_matrix(31, n, C)
    if discrete:
        Z = np.round(2 * Z) / 2  # tied products
    Zs, _ = robust_standardize(Z)
    serial, used = partner_corr_on_cpus(Zs, 1, any_size=below_cut)
    assert used == 1
    # more threads than cores, switching often: a task lost or run twice
    # would leave an entry unwritten or race on it
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cpus in (2, 3, 8):
            corr, used = partner_corr_on_cpus(Zs, cpus, any_size=below_cut)
            assert used == min(cpus, C)
            assert corr.tobytes() == serial.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_partner_kept_count_with_tied_magnitudes(monkeypatch):
    # each pair's threshold is read from a sorted copy of its block, and its
    # kept count from the ties that follow the threshold there; the bits
    # must equal those of a partition along axis 0 and a count of the whole
    # mask, with ties that cross the keep boundary (rounded data), with no
    # ties (unrounded data) and with no trimmed tail (trim = 0, keep = n);
    # at n = 300 blocks of 2**17 products are 436 columns wide, so C = 437
    # ends row 0 in a one-column block (five of its rows are checked); each
    # checked row's columns, gathered by index as a screen's candidates
    # are, must give the bits of the blocks read in place
    monkeypatch.setattr(cellwise, "PARTNER_BLOCK_PRODUCTS", 2**17)
    assert cellwise._partner_width(300, 437) == 436
    straddled = 0
    for n, C in ((30, 9), (50, 9), (100, 9), (300, 437)):
        Z = block_factor_matrix(33, n, C)
        width = cellwise._partner_width(n, C)
        tasks = [(j, a, min(a + width, C))
                 for j in range(C) for a in range(j, C, width)]
        for rounded, trim in ((True, 0.1), (True, 0.0), (False, 0.1),
                              (False, 0.0)):
            Zs, _ = robust_standardize(np.round(2 * Z) / 2 if rounded else Z)
            Zs = np.ascontiguousarray(Zs)  # as the partner pass takes it
            keep = n - int(np.floor(trim * n))
            bufs = cellwise._task_buffers(n, width)
            t2 = cellwise._block_means(Zs, None, range(C), keep, bufs)
            corr = np.empty((C, C))

            def emit(j, a, row):
                corr[j, a:a + len(row)] = row

            cellwise._partner_blocks(Zs, None, t2, keep, None, emit,
                                     iter(tasks), width)
            for j in (range(C) if C < 20 else (0, 1, 2, C // 2, C - 2)):
                lo = min(j, C - 2)
                P = Zs[:, lo:] * Zs[:, j:j + 1]
                thr = np.partition(np.abs(P), keep - 1, axis=0)[keep - 1]
                M = np.abs(P) <= thr
                crossed = int((M.sum(axis=0) > keep).sum())
                if rounded and trim:
                    straddled += crossed
                else:
                    assert crossed == 0
                row = (P * M).sum(axis=0) / M.sum(axis=0)
                row /= np.sqrt(t2[j] * t2[lo:])
                assert corr[j, j:].tobytes() == row[j - lo:].tobytes()
                gathered = cellwise._block_means(Zs, j, np.arange(j, C), keep,
                                                 bufs)
                gathered /= np.sqrt(t2[j] * t2[j:])
                assert gathered.tobytes() == row[j - lo:].tobytes()
    assert straddled > 0  # ties at the threshold cross the keep boundary


def screen_edge_input(kind, n, C):
    """Standardized input at one edge of partner_table's float32 screen,
    and extra min_abs_corr values to run it at.

    near-cut: the values within 5e-7 of, at, and one ulp above the |corr|
    of the 4 pairs nearest 0.5, so pairs lie just on each side of the cut;
    tied: rounded cells (tied products at the threshold), with column 6
    column 5 scaled by 1 + 2**-30, and column 5 so scaled in its odd rows
    (products within one float32 ulp, not tied in float64), run at the
    |corr| of column 5's 6 strongest pairs; huge: one cell about
    2**70 times its column's MAD (no pair is screened); range: one cell
    about 2**60.3 standardized units (1.4826 MADs), beyond the screen's
    2**60 range but with no float32 sum of 60 squares overflowing, so the
    range gate alone leaves the pairs unscreened; zeros: columns 4
    and 9 at their medians in disjoint 45% of the rows (exact zeros, and
    a zero threshold for their pair), columns 11 and 12 within 1e-30 MADs
    of theirs in 5 rows, and column 0 scaled by 1e-24 in 92% of its rows
    with column 1 twice column 0 (products that underflow float32, so the
    pair's float32 threshold is 0 while its correlation is 1); factor: one
    common factor, so every pair passes and the threads fall back to
    float64 blocks.
    """
    if kind == "factor":
        rng = np.random.default_rng(49)
        Z = (0.95 * rng.standard_normal((n, 1))
             + 0.3 * rng.standard_normal((n, C)))
    else:
        Z = block_factor_matrix(49, n, C)
    if kind == "tied":
        Z = np.round(2 * Z) / 2
    med = np.median(Z, axis=0)
    mad = np.median(np.abs(Z - med), axis=0)
    if kind == "huge":
        Z[5, 2] = med[2] + 2.0**70 * mad[2]
    if kind == "range":
        Z[5, 2] = med[2] + 2.0**60.3 * 1.4826 * mad[2]
    if kind == "zeros":
        rows = np.random.default_rng(50).permutation(n)
        Z[rows[:n * 45 // 100], 4] = med[4]
        Z[rows[n * 45 // 100:n * 90 // 100], 9] = med[9]
        Z[rows[:5], 11] = med[11] + 1e-30 * mad[11]
        Z[rows[:5], 12] = med[12] - 1e-30 * mad[12]
    Zs, _ = robust_standardize(Z)
    if kind == "tied":
        Zs[:, 6] = Zs[:, 5] * (1 + 2.0**-30)
        Zs[1::2, 5] *= 1 + 2.0**-30
    if kind == "zeros":
        Zs[rows[:n * 92 // 100], 0] *= 1e-24
        Zs[:, 1] = 2 * Zs[:, 0]
    floors = []
    if kind in ("near-cut", "tied"):
        corr = robust_partner_correlations(Zs)
        if kind == "near-cut":
            mag = np.abs(corr[np.triu_indices(C, 1)])
            for c in mag[np.argsort(np.abs(mag - 0.5))[:4]]:
                floors += [c - 5e-7, c, np.nextafter(c, 2.0), c + 5e-7]
        else:
            mag = np.abs(corr[5, 7:])
            floors += list(np.sort(mag)[-6:])
    return Zs, [float(f) for f in floors]


SCREEN_EDGES = ("near-cut", "tied", "huge", "range", "zeros", "zero-floor",
                "factor")
DENSE_RULE_CASES = [
    (40, 60, 15, 0.5, 1, "block"), (40, 60, 4, 0.5, 3, "block"),
    (40, 60, 6, 0.0, 2, "block"), (40, 60, 10**9, 0.0, 2, "block"),
    (100, 420, 15, 0.5, 2, "block"), (100, 420, 3, 0.3, 8, "block")] + [
    (60, 90, 15, 0.0 if kind == "zero-floor" else 0.5, cpus, kind)
    for kind in SCREEN_EDGES for cpus in (1, 2, 8)]


@pytest.mark.parametrize(
    "n, C, k, min_abs_corr, cpus, kind", DENSE_RULE_CASES,
    ids=["-".join(map(str, case[:5])) if case[5] == "block"
         else f"{case[5]}-{case[4]}" for case in DENSE_RULE_CASES])
def test_partner_table_matches_dense_rule(monkeypatch, n, C, k, min_abs_corr,
                                          cpus, kind):
    # block: columns 3, 7 and 50 are duplicates, so every column sees their
    # |corr| tied bit for bit and must rank them 3, 7, 50; many threads
    # switching often, and merges a few rows at a time, must not change a
    # bit. The other kinds are the edges of the float32 screen (see
    # screen_edge_input), in blocks of 34 columns and float64 chunks of 17,
    # so tasks, gathered candidates and fallback blocks span several chunks
    # and some end in a lone column.
    if kind == "block":
        Z = block_factor_matrix(41, n, C)
        Z[:, 7] = Z[:, 50] = Z[:, 3]
        Zs, _ = robust_standardize(Z)
        floors = []
    else:
        monkeypatch.setattr(cellwise, "PARTNER_BLOCK_PRODUCTS", 2**11)
        Zs, floors = screen_edge_input(kind, n, C)
    big = np.abs(Zs).max()
    assert (big > 2.0**60) == (kind in ("huge", "range"))
    assert (n * big * big < 2.0**127) == (kind != "huge")
    corr = robust_partner_correlations(Zs)
    monkeypatch.setattr(cellwise, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(cellwise, "PARTNER_PARALLEL_PRODUCTS", 0)
    monkeypatch.setattr(cellwise, "PARTNER_MERGE_SLOTS", 5 * min(k, C))
    monkeypatch.setattr(DdcConfig, "k_neighbors", k)
    for floor in [min_abs_corr] + floors:
        monkeypatch.setattr(DdcConfig, "min_abs_corr", floor)
        want_index, want_value = dense_partner_rule(corr, DdcConfig())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            index, value = partner_table(Zs)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(index, want_index), floor
        assert value.tobytes() == want_value.tobytes(), floor
    if kind != "block":
        return
    assert np.array_equal(corr[3], corr[7]) and np.array_equal(corr[3], corr[50])
    # rows that hold two or more of the tied columns
    tied = [j for j in range(C) if len({3, 7, 50} & set(want_index[j])) > 1]
    assert tied
    for j in tied:
        row = list(index[j])
        held = [h for h in row if h in (3, 7, 50)]
        assert held == [h for h in (3, 7, 50) if h != j][:len(held)]
        assert np.diff([row.index(h) for h in held]).tolist() == [1] * (len(held) - 1)


def test_screen_keeps_every_pair_whose_gap_test_fails(monkeypatch):
    # the screen's bound holds only where the float32 gap test holds (the
    # next sorted magnitude above thr32 (1 + 8u)); on rounded data many
    # pairs fail it, and each must be a candidate at every floor, however
    # far its bound lies below the floor
    monkeypatch.setattr(cellwise, "PARTNER_BLOCK_PRODUCTS", 2**11)
    n, C = 60, 90
    Zs, floors = screen_edge_input("tied", n, C)
    Zs = np.ascontiguousarray(Zs)
    Z32 = np.ascontiguousarray(Zs.T, dtype=np.float32)
    keep = n - int(np.floor(DdcConfig.trim * n))
    width = cellwise._partner_width(n, C)
    assert width == 34
    bufs = cellwise._task_buffers(n, width)
    rt = np.sqrt(cellwise._block_means(Zs, None, range(C), keep, bufs))
    failed = 0
    for floor in [DdcConfig.min_abs_corr] + floors:
        for j in range(C):
            for a in range(j, C, width):
                b = min(a + width, C)
                T = np.sort(np.abs(Z32[a:b] * Z32[j]), axis=1)
                fails = np.flatnonzero(
                    T[:, keep] <= T[:, keep - 1].astype(float) * (1 + 8 * 2.0**-24))
                cand = cellwise._screen_block(Z32, j, a, b, keep, floor, rt,
                                              bufs)
                assert np.isin(fails, cand).all(), (floor, j, a)
                failed += fails.size
    assert failed == 5530  # 790 pairs (the diagonal among them) x 7 floors


@pytest.mark.parametrize("kind, pairs", [("near-cut", 435), ("tied", 435),
                                         ("zeros", 434)])
def test_screen_keeps_every_pair_at_its_own_floor(kind, pairs):
    # the tightest floor a pair can reach is its own float64 |corr|, so a
    # screen run at that floor must return the pair; every off-diagonal
    # pair with a finite nonzero |corr| is checked (each row as one task),
    # and a bound without its rounding margin (u = 0) misses about half
    n, C = 40, 30
    Zs, _ = screen_edge_input(kind, n, C)
    Zs = np.ascontiguousarray(Zs)
    Z32 = np.ascontiguousarray(Zs.T, dtype=np.float32)
    keep = n - int(np.floor(DdcConfig.trim * n))
    bufs = cellwise._task_buffers(n, C)
    rt = np.sqrt(cellwise._block_means(Zs, None, range(C), keep, bufs))
    mag = np.abs(robust_partner_correlations(Zs))
    checked = missed = 0
    for j in range(C):
        for h in range(j + 1, C):
            if not 0 < mag[j, h] < np.inf:
                continue
            cand = cellwise._screen_block(Z32, j, j, C, keep, mag[j, h], rt,
                                          bufs)
            checked += 1
            missed += h - j not in cand
    assert (checked, missed) == (pairs, 0)


def test_ddc_impute_memory_is_linear_in_columns():
    # one factor: every pair is a partner, so a table that kept what it is
    # offered would grow with C**2; a dense C x C matrix alone is 4 times
    # the bound
    rng = np.random.default_rng(43)
    n, C = 30, 1500
    Z = 0.95 * rng.standard_normal((n, 1)) + 0.3 * rng.standard_normal((n, C))
    ddc_impute(Z[:, :20])  # first-call allocations
    tracemalloc.start()
    try:
        imp = ddc_impute(Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not imp.marginal.any()
    corr = robust_partner_correlations(robust_standardize(Z)[0])
    assert np.abs(corr).min() >= DdcConfig().min_abs_corr
    assert peak < C * C * 8 / 4


def test_partner_offers_pruned_before_the_merge(monkeypatch):
    # one factor: every pair passes min_abs_corr, so offering each pair to
    # both columns would send C * (C - 1) = 2,248,500 offers to merges.
    # Serially, each row's one task offers the row itself at most its top k
    # (C * k in all). A partner row takes an offer only at or above its
    # last slot; its partners' values arrive in random order (the columns
    # are exchangeable), and of m values in random order about
    # k * (1 + ln(m / k)) enter a top k, about C * k * ln(C / k) summed over
    # the rows. One more C * k covers cuts that lag by up to one merge.
    monkeypatch.setattr(cellwise, "_available_cpus", lambda: 1)
    offers = []
    merge = cellwise._merge_partners

    def spy(index, value, t, h, v):
        offers.append(t.size)
        merge(index, value, t, h, v)

    monkeypatch.setattr(cellwise, "_merge_partners", spy)
    rng = np.random.default_rng(43)
    n, C = 30, 1500
    Z = 0.95 * rng.standard_normal((n, 1)) + 0.3 * rng.standard_normal((n, C))
    Zs, _ = robust_standardize(Z)
    cfg = DdcConfig()
    k = cfg.k_neighbors
    assert cellwise._partner_width(n, C) == C  # one task per row
    index, value = partner_table(Zs)
    assert not np.isnan(value).any()  # every row filled its k slots
    assert sum(offers) <= C * k * (2 + np.log(C / k))  # 148,616
    want_index, want_value = dense_partner_rule(
        robust_partner_correlations(Zs), cfg)
    assert np.array_equal(index, want_index)
    assert value.tobytes() == want_value.tobytes()


def test_partner_table_memory_is_its_buffers_and_tables(monkeypatch):
    # one serial call holds the task loop's buffers (two float64 buffers of
    # at most B / 2 entries and an n * w bool buffer, 2.30 MB, with
    # B = PARTNER_BLOCK_PRODUCTS >= n * w), the (C, n) float32 copy of Zs
    # (0.80 MB), the (C, k) tables (16 bytes a slot, 0.48 MB) and the task
    # list (2,001 tasks, one whole row each, under 100 bytes a task). The
    # margin of 2 * B bytes covers t2, one task's temporaries, numpy's
    # iteration buffers and the offers held between merges (few pairs pass
    # min_abs_corr). It is less than one float64 (n, w) block of 8 * n * w
    # bytes (1.60 MB), so a block held beside the buffers fails the test.
    monkeypatch.setattr(cellwise, "_available_cpus", lambda: 1)
    n, C = 100, 2001
    Zs, _ = robust_standardize(np.random.default_rng(45).standard_normal((n, C)))
    partner_table(Zs[:, :20])  # first-call allocations
    tracemalloc.start()
    try:
        partner_table(Zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    B = cellwise.PARTNER_BLOCK_PRODUCTS
    k = DdcConfig().k_neighbors
    w = cellwise._partner_width(n, C)
    assert w == C and 2 * B < 8 * n * w
    held = (8 * B + n * w) + 4 * n * C + 16 * C * k + 100 * C
    assert peak <= held + 2 * B


def test_partner_screen_gives_float64_values_to_few_pairs(monkeypatch):
    # the Gaussian input above: of its 2,001,000 pairs, few reach
    # min_abs_corr, so the float32 screen must see every pair and hand at
    # most 1% of them to the float64 values; a screen switched off, or one
    # that rules nothing out, fails one of the two counts
    monkeypatch.setattr(cellwise, "_available_cpus", lambda: 1)
    n, C = 100, 2001
    Zs, _ = robust_standardize(np.random.default_rng(45).standard_normal((n, C)))
    screened, exact = [], []
    screen, values = cellwise._screen_block, cellwise._block_means

    def screen_spy(Z32, j, a, b, *args):
        screened.append(b - a)
        return screen(Z32, j, a, b, *args)

    def values_spy(Zs, j, cols, *args):
        if not isinstance(cols, range):  # a screen's candidates
            exact.append(len(cols))
        return values(Zs, j, cols, *args)

    monkeypatch.setattr(cellwise, "_screen_block", screen_spy)
    monkeypatch.setattr(cellwise, "_block_means", values_spy)
    index, _ = partner_table(Zs)
    pairs = C * (C - 1) // 2
    assert sum(screened) >= pairs
    assert 0 < sum(exact) <= pairs // 100
    assert (index >= 0).any()


def test_partner_workers_rule(monkeypatch):
    monkeypatch.setattr(cellwise, "_available_cpus", lambda: 4)
    cut = cellwise.PARTNER_PARALLEL_PRODUCTS
    assert cellwise._partner_workers(cut, 1) == 4
    assert cellwise._partner_workers(cut - 1, 1) == 1
    monkeypatch.setattr(cellwise, "_available_cpus", lambda: 1)
    assert cellwise._partner_workers(cut, 1) == 1


def test_partner_workers_serial_in_pool_worker():
    # the runner's process pool already fills the CPUs
    with ProcessPoolExecutor(max_workers=1,
                             mp_context=get_context("spawn")) as pool:
        assert pool.submit(cellwise._partner_workers, 100, 2001).result() == 1
    assert cellwise._partner_workers(100, 2001) == cellwise._available_cpus()


def test_partner_worker_error_reaches_the_caller(monkeypatch):
    caller = threading.current_thread()
    fill = cellwise._partner_blocks

    def failing(*args):
        if threading.current_thread() is not caller:
            raise RuntimeError("worker failed")
        fill(*args)

    monkeypatch.setattr(cellwise, "_available_cpus", lambda: 2)
    monkeypatch.setattr(cellwise, "PARTNER_PARALLEL_PRODUCTS", 0)
    monkeypatch.setattr(cellwise, "_partner_blocks", failing)
    Zs, _ = robust_standardize(correlated_matrix(26, n=30, p=8))
    with pytest.raises(RuntimeError, match="worker failed"):
        robust_partner_correlations(Zs)


@pytest.mark.parametrize("n, p", [(3, 2), (50, 200), (300, 300)])
def test_correlation_columns_keep_the_product_sum_bits(n, p):
    # columns and r_y come from einsum; they must keep the bits of the
    # elementwise product summed down axis 0 that formed them before
    rng = make_rng(n * p)
    structure = correlation_structure(
        passthrough_imputation(rng.standard_normal((n, p + 1))))
    U = structure.U
    r_y = np.clip((U[:, 1:] * U[:, :1]).sum(axis=0), -1.0, 1.0)
    assert structure.r_y.tobytes() == r_y.tobytes()
    for j in range(p):
        col = np.clip((U[:, 1:] * U[:, j + 1:j + 2]).sum(axis=0), -1.0, 1.0)
        col[j] = 1.0
        assert structure.columns([j])[:, 0].tobytes() == col.tobytes(), j


def test_correlation_structure_columns_on_demand():
    imp = ddc_impute(correlated_matrix(25, n=40, p=9))
    structure = correlation_structure(imp)
    R_X = correlation_structure(imp).columns(range(8))
    assert np.array_equal(R_X, R_X.T)
    assert np.array_equal(np.diag(R_X), np.ones(8))
    ref = pearson_matrix(imp.Z_imp)
    assert np.max(np.abs(R_X - ref[1:, 1:])) < 1e-12
    assert np.max(np.abs(structure.r_y - ref[1:, 0])) < 1e-12
    # each column is formed once, on request, with the bits of the dense form
    assert structure._columns == {}
    cols = structure.columns([5, 2])
    assert sorted(structure._columns) == [2, 5]
    assert cols.tobytes() == np.ascontiguousarray(R_X[:, [5, 2]]).tobytes()
    first = structure._columns[5]
    structure.columns([5])
    assert structure._columns[5] is first
