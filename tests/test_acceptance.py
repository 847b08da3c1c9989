"""Acceptance suite: one pass/fail line per criterion, stated tolerances.

Criteria 8-10 run replicated simulation studies and take a few minutes
combined; everything else is fast. Budgets (wall-clock ceilings) are
asserted where stated.
"""

import csv
import json
import time

import numpy as np
import pytest

from cellens import (ContaminationSpec, SelectionConfig, SimConfig,
                     block_covariance, contaminate, ddc_impute, fit_ensemble,
                     generate_clean, make_rng, make_test_set, mspe,
                     selection_scores, split_seed)
from cellens import selfcheck
from cellens.experiment import RESULT_COLUMNS, load_config, run_experiment


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:2d} [{name}]: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# criteria 1 + 2: path equivalence and the equi-correlation invariant
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def path_runs():
    from cellens import corrlars, reference

    path_failures = []
    equi_violations = 0
    steps_checked = 0
    t0 = time.perf_counter()
    for run in range(50):
        rng = make_rng(split_seed(515151, run))
        n, p, steps = 60, 25, 20
        Xraw = rng.standard_normal((n, p)) @ np.diag(rng.uniform(0.5, 2.0, p))
        beta = np.zeros(p)
        beta[rng.choice(p, size=5, replace=False)] = rng.uniform(1, 3, 5)
        yraw = Xraw @ beta + rng.standard_normal(n)
        X = reference.standardize_columns(Xraw)
        yc = yraw - yraw.mean()
        y = yc / np.linalg.norm(yc)
        oracle = reference.classical_lars_path(X, y, steps)
        order, sizes, states = corrlars.greedy_path(X.T @ X, X.T @ y, steps)
        if order != oracle.entry_order[: len(order)] or len(order) < steps:
            path_failures.append(f"run {run}: entry order")
        else:
            diff = np.max(np.abs(np.asarray(sizes)
                                 - np.asarray(oracle.step_sizes[:len(sizes)])))
            if diff > 1e-8:
                path_failures.append(f"run {run}: step diff {diff:.2e}")
        for state in states:
            for i in state.active:
                steps_checked += 1
                if abs(abs(state.corr_state[i]) - state.active_level) > 1e-8:
                    equi_violations += 1
    elapsed = time.perf_counter() - t0
    return path_failures, equi_violations, steps_checked, elapsed


def test_criterion_01_path_equivalence(path_runs):
    failures, _, _, elapsed = path_runs
    ok = not failures and elapsed < 30
    report(1, "path equivalence, 50 runs", ok,
           f"({elapsed:.1f}s; failures: {failures[:3] if failures else 'none'})")


def test_criterion_02_equicorrelation(path_runs):
    _, violations, checked, _ = path_runs
    report(2, "equi-correlation invariant", violations == 0,
           f"({checked} active-entry checks, {violations} violations)")


# ---------------------------------------------------------------------------
# criteria 3-6: invariance properties of the full pipeline
# ---------------------------------------------------------------------------

def test_criterion_03_affine_invariance():
    t0 = time.perf_counter()
    failures = selfcheck.check_affine_invariance(n_runs=20)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120
    report(3, "affine invariance, 20 runs", ok,
           f"({elapsed:.1f}s; {failures if failures else 'all identical'})")


def test_criterion_04_permutation_equivariance():
    t0 = time.perf_counter()
    failures = selfcheck.check_permutation_equivariance(n_runs=20)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120
    report(4, "permutation equivariance, 20 runs", ok,
           f"({elapsed:.1f}s; {failures if failures else 'all match'})")


def test_criterion_05_intercept_invariance():
    failures = selfcheck.check_intercept_invariance(n_runs=20)
    report(5, "intercept invariance, 20 runs", not failures,
           f"({failures if failures else 'sequences identical'})")


def test_criterion_06_local_stability():
    failures = selfcheck.check_local_stability(n_runs=20)
    report(6, "local stability at 1e-9 noise", not failures,
           f"({failures if failures else 'traces identical'})")


# ---------------------------------------------------------------------------
# criterion 7: imputation equivariance on contaminated matrices
# ---------------------------------------------------------------------------

def test_criterion_07_imputation_equivariance():
    worst = 0.0
    flag_mismatches = 0
    for run in range(20):
        seed = split_seed(717171, run)
        cfg = SimConfig(n=60, p=15, sparsity=15, snr=1.0, block_size=5,
                        rho_within=0.8, rho_background=0.2, seed=seed)
        clean = generate_clean(cfg)
        sigma = block_covariance(cfg)
        obs = contaminate(clean, ContaminationSpec(scenario="CellwiseMarginal",
                                                   alpha=0.05), sigma,
                          seed=split_seed(seed, 9))
        Z = np.column_stack([obs.y, obs.X])
        rng = make_rng(split_seed(seed, 10))
        c = rng.uniform(0.1, 3.0, Z.shape[1]) * rng.choice([-1.0, 1.0], Z.shape[1])
        a = rng.uniform(-5.0, 5.0, Z.shape[1])
        imp1 = ddc_impute(Z)
        imp2 = ddc_impute(Z * c + a)
        if not np.array_equal(imp1.flags, imp2.flags):
            flag_mismatches += 1
            continue
        worst = max(worst, float(np.max(np.abs(imp2.Z_imp - (imp1.Z_imp * c + a)))))
    ok = flag_mismatches == 0 and worst <= 1e-10
    report(7, "imputation equivariance, 20 runs", ok,
           f"(flag mismatches {flag_mismatches}, worst value gap {worst:.2e})")


# ---------------------------------------------------------------------------
# criteria 8 + 9: mixture-scenario benefit and ensemble-size sensitivity
# ---------------------------------------------------------------------------

def _mixture_rep(seed: int, K: int, impute: bool = True):
    sim = SimConfig(n=50, p=200, sparsity=20, snr=1.0, block_size=10,
                    rho_within=0.8, rho_background=0.2, seed=split_seed(seed, 1))
    clean = generate_clean(sim)
    sigma = block_covariance(sim)
    spec = ContaminationSpec(scenario="MixtureCorrelation", alpha=0.1,
                             alpha2=0.05)
    obs = contaminate(clean, spec, sigma, seed=split_seed(seed, 2))
    sel = SelectionConfig(K=K, tau=0.01, cv_folds=5, seed=split_seed(seed, 3))
    result = fit_ensemble(obs.y, obs.X, sel, impute=impute)
    test = make_test_set(sim, 2000, clean.truth.beta, clean.truth.noise_sd,
                         seed=split_seed(seed, 4))
    err = mspe(test.y, result.predict(test.X),
               noise_var=clean.truth.noise_sd ** 2)
    recall, _ = selection_scores(clean.truth.active_set,
                                 result.selected_union())
    return err, recall


def test_criterion_08_mixture_benefit():
    t0 = time.perf_counter()
    full, single, ablation = [], [], []
    for rep in range(20):
        seed = split_seed(888888, rep)
        full.append(_mixture_rep(seed, K=10))
        single.append(_mixture_rep(seed, K=1))
        ablation.append(_mixture_rep(seed, K=10, impute=False))
    elapsed = time.perf_counter() - t0
    med = lambda vals, i: float(np.median([v[i] for v in vals]))
    mspe_full, mspe_single = med(full, 0), med(single, 0)
    mspe_ablate = med(ablation, 0)
    rc_full, rc_single = med(full, 1), med(single, 1)
    ok_a = mspe_full < mspe_single
    ok_b = mspe_full < mspe_ablate
    ok_c = rc_full > rc_single
    ok = ok_a and ok_b and ok_c and elapsed < 900
    report(8, "mixture-correlation benefit", ok,
           f"(mspe {mspe_full:.2f} vs single {mspe_single:.2f} vs "
           f"no-impute {mspe_ablate:.2f}; recall {rc_full:.2f} vs "
           f"{rc_single:.2f}; {elapsed:.0f}s)")


def test_criterion_09_k_sensitivity():
    t0 = time.perf_counter()
    ks = [1, 2, 5, 10, 15]
    med_mspe, med_recall = {}, {}
    for K in ks:
        vals = [_mixture_rep(split_seed(999999, rep), K=K)
                for rep in range(15)]
        med_mspe[K] = float(np.median([v[0] for v in vals]))
        med_recall[K] = float(np.median([v[1] for v in vals]))
    elapsed = time.perf_counter() - t0
    ok_elbow = med_mspe[5] < med_mspe[1] and med_mspe[10] < med_mspe[1]
    recalls = [med_recall[K] for K in ks]
    ok_recall = all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))
    ok = ok_elbow and ok_recall and elapsed < 1800
    report(9, "ensemble-size sensitivity", ok,
           f"(mspe {[round(med_mspe[K], 2) for K in ks]}, "
           f"recall {[round(r, 2) for r in recalls]}; {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 10: scaling benchmark
# ---------------------------------------------------------------------------

def test_criterion_10_scaling():
    ps = [250, 500, 1000, 2000]
    medians = []
    for p in ps:
        times = []
        for rep in range(3):
            seed = split_seed(101010 + p, rep)
            sim = SimConfig(n=100, p=p, sparsity=50, snr=1.0, block_size=25,
                            seed=split_seed(seed, 1))
            clean = generate_clean(sim)
            sigma = block_covariance(sim)
            obs = contaminate(clean, ContaminationSpec(
                scenario="MixtureCorrelation", alpha=0.1, alpha2=0.05),
                sigma, seed=split_seed(seed, 2))
            sel = SelectionConfig(K=10, tau=0.01, cv_folds=5,
                                  seed=split_seed(seed, 3))
            t0 = time.perf_counter()
            fit_ensemble(obs.y, obs.X, sel)
            times.append(time.perf_counter() - t0)
        medians.append(float(np.median(times)))
    slope = float(np.polyfit(np.log(ps), np.log(medians), 1)[0])
    ok = 0.8 <= slope <= 2.3 and medians[-1] < 120
    report(10, "scaling benchmark", ok,
           f"(medians {[round(m, 2) for m in medians]}s, slope {slope:.2f})")


# ---------------------------------------------------------------------------
# criterion 11: known-cell recovery
# ---------------------------------------------------------------------------

def test_criterion_11_cell_recovery():
    hits = miss = false = clean_cells = 0
    for run in range(5):
        seed = split_seed(111111, run)
        cfg = SimConfig(n=100, p=50, sparsity=50, snr=1.0, block_size=25,
                        rho_within=0.8, rho_background=0.2, seed=seed)
        clean = generate_clean(cfg)
        sigma = block_covariance(cfg)
        obs = contaminate(clean, ContaminationSpec(scenario="CellwiseMarginal",
                                                   alpha=0.05,
                                                   marginal_shift=10.0),
                          sigma, seed=split_seed(seed, 5))
        imp = ddc_impute(np.column_stack([obs.y, obs.X]))
        mask = obs.truth.mask_X.astype(bool)
        flags = imp.flags[:, 1:]
        hits += int((flags & mask).sum())
        miss += int((~flags & mask).sum())
        false += int((flags & ~mask).sum())
        clean_cells += int((~mask).sum())
    detection = hits / (hits + miss)
    false_rate = false / clean_cells
    ok = detection >= 0.70 and false_rate <= 0.05
    report(11, "known-cell recovery", ok,
           f"(detection {detection:.3f}, false rate {false_rate:.4f})")


# ---------------------------------------------------------------------------
# criterion 12: end-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_12_determinism(tmp_path):
    doc = {
        "mode": "fit",
        "seed": 1212,
        "replications": 3,
        "test_size": 300,
        "output": str(tmp_path / "run.csv"),
        "sim": {"n": 40, "p": 60, "sparsity": 10, "snr": 1.0, "block_size": 5,
                "seed": 0},
        "contamination": {"scenario": "MixtureMarginal", "alpha": 0.1,
                          "alpha2": 0.05},
        "selection": {"K": 4, "tau": 0.01, "cv_folds": 5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    cfg = load_config(str(cfg_path))
    t_idx = RESULT_COLUMNS.index("cpu_seconds")

    def run_once():
        out = run_experiment(cfg)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        return ["\x1f".join(r[:t_idx] + r[t_idx + 1:]) for r in rows]

    first = run_once()
    second = run_once()
    ok = first == second and len(first) == 4
    report(12, "end-to-end determinism", ok,
           f"({len(first) - 1} replication rows compared)")
