"""Built-in property suites: invariances, stability, path equivalence,
the cross-validation arbiter and the robust stage's S-scale.

Each check runs the real pipeline (or, for the S-scale, the robust
stage's scale solve) on seeded synthetic data and verifies a structural
property or an oracle agreement. The experiment runner's selftest mode
executes all of them (:func:`run_all`, which logs its report); the test
suite reuses them with larger budgets. Every check returns a list of
human-readable failure strings (empty means the property held).
"""

from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np

from . import corrlars, reference, robustfit
from .cellwise import CorrelationStructure, correlation_structure, ddc_impute
from .pipeline import fit_ensemble, passthrough_imputation
from .rng import make_rng, split_seed
from .selection import SelectionConfig, cv_error, fold_assignment, run_selection
from .simulate import SimConfig, generate_clean

logger = logging.getLogger("cellens.selfcheck")


def _generic_dataset(seed: int, n: int = 50, p: int = 80):
    """Clean block-correlated data with clear signal; generic position a.s."""
    cfg = SimConfig(n=n, p=p, sparsity=10, snr=2.0, block_size=5,
                    rho_within=0.8, rho_background=0.2, seed=seed)
    data = generate_clean(cfg)
    return data.y, data.X


def _selection_cfg(seed: int, K: int = 5) -> SelectionConfig:
    return SelectionConfig(K=K, seed=seed)


def _affine_maps(rng: np.random.Generator, count: int):
    c = rng.uniform(0.1, 3.0, count) * rng.choice([-1.0, 1.0], count)
    a = rng.uniform(-5.0, 5.0, count)
    return c, a


def check_affine_invariance(n_runs: int = 20, n: int = 50, p: int = 80) -> list[str]:
    """Per-column affine maps of [y, X] must not change the selected sets."""
    failures = []
    for run in range(n_runs):
        y, X = _generic_dataset(seed=split_seed(101, run), n=n, p=p)
        rng = make_rng(split_seed(202, run))
        c, a = _affine_maps(rng, p + 1)
        y2 = c[0] * y + a[0]
        X2 = X * c[1:] + a[1:]
        cfg = _selection_cfg(seed=split_seed(303, run))
        res1 = fit_ensemble(y, X, cfg).selection
        res2 = fit_ensemble(y2, X2, cfg).selection
        if [sorted(s) for s in res1.sets] != [sorted(s) for s in res2.sets]:
            failures.append(f"affine run {run}: selected sets differ")
    return failures


def check_scale_shift_equivariance(n_runs: int = 12, n: int = 50, p: int = 80,
                                   exact: bool = False) -> list[str]:
    """Scaling and shifting ``y`` and every column must carry the fit along.

    Each column ``x`` of ``[y, X]`` becomes ``c * x + a`` with factor
    ``c = ±u * 10**k`` (``k`` a uniform integer in [-150, 150], ``u`` in
    [1, 10)) and shift ``a = b * |c| * sd(x)`` (``|b| <= 1e6``). The
    selected sets, the winner sequence and every sub-model's ``converged``
    flag and iteration count must not change, and the predictions on the
    mapped rows must be ``c_y * pred + a_y`` within
    ``1e-12 * (|c_y| * sd(y) + |a_y|)``. With ``exact`` the factors are
    ``±2**k`` (``k`` in [-400, 400]) and there are no shifts: predictions
    must then be ``c_y * pred`` and every proposal's benefit ``c_y**2``
    times its own, bit for bit.
    Two fixed runs follow, mapping ``y`` alone to ``1e±200 * (y + sd(y))``
    (``2**±600 * y`` with ``exact``), whose squares leave the float range;
    they check all of the above but the benefits.
    """
    failures = []
    label = "power-of-two" if exact else "scale-shift"
    fixed = [2.0 ** 600, 2.0 ** -600] if exact else [1e200, 1e-200]
    for run in range(n_runs + len(fixed)):
        y, X = _generic_dataset(seed=split_seed(1717, run), n=n, p=p)
        rng = make_rng(split_seed(1818, run))
        sign = rng.choice([-1.0, 1.0], p + 1)
        if run >= n_runs:
            c, a = np.ones(p + 1), np.zeros(p + 1)
            c[0] = fixed[run - n_runs]
            a[0] = 0.0 if exact else c[0] * y.std()
        elif exact:
            c = sign * np.ldexp(1.0, rng.integers(-400, 401, p + 1))
            a = np.zeros(p + 1)
        else:
            c = (sign * rng.uniform(1.0, 10.0, p + 1)
                 * 10.0 ** rng.integers(-150, 151, p + 1))
            a = (rng.uniform(-1e6, 1e6, p + 1) * np.abs(c)
                 * np.concatenate([[y.std()], X.std(axis=0)]))
        cfg = _selection_cfg(seed=split_seed(1919, run))
        fit1 = fit_ensemble(y, X, cfg)
        X2 = X * c[1:] + a[1:]
        fit2 = fit_ensemble(c[0] * y + a[0], X2, cfg)
        sel1, sel2 = fit1.selection, fit2.selection
        if (sel1.sets != sel2.sets
                or sel1.winner_sequence() != sel2.winner_sequence()):
            failures.append(f"{label} run {run}: selection changed")
            continue
        steps = [[(f.converged, f.iterations) for f in fit.model.fits]
                 for fit in (fit1, fit2)]
        if steps[0] != steps[1]:
            failures.append(f"{label} run {run}: M-stage (converged, "
                            f"iterations) {steps[0]} became {steps[1]}")
        pred1, pred2 = fit1.predict(X), fit2.predict(X2)
        if exact:
            benefits = [[pr.benefit for rec in sel.trace for pr in rec.proposals]
                        for sel in (sel1, sel2)]
            if not np.array_equal(pred2, c[0] * pred1):
                failures.append(f"{label} run {run}: predictions not scaled "
                                f"exactly")
            if run < n_runs and benefits[1] != [c[0] ** 2 * b for b in benefits[0]]:
                failures.append(f"{label} run {run}: benefits not scaled "
                                f"exactly")
            continue
        gap = (np.max(np.abs(pred2 - (c[0] * pred1 + a[0])))
               / (abs(c[0]) * y.std() + abs(a[0])))
        if not gap <= 1e-12:
            failures.append(f"{label} run {run}: predictions off by {gap:.2e} "
                            f"relative")
    return failures


def check_permutation_equivariance(n_runs: int = 20, n: int = 50,
                                   p: int = 80) -> list[str]:
    """Column permutation must permute the selected sets (up to model labels)."""
    failures = []
    for run in range(n_runs):
        y, X = _generic_dataset(seed=split_seed(404, run), n=n, p=p)
        rng = make_rng(split_seed(505, run))
        perm = rng.permutation(p)
        Xp = X[:, perm]
        cfg = _selection_cfg(seed=split_seed(606, run))
        res1 = fit_ensemble(y, X, cfg).selection
        res2 = fit_ensemble(y, Xp, cfg).selection
        # column j of Xp is column perm[j] of X: map selections back
        fam1 = sorted(tuple(sorted(s)) for s in res1.sets)
        fam2 = sorted(tuple(sorted(int(perm[j]) for j in s)) for s in res2.sets)
        if fam1 != fam2:
            failures.append(f"permutation run {run}: set families differ")
    return failures


def check_intercept_invariance(n_runs: int = 20, n: int = 50,
                               p: int = 40) -> list[str]:
    """The winner sequence must ignore the intercept on column-centered data.

    The selection stage consumes the cleaned matrix, so that is what gets
    centered: one shared foundation is built, its columns are centered,
    and the competition runs with the intercept on and off.
    """
    failures = []
    for run in range(n_runs):
        y, X = _generic_dataset(seed=split_seed(707, run), n=n, p=p)
        imp = ddc_impute(np.column_stack([y, X]))
        imp.Z_imp -= imp.Z_imp.mean(axis=0)
        structure = correlation_structure(imp)
        cfg_on = _selection_cfg(seed=split_seed(808, run))
        cfg_off = replace(cfg_on, intercept=False)
        res_on = run_selection(structure, imp, cfg_on)
        res_off = run_selection(structure, imp, cfg_off)
        if res_on.winner_sequence() != res_off.winner_sequence():
            failures.append(f"intercept run {run}: winner sequences differ")
    return failures


def check_local_stability(n_runs: int = 20, n: int = 50, p: int = 80,
                          eps: float = 1e-9) -> list[str]:
    """Entrywise perturbations of the cleaned inputs must not move any decision."""
    failures = []
    for run in range(n_runs):
        y, X = _generic_dataset(seed=split_seed(909, run), n=n, p=p)
        imp = ddc_impute(np.column_stack([y, X]))
        structure = correlation_structure(imp)
        cfg = _selection_cfg(seed=split_seed(1010, run))
        res1 = run_selection(structure, imp, cfg)

        rng = make_rng(split_seed(1111, run))
        pert = CorrelationStructure(
            R_X=structure.R_X + rng.uniform(-eps, eps, structure.R_X.shape),
            r_y=structure.r_y + rng.uniform(-eps, eps, structure.r_y.shape),
        )
        imp2 = type(imp)(
            Z_imp=imp.Z_imp + rng.uniform(-eps, eps, imp.Z_imp.shape),
            flags=imp.flags.copy(),
            scales=imp.scales,
        )
        res2 = run_selection(pert, imp2, cfg)
        same = (res1.winner_sequence() == res2.winner_sequence()
                and res1.stop_reason == res2.stop_reason)
        if not same:
            failures.append(f"stability run {run}: trace changed under {eps} noise")
    return failures


def check_path_equivalence(n_runs: int = 50, n: int = 60, p: int = 25,
                           steps: int = 20, tol: float = 1e-8) -> list[str]:
    """Correlation-space path must match data-space least-angle regression."""
    failures = []
    for run in range(n_runs):
        rng = make_rng(split_seed(1212, run))
        Xraw = rng.standard_normal((n, p)) @ np.diag(rng.uniform(0.5, 2.0, p))
        beta = np.zeros(p)
        beta[rng.choice(p, size=5, replace=False)] = rng.uniform(1, 3, 5)
        yraw = Xraw @ beta + rng.standard_normal(n)
        X = reference.standardize_columns(Xraw)
        yc = yraw - yraw.mean()
        y = yc / np.linalg.norm(yc)

        oracle = reference.classical_lars_path(X, y, steps)
        R = X.T @ X
        r_y = X.T @ y
        order, sizes, states = corrlars.greedy_path(R, r_y, steps)
        if order != oracle.entry_order[:len(order)]:
            failures.append(f"path run {run}: entry order differs")
            continue
        diffs = np.abs(np.asarray(sizes) - np.asarray(oracle.step_sizes[:len(sizes)]))
        if len(sizes) < min(steps, p) or diffs.max() > tol:
            failures.append(f"path run {run}: step sizes differ by {diffs.max():.2e}")
        for state in states:
            lv = state.active_level
            for i in state.active:
                if abs(abs(state.corr_state[i]) - lv) > 1e-8:
                    failures.append(f"path run {run}: equi-correlation violated")
                    break
    return failures


def check_s_scale(n_runs: int = 9, tol: float = 1e-6) -> list[str]:
    """The robust stage's S-scale must match the grid-refinement oracle.

    Runs cycle through heavy-tailed (t with 2 degrees of freedom)
    residuals, residuals with 45% gross outliers that saturate the
    bisquare at the root, and tiny samples with one exact zero.
    """
    failures = []
    c0 = robustfit.C_BREAKDOWN
    for run in range(n_runs):
        rng = make_rng(split_seed(1313, run))
        kind = run % 3
        if kind == 0:
            r = rng.standard_t(2, 200)
        elif kind == 1:
            r = rng.standard_normal(200)
            r[:90] = rng.choice([-1.0, 1.0], 90) * rng.uniform(30, 60, 90)
        else:
            r = np.append(rng.standard_normal(2), 0.0)
        r *= rng.uniform(0.5, 3.0)
        got = robustfit.s_scale(r, c0)
        want = reference.s_scale_grid(r, c0)
        if not abs(got - want) <= tol:
            failures.append(f"s-scale run {run}: {got!r} against oracle "
                            f"{want!r}")
    return failures


def check_cv_oracle(n_runs: int = 20, n: int = 47, p: int = 30,
                    folds: int = 5, tol: float = 1e-10) -> list[str]:
    """The stacked cross-validation error must match the fold-by-fold oracle.

    One seeded input with uneven folds (``n`` not a multiple of
    ``folds``); each run scores a random subset of 1 to 10 predictors,
    with the intercept on in even runs and off in odd ones.
    """
    failures = []
    y, X = _generic_dataset(seed=1414, n=n, p=p)
    imp = passthrough_imputation(np.column_stack([y, X]))
    labels = fold_assignment(n, folds, make_rng(1515))
    rng = make_rng(1616)
    for run in range(n_runs):
        subset = [int(j) for j in
                  rng.choice(p, size=int(rng.integers(1, 11)), replace=False)]
        intercept = run % 2 == 0
        got = cv_error(imp, subset, labels, intercept)
        want = reference.cv_error_oracle(y, X, subset, labels, intercept)
        if not abs(got - want) <= tol:
            failures.append(f"cv-oracle run {run}: {got!r} against oracle "
                            f"{want!r}")
    return failures


def run_all() -> bool:
    """Run every property suite; True when all pass.

    Each suite's ``PASS`` line goes to the ``cellens.selfcheck`` logger at
    INFO, a ``FAIL`` line and its failures at WARNING; nothing is printed.
    """
    suites = [
        ("path-equivalence", lambda: check_path_equivalence(n_runs=10)),
        ("affine-invariance", lambda: check_affine_invariance(n_runs=5)),
        ("scale-shift-equivariance",
         lambda: check_scale_shift_equivariance(n_runs=4)),
        ("power-of-two-equivariance",
         lambda: check_scale_shift_equivariance(n_runs=2, exact=True)),
        ("permutation-equivariance", lambda: check_permutation_equivariance(n_runs=5)),
        ("intercept-invariance", lambda: check_intercept_invariance(n_runs=5)),
        ("local-stability", lambda: check_local_stability(n_runs=5)),
        ("cv-oracle", check_cv_oracle),
        ("s-scale", check_s_scale),
    ]
    ok = True
    for name, fn in suites:
        failures = fn()
        if not failures:
            logger.info("selfcheck %s: PASS", name)
            continue
        ok = False
        logger.warning("selfcheck %s: FAIL", name)
        for msg in failures:
            logger.warning("  %s", msg)
    return ok
